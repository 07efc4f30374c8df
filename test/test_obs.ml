(* Tests for the observability layer: bounded rings, the metrics
   registry, the typed tracer, the JSON serializer, and the per-message
   latency breakdown — including the end-to-end invariant that the stage
   latencies of a lossless run sum to the end-to-end latency. *)

module Ring = Flipc_obs.Ring
module Json = Flipc_obs.Json
module Event = Flipc_obs.Event
module Metrics = Flipc_obs.Metrics
module Tracer = Flipc_obs.Tracer
module Latency = Flipc_obs.Latency
module Obs = Flipc_obs.Obs
module Sketch = Flipc_obs.Sketch
module Machine = Flipc.Machine
module Pingpong = Flipc_workload.Pingpong

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- Ring --- *)

let test_ring_basic () =
  let r = Ring.create ~capacity:4 in
  check_bool "empty" true (Ring.is_empty r);
  Ring.push r 1;
  Ring.push r 2;
  Ring.push r 3;
  check "length" 3 (Ring.length r);
  check "dropped" 0 (Ring.dropped r);
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (Ring.to_list r)

let test_ring_wrap_drops_oldest () =
  let r = Ring.create ~capacity:3 in
  for i = 1 to 7 do
    Ring.push r i
  done;
  check "length capped" 3 (Ring.length r);
  check "dropped counts evictions" 4 (Ring.dropped r);
  Alcotest.(check (list int)) "keeps newest, oldest first" [ 5; 6; 7 ]
    (Ring.to_list r);
  Ring.clear r;
  check "clear resets length" 0 (Ring.length r);
  check "clear resets dropped" 0 (Ring.dropped r)

let test_ring_fold_iter () =
  let r = Ring.create ~capacity:8 in
  for i = 1 to 5 do
    Ring.push r i
  done;
  check "fold sum" 15 (Ring.fold r ~init:0 (fun acc x -> acc + x));
  let seen = ref [] in
  Ring.iter r (fun x -> seen := x :: !seen);
  Alcotest.(check (list int)) "iter oldest first" [ 1; 2; 3; 4; 5 ]
    (List.rev !seen)

(* --- Metrics --- *)

let test_counters_and_gauges () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a.sends" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  check "counter" 5 (Metrics.counter_value c);
  (* find-or-register returns the same counter *)
  Metrics.incr (Metrics.counter m "a.sends");
  check "shared" 6 (Metrics.counter_value c);
  let g = Metrics.gauge m "a.depth" in
  Metrics.set g 3.5;
  Alcotest.(check (float 0.)) "gauge" 3.5 (Metrics.gauge_value g);
  (* registering the same name as a different type is an error *)
  check_bool "type clash raises" true
    (try
       ignore (Metrics.gauge m "a.sends");
       false
     with Invalid_argument _ -> true);
  check_bool "bad name raises" true
    (try
       ignore (Metrics.counter m "spaces not allowed");
       false
     with Invalid_argument _ -> true)

let test_histogram_sketch () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  List.iter (Metrics.observe h) [ 1.; 2.; 3.; 4.; 5.; 6. ];
  check "all-time count" 6 (Metrics.histo_count h);
  Alcotest.(check (float 1e-9)) "exact sum" 21.0 (Metrics.histo_sum h);
  (match Metrics.histo_summary h with
  | None -> Alcotest.fail "summary expected"
  | Some s ->
      Alcotest.(check (float 1e-9)) "exact min" 1.0 s.Flipc_stats.Summary.min;
      Alcotest.(check (float 1e-9)) "exact max" 6.0 s.Flipc_stats.Summary.max;
      Alcotest.(check (float 1e-9)) "exact mean" 3.5 s.Flipc_stats.Summary.mean);
  match Metrics.histo_quantile h 0.5 with
  | None -> Alcotest.fail "quantile expected"
  | Some p50 ->
      (* within one sketch bucket (~9%) of the true median *)
      check_bool "p50 within bucket width" true (p50 >= 2.5 && p50 <= 3.7)

(* The sketch behind every histogram: empty reads, NaN, merge, clear. *)
let test_sketch_merge_and_empty () =
  let a = Sketch.create () and b = Sketch.create () in
  check "empty count" 0 (Sketch.count a);
  check_bool "empty mean" true (Sketch.mean a = None);
  check_bool "empty quantile" true (Sketch.quantile a 0.5 = None);
  check_bool "empty summary" true (Sketch.summary a = None);
  check_bool "empty min" true (Sketch.min_value a = infinity);
  Sketch.observe a Float.nan;
  check "NaN ignored" 0 (Sketch.count a);
  List.iter (Sketch.observe a) [ 1.; 2.; 3. ];
  List.iter (Sketch.observe b) [ 10.; 20. ];
  Sketch.merge ~into:a b;
  check "merged count" 5 (Sketch.count a);
  Alcotest.(check (float 1e-9)) "merged sum" 36.0 (Sketch.sum a);
  Alcotest.(check (float 0.)) "merged min" 1.0 (Sketch.min_value a);
  Alcotest.(check (float 0.)) "merged max" 20.0 (Sketch.max_value a);
  check "source unchanged" 2 (Sketch.count b);
  (match Sketch.quantile a 1.0 with
  | Some q ->
      (* clamped to [min, max], within one bucket width of the max *)
      check_bool "p100 within bucket of max" true (q <= 20.0 && q >= 20.0 /. 1.1)
  | None -> Alcotest.fail "quantile expected");
  Sketch.clear a;
  check "clear empties" 0 (Sketch.count a);
  check_bool "clear resets extremes" true (Sketch.max_value a = neg_infinity)

let test_snapshot_sorted_and_probed () =
  let m = Metrics.create () in
  let state = ref 7 in
  Metrics.probe m "z.probe" (fun () -> float_of_int !state);
  Metrics.incr (Metrics.counter m "b.count");
  Metrics.set (Metrics.gauge m "a.gauge") 1.0;
  state := 9;
  let snap = Metrics.snapshot m in
  Alcotest.(check (list string)) "sorted by name"
    [ "a.gauge"; "b.count"; "z.probe" ]
    (List.map fst snap);
  (match List.assoc "z.probe" snap with
  | Metrics.Snap_gauge v -> Alcotest.(check (float 0.)) "probe sampled" 9.0 v
  | _ -> Alcotest.fail "probe should snapshot as a gauge");
  (* JSON renders and parses as one object in the same order *)
  let s = Json.to_string (Metrics.snapshot_json snap) in
  check_bool "json object" true
    (String.length s > 2 && s.[0] = '{' && s.[String.length s - 1] = '}')

(* --- Json --- *)

let test_json_rendering () =
  check_str "escaping"
    {|{"s":"a\"b\\c\n","i":-3,"f":1.5,"t":true,"x":null,"l":[1,2]}|}
    (Json.to_string
       (Json.Obj
          [
            ("s", Json.String "a\"b\\c\n");
            ("i", Json.Int (-3));
            ("f", Json.Float 1.5);
            ("t", Json.Bool true);
            ("x", Json.Null);
            ("l", Json.List [ Json.Int 1; Json.Int 2 ]);
          ]));
  check_str "integral float keeps decimal point" "2.0"
    (Json.to_string (Json.Float 2.0));
  check_str "nan is null" "null" (Json.to_string (Json.Float Float.nan))

(* --- Tracer --- *)

let test_tracer_bounded_and_chrome () =
  let tr = Tracer.create ~capacity:8 ~enabled:false () in
  Tracer.emit tr ~now:5 (Event.Engine_wake { node = 0 });
  check "disabled emits nothing" 0 (Tracer.length tr);
  Tracer.enable tr;
  for i = 1 to 12 do
    Tracer.emit tr ~now:(i * 10)
      (Event.Wire_rx { node = 1; ep = i; mid = i })
  done;
  check "capped" 8 (Tracer.length tr);
  check "dropped" 4 (Tracer.dropped tr);
  let doc = Json.to_string (Tracer.chrome_json tr) in
  check_bool "has traceEvents" true
    (String.length doc > 0
    && String.sub doc 0 15 = {|{"traceEvents":|});
  (* timestamps are microseconds: vtime 50ns -> 0.05us *)
  let ev_doc = Tracer.chrome_events tr in
  check_bool "metadata + events" true (List.length ev_doc > 8)

(* --- Latency pairing --- *)

let test_latency_stage_pipeline () =
  let l = Latency.create () in
  (* one message: enqueue at 100, tx at 400, wire arrival at 600,
     deposited, dequeued at 1000 (all ns) *)
  Latency.send_enqueued l ~now:100 ~dst_node:1 ~dst_ep:2;
  Latency.engine_tx l ~now:400 ~dst_node:1 ~dst_ep:2;
  Latency.wire_rx l ~now:600 ~node:1 ~ep:2;
  Latency.deposited l ~node:1 ~ep:2;
  Latency.recv_dequeued l ~now:1000 ~node:1 ~ep:2;
  check "send count" 1 (Latency.stage_count l Latency.Send_stage);
  check "total count" 1 (Latency.stage_count l Latency.Total_stage);
  let mean st =
    match Latency.stage_mean_us l st with
    | Some v -> v
    | None -> Alcotest.fail "missing stage"
  in
  Alcotest.(check (float 1e-9)) "send 0.3us" 0.3 (mean Latency.Send_stage);
  Alcotest.(check (float 1e-9)) "wire 0.2us" 0.2 (mean Latency.Wire_stage);
  Alcotest.(check (float 1e-9)) "recv 0.4us" 0.4 (mean Latency.Recv_stage);
  Alcotest.(check (float 1e-9)) "total 0.9us" 0.9 (mean Latency.Total_stage);
  check "unmatched" 0 (Latency.unmatched l);
  check "dropped in flight" 0 (Latency.dropped_in_flight l)

let test_latency_discard_retires_stamp () =
  let l = Latency.create () in
  Latency.send_enqueued l ~now:0 ~dst_node:0 ~dst_ep:1;
  Latency.engine_tx l ~now:10 ~dst_node:0 ~dst_ep:1;
  Latency.wire_rx l ~now:20 ~node:0 ~ep:1;
  Latency.discarded l ~node:0 ~ep:1;
  check "no total sample" 0 (Latency.stage_count l Latency.Total_stage);
  check "dropped in flight" 1 (Latency.dropped_in_flight l);
  check "unmatched" 0 (Latency.unmatched l)

let test_tracer_clear_and_pp () =
  let tr = Tracer.create ~capacity:4 () in
  check_bool "disabled by default" false (Tracer.enabled tr);
  Tracer.enable tr;
  for i = 1 to 6 do
    Tracer.emit tr ~now:i (Event.Engine_wake { node = i })
  done;
  check "capped" 4 (Tracer.length tr);
  check "dropped" 2 (Tracer.dropped tr);
  (match Tracer.to_list tr with
  | first :: _ -> check "oldest retained entry" 3 first.Tracer.ts
  | [] -> Alcotest.fail "empty tracer");
  let lines =
    String.split_on_char '\n' (Fmt.str "%a" Tracer.pp tr)
    |> List.filter (fun l -> l <> "")
  in
  check "pp: one line per retained event" 4 (List.length lines);
  Tracer.clear tr;
  check "clear empties" 0 (Tracer.length tr);
  check "clear resets dropped" 0 (Tracer.dropped tr);
  Tracer.disable tr;
  Tracer.emit tr ~now:9 (Event.Engine_wake { node = 0 });
  check "disabled records nothing" 0 (Tracer.length tr)

(* --- end to end on a real machine --- *)

let run_pingpong () =
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let r =
    Pingpong.run ~machine ~node_a:0 ~node_b:1 ~payload_bytes:64 ~exchanges:50
      ()
  in
  (machine, r)

(* The tentpole invariant: stage deltas are exact decompositions of each
   message's end-to-end latency. Per-message samples are no longer
   retained (constant-storage sketches), but sums survive exactly, so
   on a lossless in-order mesh the per-stage sums reconstruct the total
   sum to float precision. *)
let test_stages_sum_to_total () =
  let machine, r = run_pingpong () in
  Alcotest.(check int) "no transport drops" 0 r.Pingpong.drops;
  let l = Obs.latency (Machine.obs machine) in
  check "nothing unmatched" 0 (Latency.unmatched l);
  check "nothing dropped in flight" 0 (Latency.dropped_in_flight l);
  let n = Latency.stage_count l Latency.Total_stage in
  check_bool "saw every exchange twice" true (n >= 2 * 50);
  List.iter
    (fun st ->
      check (Latency.stage_name st ^ " count") n (Latency.stage_count l st))
    Latency.all_stages;
  let sum st = Latency.stage_sum_us l st in
  let stage_total =
    sum Latency.Send_stage +. sum Latency.Wire_stage +. sum Latency.Recv_stage
  in
  let total = sum Latency.Total_stage in
  Alcotest.(check (float (Float.max 1e-6 (total *. 1e-9))))
    "stage sums reconstruct the end-to-end sum" total stage_total

let test_engine_probes_on_registry () =
  let machine, _ = run_pingpong () in
  let snap = Metrics.snapshot (Obs.metrics (Machine.obs machine)) in
  let get name =
    match List.assoc_opt name snap with
    | Some (Metrics.Snap_gauge v) -> int_of_float v
    | _ -> Alcotest.fail (name ^ " missing from snapshot")
  in
  check_bool "node0 sent messages" true (get "node0.engine.sends" > 0);
  check_bool "node1 received them" true (get "node1.engine.recvs" > 0);
  check "no drops on provisioned run" 0 (get "node1.engine.drops")

let snapshot_fingerprint () =
  let machine, _ = run_pingpong () in
  let obs = Machine.obs machine in
  let snap = Metrics.snapshot (Obs.metrics obs) in
  Json.to_string
    (Json.Obj
       [
         ("metrics", Metrics.snapshot_json snap);
         ("latency", Latency.json (Obs.latency obs));
       ])

let test_snapshot_deterministic () =
  let a = snapshot_fingerprint () in
  let b = snapshot_fingerprint () in
  check_str "identical runs produce identical snapshots" a b

(* What [flipc trace] prints: the machine's own tracer, enabled by
   hand, sees every stage of the message path in time order. *)
let test_machine_tracer_message_path () =
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let tracer = Obs.tracer (Machine.obs machine) in
  check_bool "off by default" false (Tracer.enabled tracer);
  Tracer.enable tracer;
  ignore
    (Pingpong.run ~machine ~node_a:0 ~node_b:1 ~payload_bytes:64 ~exchanges:5
       ());
  let entries = Tracer.to_list tracer in
  let names = List.map (fun e -> Event.name e.Tracer.ev) entries in
  List.iter
    (fun n -> check_bool (n ^ " traced") true (List.mem n names))
    [ "send_enqueued"; "engine_tx"; "wire_rx"; "deposit"; "recv_dequeued" ];
  let rec ordered = function
    | a :: (b :: _ as rest) -> a.Tracer.ts <= b.Tracer.ts && ordered rest
    | _ -> true
  in
  check_bool "timestamps nondecreasing" true (ordered entries)

let test_machine_tracing_capture () =
  Obs.start_capture ();
  let finally () = Obs.stop_capture () in
  Fun.protect ~finally (fun () ->
      let machine, _ = run_pingpong () in
      check_bool "machine captured" true
        (List.exists (fun o -> Obs.id o = Obs.id (Machine.obs machine))
           (Obs.captured ()));
      check_bool "capture enables tracing" true
        (Obs.tracing (Machine.obs machine));
      check_bool "events recorded" true
        (Tracer.length (Obs.tracer (Machine.obs machine)) > 0);
      let doc = Json.to_string (Obs.captured_chrome_json ()) in
      check_bool "merged chrome doc" true
        (String.length doc > 15 && String.sub doc 0 15 = {|{"traceEvents":|}))

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "basics" `Quick test_ring_basic;
          Alcotest.test_case "wrap drops oldest" `Quick
            test_ring_wrap_drops_oldest;
          Alcotest.test_case "fold/iter" `Quick test_ring_fold_iter;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick
            test_counters_and_gauges;
          Alcotest.test_case "histogram sketch" `Quick test_histogram_sketch;
          Alcotest.test_case "sketch merge + empty" `Quick
            test_sketch_merge_and_empty;
          Alcotest.test_case "snapshot sorted + probes" `Quick
            test_snapshot_sorted_and_probed;
          Alcotest.test_case "json rendering" `Quick test_json_rendering;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "bounded + chrome export" `Quick
            test_tracer_bounded_and_chrome;
          Alcotest.test_case "clear + pp" `Quick test_tracer_clear_and_pp;
        ] );
      ( "latency",
        [
          Alcotest.test_case "stage pipeline" `Quick
            test_latency_stage_pipeline;
          Alcotest.test_case "discard retires stamp" `Quick
            test_latency_discard_retires_stamp;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "stages sum to total" `Quick
            test_stages_sum_to_total;
          Alcotest.test_case "engine probes on registry" `Quick
            test_engine_probes_on_registry;
          Alcotest.test_case "snapshot deterministic" `Quick
            test_snapshot_deterministic;
          Alcotest.test_case "message path traced" `Quick
            test_machine_tracer_message_path;
          Alcotest.test_case "capture window" `Quick
            test_machine_tracing_capture;
        ] );
    ]

(* One benchmark run: repeat a workload's unit of work for the host-time
   budget, check its outputs, and reduce the reps to metrics.

   Every rep of a seed runs the same virtual timeline, so the virtual
   metrics are read from the first rep and every later rep must match
   it exactly. Host speed is pooled over the reps: messages delivered
   over host CPU seconds, both summed. A rep of stack-lossy takes a third
   of the run, so a median over its three or four reps would rest on
   one of them. The shared host's speed swings by a third over minutes,
   so host speed is printed in every report but is a metric of the
   traced run only, where it has no bound. *)

type workload = {
  name : string;
  rep : setup_only:bool -> seed:int -> trace:bool -> Measure.rep;
      (** [~setup_only] ends the rep at its set-up mark ({!Measure.Set_up}) *)
  checks : seed:int -> first:Measure.rep -> (string * bool) list;
      (** made once per run, after the reps *)
  knee : (seed:int -> float * (float * float * float * bool) list) option;
      (** open-loop knee search; closed loops run at their own knee *)
}

let workloads =
  [
    {
      name = "pingpong";
      rep =
        (fun ~setup_only ~seed ~trace ->
          Pingpong_wl.rep ~setup_only ~seed ~trace ());
      checks = (fun ~seed:_ ~first:_ -> Pingpong_wl.check ());
      knee = None;
    };
    {
      name = "firehose";
      rep =
        (fun ~setup_only ~seed ~trace ->
          Firehose_wl.rep ~setup_only ~seed ~trace ());
      checks = Firehose_wl.check;
      knee = Some Firehose_wl.knee;
    };
    {
      name = "stack-lossy";
      rep =
        (fun ~setup_only ~seed ~trace ->
          Stack_wl.rep ~setup_only ~seed ~trace ());
      checks = (fun ~seed:_ ~first:_ -> []);
      knee = None;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let end_to_end_units =
  [
    ("latency_p50_us", "us");
    ("latency_p99_us", "us");
    ("knee_msgs_per_s", "msgs/s");
    ("goodput_msgs_per_s", "msgs/s");
    ("alloc_bytes_per_msg", "B");
    ("peak_heap_mb", "MB");
    ("setup_s", "s");
  ]

(* Span metrics only some workloads produce; the others report 0, the
   prediction for a layer they do not exercise. *)
let span_units =
  [
    ("api.send_vns_p50", "ns");
    ("api.receive_vns_p50", "ns");
    ("api.empty_polls_per_msg", "count");
    ("flow.retrans.send_vns_p50", "ns");
    ("flow.retrans.send_vns_p99", "ns");
    ("flow.retrans.self_vns_p50", "ns");
    ("flow.retrans.retransmits_per_msg", "count");
    ("flow.retrans.useful_frame_ratio", "ratio");
    ("flow.retrans.acks_per_msg", "count");
    ("flow.channel.no_buffer_ratio", "ratio");
    ("flow.channel.drops", "count");
    ("flow.channel.corrupt_frames", "count");
    ("net.corrupt_header_crashes", "count");
    ("gen.drain_us", "us");
  ]

let host_rate (r : Measure.rep) = float_of_int r.Measure.msgs /. r.Measure.run_s

let pooled_host_rate reps =
  List.fold_left (fun a (r : Measure.rep) -> a +. float_of_int r.Measure.msgs) 0. reps
  /. List.fold_left (fun a (r : Measure.rep) -> a +. r.Measure.run_s) 0. reps
let virt name (r : Measure.rep) = List.assoc name r.Measure.virt

(* Repeat [f] until [seconds] of host CPU have passed, at least [min]
   times. *)
let repeat ~seconds ~min f =
  let t0 = Measure.cpu () in
  let rec go acc n =
    if n >= min && Measure.cpu () -. t0 >= seconds then List.rev acc
    else go (f () :: acc) (n + 1)
  in
  go [] 0

(* Untraced runs follow each rep with set-up-only builds for this share
   of the rep's host time; [setup_s] is their median. Host speed drifts
   over fractions of a second: the medians of bursts of 100 builds made
   one after another differed by up to 40%. Interleaved, the builds
   sample the same stretch of host time as the reps do. *)
let setup_share = 0.15

let say fmt = Printf.printf (fmt ^^ "\n%!")

let run w ~seed ~seconds ~trace =
  say "perfbench %s: seed %d, %.0f s, trace %d" w.name seed seconds
    (if trace then 1 else 0);
  (* The process's peak heap once the first rep is done: the same
     allocations in every run of the seed, unlike a peak read after as
     many reps as the host's speed allowed. Nothing else runs before the
     first rep (the knee search comes after the reps), and a process
     runs one workload, so the peak is this rep's. *)
  let peak_heap_mb = ref nan in
  let setups = ref [] in
  (* Traced runs alternate untraced and traced reps of the same seed. *)
  let pairs =
    repeat ~seconds ~min:(if trace then 2 else 3) (fun () ->
        let t0 = Measure.cpu () in
        let plain = w.rep ~setup_only:false ~seed ~trace:false in
        if Float.is_nan !peak_heap_mb then
          peak_heap_mb :=
            float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
            /. 1048576.;
        if not trace then
          setups :=
            repeat ~seconds:(setup_share *. (Measure.cpu () -. t0)) ~min:1 (fun () ->
                Measure.setup_time (fun () -> w.rep ~setup_only:true ~seed ~trace:false))
            @ !setups;
        (plain, if trace then Some (w.rep ~setup_only:false ~seed ~trace:true) else None))
  in
  let plain = List.map fst pairs and traced = List.filter_map snd pairs in
  let knee =
    match w.knee with
    | Some search when not trace ->
        let k, probes = search ~seed in
        List.iter
          (fun (rate, p99, drain, ok) ->
            say "  knee probe %.0f msgs/s: p99 %.1f us, drain %.1f us, %s" rate p99
              drain
              (if ok then "meets limit" else "misses limit"))
          probes;
        Some k
    | _ -> None
  in
  let first = List.hd plain in
  let checks =
    List.concat_map (fun (r : Measure.rep) -> r.Measure.checks) (plain @ traced)
    @ [
        ( w.name ^ ".reps_repeat_the_virtual_timeline",
          List.for_all
            (fun (r : Measure.rep) -> r.Measure.virt = first.Measure.virt)
            plain );
      ]
    @ (if trace then
         [
           ( w.name ^ ".traced_run_is_virtually_identical",
             List.for_all
               (fun ((p : Measure.rep), t) ->
                 match t with
                 | Some (t : Measure.rep) ->
                     t.Measure.virt = p.Measure.virt
                     && t.Measure.layer.Measure.steps = p.Measure.layer.Measure.steps
                 | None -> false)
               pairs );
         ]
       else [])
    @ w.checks ~seed ~first
  in
  (* Checks apply per rep; report each name once. *)
  let checks =
    List.fold_left
      (fun acc (n, ok) ->
        match List.assoc_opt n acc with
        | Some prev -> (n, prev && ok) :: List.remove_assoc n acc
        | None -> (n, ok) :: acc)
      [] checks
    |> List.rev
  in
  List.iter (fun (n, ok) -> say "  check %s: %s" n (if ok then "ok" else "FAILED")) checks;
  let med f l = Measure.median (List.map f l) in
  let n_samples = int_of_float (virt "latency_samples" first) in
  say "  reps %d, latency samples per rep %d (tail percentile p%g)" (List.length plain)
    n_samples
    (100. *. Measure.tail_p n_samples);
  let sum f = List.fold_left (fun a (r : Measure.rep) -> a + f r) 0 plain in
  let attempted = sum (fun r -> r.Measure.attempted) in
  let failed = sum (fun r -> r.Measure.failed) in
  (let rates = List.map host_rate plain in
   say "  host msgs/s over reps: pooled %.0f (min %.0f, median %.0f, max %.0f)"
     (pooled_host_rate plain)
     (List.fold_left Float.min infinity rates)
     (Measure.median rates)
     (List.fold_left Float.max 0. rates));
  say "  attempted %d, failed %d (failed ratio %g)" attempted failed
    (float_of_int failed /. float_of_int attempted);
  let metrics =
    if not trace then
      let goodput = virt "goodput_msgs_per_s" first in
      let values =
        [
          ("latency_p50_us", virt "latency_p50_us" first);
          ("latency_p99_us", virt "latency_p99_us" first);
          ("knee_msgs_per_s", Option.value knee ~default:goodput);
          ("goodput_msgs_per_s", goodput);
          ( "alloc_bytes_per_msg",
            med
              (fun (r : Measure.rep) ->
                r.Measure.alloc_bytes /. float_of_int r.Measure.msgs)
              plain );
          ("peak_heap_mb", !peak_heap_mb);
          ("setup_s", Measure.median !setups);
        ]
      in
      List.map (fun (n, v) -> (n, v, List.assoc n end_to_end_units)) values
    else
      let t = List.hd traced in
      let layers =
        List.map
          (fun (n, v, u) ->
            if n = "sim.host_ns_per_step" then
              ( n,
                med
                  (fun (r : Measure.rep) ->
                    r.Measure.run_s *. 1e9 /. float_of_int r.Measure.layer.Measure.steps)
                  traced,
                u )
            else (n, v, u))
          (Measure.layer_metrics t)
      in
      let spans =
        List.map
          (fun (n, u) ->
            match List.find_opt (fun (n', _, _) -> n' = n) t.Measure.spans with
            | Some (_, v, _) -> (n, v, u)
            | None -> (n, 0., u))
          span_units
      in
      layers @ spans
      @ [
          ("host_msgs_per_s", pooled_host_rate plain, "msgs/s");
          ( "trace.overhead_ratio",
            pooled_host_rate plain /. pooled_host_rate traced,
            "ratio" );
        ]
  in
  List.iter (fun (n, v, u) -> say "  %-36s %.6g %s" n v u) metrics;
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  if not finite then say "  check metrics_are_finite: FAILED";
  {
    correct = finite && List.for_all snd checks;
    attempted;
    failed;
    metrics;
  }

(* The result line: one JSON object, every value with all its digits. *)
let json r =
  let num v =
    if Float.is_integer v then Printf.sprintf "%.1f" v
    else Printf.sprintf "%.17g" v
  in
  let metric (n, v, u) = Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

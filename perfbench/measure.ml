(* Shared measurement plumbing: host clocks, quantiles, counter
   snapshots and the per-rep record every workload returns.

   Two clocks are in play. Virtual time is the simulator's modelled
   time and is deterministic for a given seed. Host time is process CPU
   time ([Sys.time], i.e. getrusage user+system), read only around the
   workload and never fed back into the simulation. *)

module Machine = Flipc.Machine
module Msg_engine = Flipc.Msg_engine
module Mem_port = Flipc_memsim.Mem_port
module Cache = Flipc_memsim.Cache
module Sketch = Flipc_obs.Sketch

let cpu () = Sys.time ()
let allocated () = Gc.allocated_bytes ()

(* {1 Quantiles} *)

(* Linear interpolation between closest ranks on a sorted array, the
   convention of {!Flipc_stats.Summary.percentile}. *)
let quantile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let pos = p *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)
  end

(* The tail percentile a sample of [n] supports: p99 when at least ten
   samples lie beyond it, otherwise the highest percentile that keeps
   ten beyond (never below the median). *)
let tail_p n = Float.max 0.5 (Float.min 0.99 (1. -. (10. /. float_of_int n)))

let quantile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  quantile_sorted a p

let median xs = quantile xs 0.5

type latency = { p50 : float; tail : float; n : int }

let latency_of_sorted a =
  let n = Array.length a in
  { p50 = quantile_sorted a 0.5; tail = quantile_sorted a (tail_p n); n }

let latency_of_samples xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  latency_of_sorted a

(* [Sketch.quantile] answers with the geometric midpoint of a ~9%-wide
   log bucket, which would quantise latency to a handful of values. The
   sketch's exact per-bucket counts can be read back by probing ranks:
   each bucket's observations are then spread evenly between its edges
   (tightened to the exact min and max) and the quantile is taken on
   that reconstruction, as a histogram quantile is.

   The bucket geometry below restates [Flipc_obs.Sketch]'s, which the
   sketch does not export. [sketch_samples] therefore also says whether
   the sketch agrees with it: every probed answer must be the geometric
   midpoint of the bucket it was placed in (or the exact min or max,
   which clamp it), and the exact min and max must fall in the first and
   last rebuilt buckets. *)
let gamma_log = log 2.0 /. 8.0

let sketch_samples sk =
  let n = Sketch.count sk in
  let value r =
    match Sketch.quantile sk ((float_of_int r -. 0.5) /. float_of_int n) with
    | Some v -> v
    | None -> nan
  in
  let bucket v =
    if v <= 0. then min_int
    else int_of_float (Float.ceil ((log v /. gamma_log) -. 1e-9))
  in
  let lower b = exp (gamma_log *. float_of_int (b - 1))
  and upper b = exp (gamma_log *. float_of_int b) in
  let near a b = Float.abs (a -. b) <= 1e-9 *. Float.abs b in
  let inside x b = x > lower b *. (1. -. 1e-9) && x <= upper b *. (1. +. 1e-9) in
  let out = Array.make n 0. in
  let lo_v = Sketch.min_value sk and hi_v = Sketch.max_value sk in
  let consistent = ref true in
  let r = ref 1 in
  while !r <= n do
    let v = value !r in
    let b = bucket v in
    (* Last rank in the same bucket, by binary search. *)
    let lo = ref !r and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if bucket (value mid) = b then lo := mid else hi := mid - 1
    done;
    let first = !r and last = !lo in
    let c = last - first + 1 in
    let edge_lo, edge_hi =
      if b = min_int then (v, v)
      else begin
        let midpoint = exp (gamma_log *. (float_of_int b -. 0.5)) in
        if not (near v midpoint || v = lo_v || v = hi_v) then consistent := false;
        if (first = 1 && not (inside lo_v b)) || (last = n && not (inside hi_v b)) then
          consistent := false;
        (Float.max lo_v (lower b), Float.min hi_v (upper b))
      end
    in
    for j = 0 to c - 1 do
      out.(first - 1 + j) <-
        edge_lo
        +. ((edge_hi -. edge_lo) *. (float_of_int j +. 0.5) /. float_of_int c)
    done;
    r := last + 1
  done;
  (out, !consistent)

let latency_of_sketch sk =
  let samples, consistent = sketch_samples sk in
  (latency_of_sorted samples, consistent)

(* {1 Layer counters}

   Public counters of every layer, summed over the machine. A snapshot is
   taken when the workload's endpoints are attached and again after the
   run; per-message layer metrics are the differences. Reading them has
   no simulation effect. *)

type counters = {
  steps : int;
  loads : int;
  stores : int;
  hits : int;
  misses : int;
  invalidations : int;
  locked_rmws : int;
  iterations : int;
  doorbell_hits : int;
  parks : int;
  rx_truncations : int;
  engine_drops : int;
  packets : int;
  wire_ns : int;
  dma_bytes : int;
  faults : int;
}

let snapshot m =
  let nodes = List.init (Machine.node_count m) (Machine.node m) in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let ports =
    List.concat_map
      (fun n ->
        Machine.coproc_port n
        :: List.init (Machine.app_cpus n) (fun cpu -> Machine.app_port n ~cpu))
      nodes
  in
  let cstat f = sum (fun p -> f (Cache.stats (Mem_port.cache p))) ports in
  let engines = List.concat_map Machine.msg_engines nodes in
  let estat f = sum (fun e -> f (Msg_engine.stats e)) engines in
  let fab = (Machine.fabric m).Flipc_net.Fabric.stats in
  let faults =
    match Machine.fault_stats m with
    | None -> 0
    | Some s ->
        Flipc_net.Faulty.(
          s.dropped + s.duplicated + s.reordered + s.delayed + s.corrupted
          + s.burst_dropped)
  in
  {
    steps = Flipc_sim.Engine.steps (Machine.sim m);
    loads = sum Mem_port.load_count ports;
    stores = sum Mem_port.store_count ports;
    hits = cstat (fun s -> s.Cache.hits);
    misses = cstat (fun s -> s.Cache.misses);
    invalidations = cstat (fun s -> s.Cache.invalidations_received);
    locked_rmws = cstat (fun s -> s.Cache.locked_rmws);
    iterations = estat (fun s -> s.Msg_engine.iterations);
    doorbell_hits = estat (fun s -> s.Msg_engine.doorbell_hits);
    parks = estat (fun s -> s.Msg_engine.parks);
    rx_truncations = estat (fun s -> s.Msg_engine.rx_truncations);
    engine_drops = estat (fun s -> s.Msg_engine.drops);
    packets = fab.Flipc_net.Fabric.packets_sent;
    wire_ns = fab.Flipc_net.Fabric.total_wire_ns;
    dma_bytes =
      sum (fun n -> (Flipc_net.Dma.stats (Machine.dma n)).Flipc_net.Dma.bytes) nodes;
    faults;
  }

let diff a b =
  {
    steps = b.steps - a.steps;
    loads = b.loads - a.loads;
    stores = b.stores - a.stores;
    hits = b.hits - a.hits;
    misses = b.misses - a.misses;
    invalidations = b.invalidations - a.invalidations;
    locked_rmws = b.locked_rmws - a.locked_rmws;
    iterations = b.iterations - a.iterations;
    doorbell_hits = b.doorbell_hits - a.doorbell_hits;
    parks = b.parks - a.parks;
    rx_truncations = b.rx_truncations - a.rx_truncations;
    engine_drops = b.engine_drops - a.engine_drops;
    packets = b.packets - a.packets;
    wire_ns = b.wire_ns - a.wire_ns;
    dma_bytes = b.dma_bytes - a.dma_bytes;
    faults = b.faults - a.faults;
  }

(* Set-up runs from [mark ()], before the machine is built, to
   [set_mark], when the workload's endpoints are all attached. [set_mark]
   is called from inside the simulation and only reads. A mark made with
   [~setup_only] ends the workload there by raising [Set_up]. *)
type mark = {
  start_cpu : float;
  setup_only : bool;
  mutable setup_s : float;
  mutable at_cpu : float;
  mutable at_alloc : float;
  mutable at : counters option;
}

exception Set_up of float

let mark ?(setup_only = false) () =
  { start_cpu = cpu (); setup_only; setup_s = nan; at_cpu = nan; at_alloc = nan; at = None }

let set_mark mk m =
  mk.setup_s <- cpu () -. mk.start_cpu;
  if mk.setup_only then raise (Set_up mk.setup_s);
  mk.at <- Some (snapshot m);
  mk.at_alloc <- allocated ();
  mk.at_cpu <- cpu ()

(* Host seconds [f] spends in set-up, [f] being a workload run with a
   [~setup_only] mark. *)
let setup_time f =
  match f () with
  | _ -> failwith "workload finished without reaching its set-up mark"
  | exception (Set_up s | Flipc_sim.Engine.Process_failure (_, Set_up s)) -> s

(* {1 One repetition of a workload} *)

type rep = {
  virt : (string * float) list;
      (** virtual end-to-end metrics; identical for every rep of a seed *)
  msgs : int;  (** messages delivered *)
  attempted : int;
  failed : int;
  run_s : float;  (** host CPU: first message until the run drains *)
  alloc_bytes : float;  (** bytes allocated by the run phase *)
  layer : counters;  (** counter deltas over the run phase *)
  path : (float * float * float) option;
      (** per-message stage p50s (send, wire, recv) in us, when the
          stamps paired exactly *)
  spans : (string * float * string) list;
      (** traced-only span metrics: name, value, unit *)
  checks : (string * bool) list;  (** output checks made on this rep *)
}

(* Close a rep: host time and counters since [mk], plus the latency
   stages the machine stamped. *)
let finish mk m ~virt ~msgs ~attempted ~failed ~spans =
  let run_s = cpu () -. mk.at_cpu in
  let alloc_bytes = allocated () -. mk.at_alloc in
  let start = match mk.at with Some s -> s | None -> failwith "no set-up mark" in
  let lat = Flipc_obs.Obs.latency (Machine.obs m) in
  let p50 st =
    match Flipc_obs.Latency.stage_summary lat st with
    | Some s -> s.Flipc_stats.Summary.p50
    | None -> 0.
  in
  (* Stamps pair up in FIFO order per endpoint, which faults break;
     report the stages only when every stamp found its partner. *)
  let path =
    if
      Flipc_obs.Latency.stage_count lat Flipc_obs.Latency.Total_stage = 0
      || Flipc_obs.Latency.unmatched lat > 0
    then None
    else
      Some
        Flipc_obs.Latency.(p50 Send_stage, p50 Wire_stage, p50 Recv_stage)
  in
  {
    virt;
    msgs;
    attempted;
    failed;
    run_s;
    alloc_bytes;
    layer = diff start (snapshot m);
    path;
    spans;
    checks = [];
  }

(* Stage sums must equal the stamped end-to-end total: each message's
   stage deltas add up to its latency by construction. *)
let path_sums_to_total m =
  let lat = Flipc_obs.Obs.latency (Machine.obs m) in
  let open Flipc_obs.Latency in
  let parts =
    stage_sum_us lat Send_stage +. stage_sum_us lat Wire_stage
    +. stage_sum_us lat Recv_stage
  in
  let total = stage_sum_us lat Total_stage in
  total > 0. && Float.abs (parts -. total) <= 1e-9 *. total

(* {1 Per-layer metrics from one traced rep} *)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let layer_metrics (r : rep) =
  let c = r.layer and m = r.msgs in
  let pm a = ratio a m in
  let send, wire, recv = Option.value r.path ~default:(0., 0., 0.) in
  [
    ("sim.steps_per_msg", pm c.steps, "count");
    ( "sim.host_ns_per_step",
      (if c.steps = 0 then 0. else r.run_s *. 1e9 /. float_of_int c.steps),
      "ns" );
    ( "sim.alloc_bytes_per_step",
      (if c.steps = 0 then 0. else r.alloc_bytes /. float_of_int c.steps),
      "B" );
    ("memsim.loads_per_msg", pm c.loads, "count");
    ("memsim.stores_per_msg", pm c.stores, "count");
    ("memsim.miss_ratio", ratio c.misses (c.hits + c.misses), "ratio");
    ("memsim.invalidations_per_msg", pm c.invalidations, "count");
    ("memsim.locked_rmws_per_msg", pm c.locked_rmws, "count");
    ("engine.iterations_per_msg", pm c.iterations, "count");
    ("engine.doorbell_hit_ratio", ratio c.doorbell_hits c.iterations, "ratio");
    ("engine.parks_per_msg", pm c.parks, "count");
    ("engine.rx_truncations", float_of_int c.rx_truncations, "count");
    ("engine.drops", float_of_int c.engine_drops, "count");
    ("path.send_us_p50", send, "us");
    ("path.wire_us_p50", wire, "us");
    ("path.recv_us_p50", recv, "us");
    ("net.packets_per_msg", pm c.packets, "count");
    ("net.wire_ns_per_packet", ratio c.wire_ns c.packets, "ns");
    ("net.dma_bytes_per_msg", pm c.dma_bytes, "B");
    ("net.faults_per_packet", ratio c.faults c.packets, "ratio");
  ]

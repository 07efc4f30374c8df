(* firehose: open loop through {!Flipc_workload.Firehose.run}. Two
   senders send to two receivers on a 4x1 mesh with Poisson arrivals
   and a 32 B payload, on the default singleton path (9-slot rings, no
   batching). Many messages are in flight across four engines, so
   queueing, doorbell scheduling and mesh contention show, and latency
   rises before delivery caps.

   Latency is the sojourn (scheduled arrival to receiver drain) at a
   reference rate of 100k msg/s aggregate. The knee is the highest
   aggregate offered rate that meets the latency limit: p99 sojourn at
   most 100 us, counting every shed or dropped message as a miss, and
   no growing backlog, i.e. the generator's backlog drains within the
   same 100 us after the window closes. It is found by bisection on a
   log scale between 50k and 400k msg/s to 2% resolution. *)

module Machine = Flipc.Machine
module Config = Flipc.Config
module Firehose = Flipc_workload.Firehose
module Arrivals = Flipc_workload.Arrivals
module Sketch = Flipc_obs.Sketch

let senders = 2
let receivers = 2
let payload_bytes = 32
let window_us = 100_000
let knee_window_us = 100_000
let reference_rate = 100_000.
let limit_us = 100.
let knee_lo = 50_000.
let knee_hi = 400_000.
let resolution = 1.02

type probe = { res : Firehose.result; rep : Measure.rep; drain_us : float; rate : float }

(* One open-loop run at an aggregate offered [rate]. *)
let probe ?setup_only ?(window_us = window_us) ?(monitor = false) ~seed ~trace rate =
  let mk = Measure.mark ?setup_only () in
  let machine =
    Machine.create ~config:Config.default
      (Machine.Mesh { cols = senders + receivers; rows = 1 })
      ()
  in
  let started = ref 0 in
  let gap_ns = int_of_float (Float.round (float_of_int senders *. 1e9 /. rate)) in
  (* [Firehose.run] asks for a stream's arrival process once its
     endpoints are attached, right before the first arrival. *)
  let arrivals k =
    incr started;
    if !started = senders then Measure.set_mark mk machine;
    Arrivals.poisson ~mean_ns:gap_ns ~seed:(seed + (7919 * k))
  in
  let res =
    Firehose.run ~machine ~senders ~receivers ~duration_us:window_us ~arrivals
      ~payload_bytes ~monitor ()
  in
  let lat, sketch_ok = Measure.latency_of_sketch res.Firehose.sojourn_us in
  let drain_us = Float.max 0. (res.Firehose.elapsed_us -. float_of_int window_us) in
  let failed = res.Firehose.shed + res.Firehose.rx_drops in
  let spans = if trace then [ ("gen.drain_us", drain_us, "us") ] else [] in
  let rep =
    Measure.finish mk machine
      ~virt:
        [
          ("latency_p50_us", lat.Measure.p50);
          ("latency_p99_us", lat.Measure.tail);
          ("latency_samples", float_of_int lat.Measure.n);
          ("goodput_msgs_per_s", res.Firehose.delivered_per_sec);
          ("offered", float_of_int res.Firehose.offered);
          ("sojourn_sum_us", Sketch.sum res.Firehose.sojourn_us);
        ]
      ~msgs:res.Firehose.delivered ~attempted:res.Firehose.offered ~failed
      ~spans
  in
  let accounted =
    res.Firehose.sent = res.Firehose.delivered + res.Firehose.rx_drops
  in
  let rep =
    {
      rep with
      Measure.checks =
        [
          ("firehose.sent_eq_delivered_plus_drops", accounted);
          ("firehose.sketch_rebuild_matches_sketch", sketch_ok);
        ];
    }
  in
  { res; rep; drain_us; rate = float_of_int senders *. 1e9 /. float_of_int gap_ns }

(* The p99 sojourn over every offered message, shed and dropped ones
   counted as infinitely late. *)
let p99_all p =
  let r = p.res in
  let delivered, _ = Measure.sketch_samples r.Firehose.sojourn_us in
  let misses = r.Firehose.offered - Array.length delivered in
  Measure.quantile_sorted
    (Array.append delivered (Array.make (max 0 misses) infinity))
    0.99

(* Meets the limit: that p99 is within [limit_us], and the backlog
   cleared within [limit_us] of the window closing. *)
let meets_limit p = p99_all p <= limit_us && p.drain_us <= limit_us

(* At the reference rate nothing may be shed or dropped: its latency
   figures are over delivered messages only. *)
let rep ?setup_only ?window_us ~seed ~trace () =
  let r = (probe ?setup_only ?window_us ~seed ~trace reference_rate).rep in
  {
    r with
    Measure.checks =
      r.Measure.checks @ [ ("firehose.nothing_shed_or_dropped", r.Measure.failed = 0) ];
  }

(* The knee and every probe tried, as (offered rate, p99 sojourn over
   all offered, drain, met the limit). *)
let knee ~seed =
  let probes = ref [] in
  let try_rate rate =
    let p = probe ~window_us:knee_window_us ~seed ~trace:false rate in
    let ok = meets_limit p in
    probes := (p.rate, p99_all p, p.drain_us, ok) :: !probes;
    (ok, p.rate)
  in
  let k =
    match try_rate knee_lo with
    | false, r -> r
    | true, lo_rate -> (
        match try_rate knee_hi with
        | true, r -> r
        | false, _ ->
            let lo = ref knee_lo and hi = ref knee_hi and best = ref lo_rate in
            while !hi /. !lo > resolution do
              let mid = sqrt (!lo *. !hi) in
              match try_rate mid with
              | true, r ->
                  lo := mid;
                  best := r
              | false, _ -> hi := mid
            done;
            !best)
  in
  (k, List.rev !probes)

(* The online invariant monitor must see no violation at the reference
   rate, and attaching it must not move the virtual timeline. *)
let check ~seed ~(first : Measure.rep) =
  let p = probe ~monitor:true ~seed ~trace:false reference_rate in
  [
    ("firehose.monitor_clean", p.res.Firehose.violations = 0);
    ("firehose.monitor_leaves_timeline_unchanged", p.rep.Measure.virt = first.Measure.virt);
  ]

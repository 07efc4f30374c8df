(* stack-lossy: exactly-once delivery over a faulty fabric, through the
   transport stack [Retrans_layer over Channel_transport], each wrapped
   in the timing shim. Four nodes on a 2x2 mesh; node i streams verified
   payloads to node (i+2) mod 4, so every node sends and receives. Frame
   checksums are on and every link carries loss, duplication,
   reordering, corruption and Gilbert-Elliott burst loss, seeded from
   the benchmark seed. Senders are unpaced and block only on the
   retransmission window.

   This is the only workload through the flow layer, the fault injector
   and the checksum path; acknowledgements, retransmissions and the
   stack's poll loops load the engines very differently from the other
   two. Receivers check every payload against the sender's pattern and
   require in-order, exactly-once delivery. *)

module Sim = Flipc_sim.Engine
module Mailbox = Flipc_sim.Sync.Mailbox
module Machine = Flipc.Machine
module Config = Flipc.Config
module Faulty = Flipc_net.Faulty
module CT = Flipc_flow.Channel_transport
module CS = Shim.Make (CT)
module R = Flipc_flow.Retrans_layer.Make (CS)
module RS = Shim.Make (R)

let nodes = 4
let messages = 8000
let payload_bytes = 32

(* Retransmission timeout as [flipc stack] runs it (the Stackflow
   default), not the library's 1 ms: each loss stalls a flow for an RTO
   of polling, so at 1 ms a run that fits the time budget sees too few
   loss events for its figures to settle. *)
let rto_ns = 200_000

let retrans_config =
  {
    Flipc_flow.Retrans_layer.default_config with
    Flipc_flow.Retrans_layer.rto_ns;
    max_rto_ns = 8 * rto_ns;
  }

(* Per-call virtual deadline, and how long a finished side lingers for
   its peer: both far above the retransmission layer's give-up time, so
   they only bound a stack that has stopped making progress. *)
let op_budget_ns = 500_000_000
let linger_ns = 500_000_000

(* The fabric-wide faults of [flipc stack]'s [combined] scenario. That
   scenario also overrides link 0->2 with ~30% loss; it is left out
   here because the p99 then hinges on how many of that one flow's
   frames are lost three times running, a handful of events per run,
   and swings by half from seed to seed. *)
let faults ~seed =
  Faulty.config ~drop:0.03 ~duplicate:0.02 ~reorder:0.1 ~reorder_hold_ns:100_000
    ~corrupt:0.03
    ~burst:(Faulty.burst ~p_good_bad:0.03 ~p_bad_good:0.3 ~drop_bad:0.4 ())
    ~seed ()

let payload_of ~flow ~idx =
  Bytes.init payload_bytes (fun j ->
      Char.chr (((flow * 131) + (idx * 31) + j) land 0xff))

let terr what = function
  | Ok v -> v
  | Error e ->
      failwith
        (Printf.sprintf "stack-lossy %s: %s" what
           (Flipc_flow.Transport.error_to_string e))

let rep ?setup_only ?(messages = messages) ~seed ~trace () =
  let mk = Measure.mark ?setup_only () in
  let config =
    {
      (Flipc_flow.Provision.config_for ~base:Config.default ~buffers:16) with
      Config.frame_checksum = true;
    }
  in
  let machine =
    Machine.create ~config ~fault:(faults ~seed)
      (Machine.Mesh { cols = 2; rows = 2 })
      ()
  in
  let attached = ref 0 in
  let attach () =
    incr attached;
    if !attached = 2 * nodes then Measure.set_mark mk machine
  in
  let outer = Shim.recorder ~on:trace () and inner = Shim.recorder ~on:trace () in
  let latencies = ref [] in
  let verified = ref 0 and bad = ref 0 and extra = ref 0 and errors = ref 0 in
  let retransmits = ref 0 and drops = ref 0 and corrupt = ref 0 in
  let first_send = ref max_int and last_delivery = ref 0 in
  let connect api ~mine ~theirs =
    let base = terr "create" (CT.create api ~pool:4 ~depth:8 ()) in
    Mailbox.put mine (CT.address base);
    terr "connect" (CT.connect base (Mailbox.take theirs));
    let link = Shim.link () in
    let conn =
      RS.wrap ~down:link outer
        (R.create (CS.wrap ~up:link inner base) ~config:retrans_config ())
    in
    attach ();
    (base, conn)
  in
  for flow = 0 to nodes - 1 do
    let src = flow and dst = (flow + (nodes / 2)) mod nodes in
    let src_addr = Mailbox.create () and dst_addr = Mailbox.create () in
    let sent_at = Array.make (messages + 1) 0 in
    let rx_done = ref false and tx_done = ref false in
    Machine.spawn_app ~name:(Printf.sprintf "stack-%d-rx" flow) ~cpu:1 machine
      ~node:dst (fun api ->
        let base, conn = connect api ~mine:dst_addr ~theirs:src_addr in
        let got = ref 0 in
        while !got < messages do
          match RS.recv_deadline conn ~deadline:(RS.now conn + op_budget_ns) with
          | Ok p ->
              incr got;
              let now = RS.now conn in
              if Bytes.equal p (payload_of ~flow ~idx:!got) then begin
                incr verified;
                last_delivery := max !last_delivery now;
                latencies :=
                  (float_of_int (now - sent_at.(!got)) /. 1000.) :: !latencies
              end
              else incr bad
          | Error _ ->
              incr errors;
              got := messages
        done;
        rx_done := true;
        (* Linger so a lost final ack cannot strand the sender; anything
           delivered now is a duplicate. *)
        let until = RS.now conn + linger_ns in
        while (not !tx_done) && RS.now conn < until do
          (match RS.recv conn with
          | Ok (Some _) -> incr extra
          | Ok None -> ()
          | Error _ -> tx_done := true);
          RS.idle conn
        done;
        drops := !drops + CT.drops base;
        corrupt := !corrupt + CT.corrupt_frames base);
    Machine.spawn_app ~name:(Printf.sprintf "stack-%d-tx" flow) ~cpu:0 machine
      ~node:src (fun api ->
        let base, conn = connect api ~mine:src_addr ~theirs:dst_addr in
        (try
           for i = 1 to messages do
             let now = RS.now conn in
             sent_at.(i) <- now;
             first_send := min !first_send now;
             match
               RS.send conn ~deadline:(now + op_budget_ns) (payload_of ~flow ~idx:i)
             with
             | Ok () -> ()
             | Error _ ->
                 incr errors;
                 raise Exit
           done
         with Exit -> ());
        let until = RS.now conn + linger_ns in
        while (not !rx_done) && RS.now conn < until do
          (match RS.pump conn with Ok () -> () | Error _ -> rx_done := true);
          RS.idle conn
        done;
        tx_done := true;
        retransmits := !retransmits + R.retransmits (RS.base conn);
        drops := !drops + CT.drops base;
        corrupt := !corrupt + CT.corrupt_frames base)
  done;
  (* Known library defect: [Msg_engine.deliver] decodes the destination
     word of an arriving frame before the checksum check discards it, so
     a bit flip in that word's top bits raises in the NIC callback. The
     frame is then lost before it reaches the engine, as a discarded
     corrupt frame would be, and the run resumes; each occurrence is
     counted and reported as [net.corrupt_header_crashes]. Any other
     process failure aborts the benchmark. *)
  let header_crashes = ref 0 in
  let rec run () =
    match Machine.run machine with
    | () -> ()
    | exception Sim.Process_failure ("nic-callback", Invalid_argument msg)
      when msg = "Address.of_word: out of range" ->
        incr header_crashes;
        run ()
  in
  run ();
  Machine.stop_engines machine;
  run ();
  let expected = nodes * messages in
  let lat = Measure.latency_of_samples !latencies in
  let goodput =
    float_of_int !verified /. (float_of_int (!last_delivery - !first_send) /. 1e9)
  in
  let per_msg x = float_of_int x /. float_of_int expected in
  let spans =
    if not trace then []
    else
      let q p l = Measure.quantile (List.map float_of_int l) p in
      let data_frames = expected + !retransmits in
      [
        ("flow.retrans.send_vns_p50", q 0.5 outer.Shim.send_ns, "ns");
        ("flow.retrans.send_vns_p99", q 0.99 outer.Shim.send_ns, "ns");
        ("flow.retrans.self_vns_p50", q 0.5 outer.Shim.self_ns, "ns");
        ("flow.retrans.retransmits_per_msg", per_msg !retransmits, "count");
        ( "flow.retrans.useful_frame_ratio",
          float_of_int expected /. float_of_int data_frames,
          "ratio" );
        ( "flow.retrans.acks_per_msg",
          per_msg (inner.Shim.frames - data_frames),
          "count" );
        ( "flow.channel.no_buffer_ratio",
          Measure.ratio inner.Shim.no_buffer inner.Shim.try_sends,
          "ratio" );
        ("flow.channel.drops", float_of_int !drops, "count");
        ("flow.channel.corrupt_frames", float_of_int !corrupt, "count");
        ("net.corrupt_header_crashes", float_of_int !header_crashes, "count");
      ]
  in
  let failed = expected - !verified + !bad + !extra in
  let r =
    Measure.finish mk machine
      ~virt:
        [
          ("latency_p50_us", lat.Measure.p50);
          ("latency_p99_us", lat.Measure.tail);
          ("latency_samples", float_of_int lat.Measure.n);
          ("goodput_msgs_per_s", goodput);
          ("retransmits", float_of_int !retransmits);
          ("corrupt_header_crashes", float_of_int !header_crashes);
        ]
      ~msgs:!verified ~attempted:expected ~failed ~spans
  in
  {
    r with
    Measure.checks =
      [
        ( "stack-lossy.exactly_once_in_order_verified",
          !verified = expected && !bad = 0 && !extra = 0 && !errors = 0 );
      ];
  }

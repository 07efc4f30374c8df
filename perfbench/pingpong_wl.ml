(* pingpong: the paper's headline path. A closed loop with one request
   outstanding sends a 120 B payload (128 B message) from node 0 to
   node 1 of the default 4x4 mesh and back, with the default config.
   One message is in flight at a time, so the per-message cost of the
   simulator and memory model and the engines' polling dominate; the
   flow layer, batching and fabric contention are bypassed.

   The exchange loop is {!Flipc_workload.Pingpong.run}'s, driven here so
   the benchmark can time each [Api] call and mark the end of set-up.
   Latency is the paper's: half of each exchange's round trip. The seed
   draws a think time of 0-1199 ns before each exchange, the
   application's work between events, which moves each send to a
   different phase of the engines' ~600 ns poll loop. Without think
   time the loop reproduces [Pingpong.run] exactly, which {!check}
   verifies. *)

module Sim = Flipc_sim.Engine
module Prng = Flipc_sim.Prng
module Mailbox = Flipc_sim.Sync.Mailbox
module Mem_port = Flipc_memsim.Mem_port
module Machine = Flipc.Machine
module Api = Flipc.Api
module Config = Flipc.Config
module Endpoint_kind = Flipc.Endpoint_kind

let payload_bytes = 120
let exchanges = 2000
let warmup = 2
let recv_depth = 4
let think_max_ns = 1200

let ok = function
  | Ok v -> v
  | Error e -> failwith ("pingpong: " ^ Api.error_to_string e)

type outcome = {
  rep : Measure.rep;
  aggregate_one_way_us : float;  (** total / (2 * exchanges), the paper's metric *)
  path_ok : bool;
}

(* [think] is [None] for the plain paper loop. *)
let drive ?setup_only ~think ~trace ~exchanges () =
  let mk = Measure.mark ?setup_only () in
  let config = Config.for_payload Config.default payload_bytes in
  let machine = Machine.create ~config (Machine.Mesh { cols = 4; rows = 4 }) () in
  let sim = Machine.sim machine in
  let addr_of_a = Mailbox.create () and addr_of_b = Mailbox.create () in
  let rounds = warmup + exchanges in
  let rtts = ref [] and total_ns = ref 0 and drops = ref 0 in
  let first_t0 = ref 0 and last_t1 = ref 0 in
  let send_ns = ref [] and recv_ns = ref [] and empty_polls = ref 0 in
  let send api ep buf =
    if not trace then Api.send api ep buf
    else begin
      let t0 = Sim.now sim in
      let r = Api.send api ep buf in
      send_ns := (Sim.now sim - t0) :: !send_ns;
      r
    end
  in
  let receive api ep =
    if not trace then Api.receive api ep
    else begin
      let t0 = Sim.now sim in
      let r = Api.receive api ep in
      (match r with
      | Some _ -> recv_ns := (Sim.now sim - t0) :: !recv_ns
      | None -> incr empty_polls);
      r
    end
  in
  let poll_receive api ep =
    let rec loop () =
      match receive api ep with
      | Some buf -> buf
      | None ->
          Mem_port.instr (Api.port api) 5;
          loop ()
    in
    loop ()
  in
  let poll_reclaim api ep =
    let rec loop () =
      match Api.reclaim api ep with
      | Some buf -> buf
      | None ->
          Mem_port.instr (Api.port api) 5;
          loop ()
    in
    loop ()
  in
  let endpoints api =
    let recv_ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
    let send_ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
    (recv_ep, send_ep)
  in
  let post api recv_ep =
    let bufs = List.init recv_depth (fun _ -> ok (Api.allocate_buffer api)) in
    List.iter (fun b -> ok (Api.post_receive api recv_ep b)) bufs
  in
  Machine.spawn_app ~name:"pp-echo" machine ~node:1 (fun api ->
      let recv_ep, send_ep = endpoints api in
      Mailbox.put addr_of_b (Api.address api recv_ep);
      Api.connect api send_ep (Mailbox.take addr_of_a);
      post api recv_ep;
      let reply_buf = ok (Api.allocate_buffer api) in
      for _ = 1 to rounds do
        let got = poll_receive api recv_ep in
        ok (Api.post_receive api recv_ep got);
        ok (send api send_ep reply_buf);
        ignore (poll_reclaim api send_ep : Api.buffer)
      done;
      drops := !drops + Api.drops_read_and_reset api recv_ep);
  Machine.spawn_app ~name:"pp-client" machine ~node:0 (fun api ->
      let recv_ep, send_ep = endpoints api in
      Mailbox.put addr_of_a (Api.address api recv_ep);
      Api.connect api send_ep (Mailbox.take addr_of_b);
      post api recv_ep;
      let msg_buf = ok (Api.allocate_buffer api) in
      Api.write_payload api msg_buf (Bytes.make payload_bytes 'm');
      Measure.set_mark mk machine;
      for round = 1 to rounds do
        (match think with
        | Some prng -> Sim.delay (Prng.int prng think_max_ns)
        | None -> ());
        let t0 = Sim.now sim in
        ok (send api send_ep msg_buf);
        let got = poll_receive api recv_ep in
        ok (Api.post_receive api recv_ep got);
        ignore (poll_reclaim api send_ep : Api.buffer);
        let t1 = Sim.now sim in
        if round > warmup then begin
          if !first_t0 = 0 then first_t0 := t0;
          last_t1 := t1;
          rtts := (t1 - t0) :: !rtts;
          total_ns := !total_ns + (t1 - t0)
        end
      done;
      drops := !drops + Api.drops_read_and_reset api recv_ep);
  Machine.run machine;
  Machine.stop_engines machine;
  Machine.run machine;
  let lat =
    Measure.latency_of_samples
      (List.map (fun r -> float_of_int r /. 2000.) !rtts)
  in
  let goodput =
    float_of_int (2 * exchanges) /. (float_of_int (!last_t1 - !first_t0) /. 1e9)
  in
  (* The run phase, and so every per-message count, includes warm-up. *)
  let msgs = 2 * rounds in
  let spans =
    if not trace then []
    else
      let p50 l = Measure.median (List.map float_of_int l) in
      [
        ("api.send_vns_p50", p50 !send_ns, "ns");
        ("api.receive_vns_p50", p50 !recv_ns, "ns");
        ( "api.empty_polls_per_msg",
          float_of_int !empty_polls /. float_of_int msgs,
          "count" );
      ]
  in
  let rep =
    Measure.finish mk machine
      ~virt:
        [
          ("latency_p50_us", lat.Measure.p50);
          ("latency_p99_us", lat.Measure.tail);
          ("latency_samples", float_of_int lat.Measure.n);
          ("goodput_msgs_per_s", goodput);
        ]
      ~msgs ~attempted:msgs ~failed:!drops ~spans
  in
  {
    rep;
    aggregate_one_way_us =
      float_of_int !total_ns /. 1000. /. (2. *. float_of_int exchanges);
    path_ok = Measure.path_sums_to_total machine;
  }

let rep ?setup_only ?(exchanges = exchanges) ~seed ~trace () =
  let o = drive ?setup_only ~think:(Some (Prng.create ~seed)) ~trace ~exchanges () in
  {
    o.rep with
    Measure.checks =
      [
        ("pingpong.path_stages_sum_to_total", o.path_ok);
        ("pingpong.no_receive_drops", o.rep.Measure.failed = 0);
      ];
  }

(* Without think time the loop must time exactly what
   [Pingpong.measure] does on the same machine and exchange count. *)
let check () =
  let exchanges = 200 in
  let mine = drive ~think:None ~trace:false ~exchanges () in
  let lib =
    Flipc_workload.Pingpong.measure ~payload_bytes ~exchanges ~warmup ()
  in
  [
    ( "pingpong.loop_matches_Pingpong.measure",
      mine.aggregate_one_way_us
      = lib.Flipc_workload.Pingpong.aggregate_one_way_us );
  ]

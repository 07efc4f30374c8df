(* Tests for flow control: static provisioning math and the credit-window
   layer (Window_layer over Channel_transport). *)

module Sim = Flipc_sim.Engine
module Mailbox = Flipc_sim.Sync.Mailbox
module Mem_port = Flipc_memsim.Mem_port
module Config = Flipc.Config
module Api = Flipc.Api
module Machine = Flipc.Machine
module Endpoint_kind = Flipc.Endpoint_kind
module Provision = Flipc_flow.Provision
module CT = Flipc_flow.Channel_transport
module WL = Flipc_flow.Window_layer.Make (CT)
module Monitor = Flipc_obs.Monitor

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Api.error_to_string e)

(* --- Provision --- *)

let test_rpc_rule () =
  check "clients x outstanding" 12
    (Provision.rpc_buffers ~clients:4 ~outstanding_per_client:3);
  check "zero clients" 0 (Provision.rpc_buffers ~clients:0 ~outstanding_per_client:5)

let test_periodic_rule () =
  check "double buffering" 20
    (Provision.periodic_buffers ~senders:2 ~messages_per_period:5)

let test_queue_capacity_rule () =
  check "one-slot-empty ring" 9 (Provision.queue_capacity_for ~buffers:8);
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Provision.queue_capacity_for: < 1") (fun () ->
      ignore (Provision.queue_capacity_for ~buffers:0))

let test_config_for () =
  let c = Provision.config_for ~base:Config.default ~buffers:20 in
  check_bool "queue grows" true (c.Config.queue_capacity >= 21);
  check_bool "pool grows" true (c.Config.total_buffers >= 40);
  (* A small requirement leaves the base config untouched. *)
  let c2 = Provision.config_for ~base:Config.default ~buffers:2 in
  check "unchanged queue" Config.default.Config.queue_capacity
    c2.Config.queue_capacity

(* --- Window --- *)

let terr = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Flipc_flow.Transport.error_to_string e)

let deadline conn = WL.now conn + Flipc_sim.Vtime.ms 50

(* One windowed connection from node 0 to node 1: [on_receiver] and
   [on_sender] get the tapped connection and its base. The base's
   posted receive depth covers the window, so a receiver that never
   pumps while consuming still cannot overrun it. *)
let windowed_pair ?grant_every machine ~window ~on_receiver ~on_sender =
  let a_addr = Mailbox.create () and b_addr = Mailbox.create () in
  let connect api ~mine ~theirs =
    let base = terr (CT.create api ~depth:(window + 2) ()) in
    Mailbox.put mine (CT.address base);
    terr (CT.connect base (Mailbox.take theirs));
    (WL.create base ?tap:(CT.tap base) ~window ?grant_every (), base)
  in
  Machine.spawn_app machine ~node:1 (fun api ->
      on_receiver api (connect api ~mine:b_addr ~theirs:a_addr));
  Machine.spawn_app machine ~node:0 (fun api ->
      on_sender api (connect api ~mine:a_addr ~theirs:b_addr))

let finish machine =
  Machine.run machine;
  Machine.stop_engines machine;
  Machine.run machine

(* Full producer/consumer scenario. Without flow control the producer's
   burst would overrun the consumer's posted buffers and drop; with the
   window it must deliver everything. [consume api i] models the
   consumer's work on message [i]. *)
let run_windowed ~window ~messages ~consume =
  let config = Provision.config_for ~base:Config.default ~buffers:(window + 4) in
  let machine = Machine.create ~config (Machine.Mesh { cols = 2; rows = 1 }) () in
  let mon = Machine.attach_monitor machine in
  let delivered = ref 0 and drops = ref 0 in
  let sender_credits_exhausted = ref false in
  windowed_pair machine ~window
    ~on_receiver:(fun api (conn, base) ->
      while !delivered < messages do
        match terr (WL.recv conn) with
        | Some _ ->
            incr delivered;
            consume api !delivered
        | None -> WL.idle conn
      done;
      drops := CT.drops base)
    ~on_sender:(fun _ (conn, _) ->
      for i = 1 to messages do
        ignore (terr (WL.pump conn));
        if WL.credits_available conn = 0 then sender_credits_exhausted := true;
        terr (WL.send conn ~deadline:(deadline conn) (Bytes.make 8 (Char.chr i)))
      done);
  finish machine;
  (!delivered, !drops, !sender_credits_exhausted, mon)

let slow_consumer delay_ns api _ = Mem_port.instr (Api.port api) (delay_ns / 20)

let test_window_no_drops_under_overload () =
  let delivered, drops, exhausted, _ =
    run_windowed ~window:4 ~messages:60 ~consume:(slow_consumer 60_000)
  in
  check "all delivered" 60 delivered;
  check "zero drops" 0 drops;
  check_bool "window actually throttled" true exhausted

let test_window_fast_consumer () =
  let delivered, drops, _, _ =
    run_windowed ~window:4 ~messages:40 ~consume:(fun _ _ -> ())
  in
  check "all delivered" 40 delivered;
  check "zero drops" 0 drops

(* Contrast: the same overload without flow control does drop. *)
let test_unwindowed_overload_drops () =
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let data_addr = Mailbox.create () in
  let drops = ref 0 and delivered = ref 0 in
  let total = 60 in
  Machine.spawn_app machine ~node:1 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      for _ = 1 to 2 do
        ok (Api.post_receive api ep (ok (Api.allocate_buffer api)))
      done;
      Mailbox.put data_addr (Api.address api ep);
      let deadline = Sim.now (Machine.sim machine) + Flipc_sim.Vtime.ms 20 in
      while Sim.now (Machine.sim machine) < deadline do
        (match Api.receive api ep with
        | Some buf ->
            incr delivered;
            Mem_port.instr (Api.port api) 3_000;
            ok (Api.post_receive api ep buf)
        | None -> Mem_port.instr (Api.port api) 10);
        drops := !drops + Api.drops_read_and_reset api ep
      done);
  Machine.spawn_app machine ~node:0 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api ep (Mailbox.take data_addr);
      let buf = ok (Api.allocate_buffer api) in
      for _ = 1 to total do
        ok (Api.send api ep buf);
        let rec reclaim () =
          match Api.reclaim api ep with
          | Some _ -> ()
          | None ->
              Mem_port.instr (Api.port api) 5;
              reclaim ()
        in
        reclaim ()
      done);
  Machine.run machine;
  Machine.stop_engines machine;
  Machine.run machine;
  check_bool "burst overruns without flow control" true (!drops > 0);
  check "accounting adds up" total (!delivered + !drops)

(* A receiver that never consumes: credits never return, so the third
   message is refused at once. *)
let test_try_send_respects_window () =
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let refused = ref false in
  windowed_pair machine ~window:2
    ~on_receiver:(fun _ _ -> ())
    ~on_sender:(fun _ (conn, _) ->
      check "initial credits" 2 (WL.credits_available conn);
      let b = Bytes.make 8 'x' in
      check_bool "1st" true (WL.try_send conn b = Ok ());
      check_bool "2nd" true (WL.try_send conn b = Ok ());
      refused := WL.try_send conn b = Error `No_buffer;
      check "sent" 2 (WL.messages_sent conn));
  finish machine;
  check_bool "3rd refused" true !refused

(* The blocking [send] gives up at its deadline when the peer never
   grants credit, where an unbounded wait would spin forever. *)
let test_window_send_timeout () =
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let outcome = ref None in
  windowed_pair machine ~window:2
    ~on_receiver:(fun _ _ -> ())
    ~on_sender:(fun _ (conn, _) ->
      let b = Bytes.make 8 'x' in
      check_bool "credit available: no timeout" true
        (WL.send conn ~deadline:(deadline conn) b = Ok ());
      check_bool "credit available: no timeout" true
        (WL.send conn ~deadline:(deadline conn) b = Ok ());
      outcome := Some (WL.send conn ~deadline:(deadline conn) b);
      check "only the window went out" 2 (WL.messages_sent conn));
  finish machine;
  check_bool "window exhausted: send times out" true
    (!outcome = Some (Error `Timeout))

(* Data and credit frames share the base connection, so the sender's
   posted receive depth must cover every grant that can be in flight at
   once. With [grant_every = 1] a fast consumer puts a full window of
   grants on the wire while the sender stalls; none may be discarded at
   the sender, and the next send absorbs them all. *)
let test_credit_buffers_cover_window () =
  let window = 12 in
  let messages = window + 1 in
  let config = Provision.config_for ~base:Config.default ~buffers:(window + 4) in
  let machine = Machine.create ~config (Machine.Mesh { cols = 2; rows = 1 }) () in
  let delivered = ref 0 in
  let credit_drops = ref (-1) and credits_after = ref (-1) in
  windowed_pair machine ~window ~grant_every:1
    ~on_receiver:(fun _ (conn, _) ->
      while !delivered < messages do
        match terr (WL.recv conn) with
        | Some _ -> incr delivered
        | None -> WL.idle conn
      done)
    ~on_sender:(fun _ (conn, base) ->
      (* Burn the whole window... *)
      for i = 1 to window do
        terr (WL.send conn ~deadline:(deadline conn) (Bytes.make 8 (Char.chr i)))
      done;
      (* ...stall while all [window] grants arrive... *)
      Sim.delay (Flipc_sim.Vtime.ms 2);
      (* ...then send once more, which first absorbs every grant. *)
      terr (WL.send conn ~deadline:(deadline conn) (Bytes.make 8 'z'));
      credit_drops := CT.drops base;
      credits_after := WL.credits_available conn);
  finish machine;
  check "all delivered" messages !delivered;
  check "no credit frame discarded" 0 !credit_drops;
  (* Every grant recovered: the window is fully reopened, minus the one
     message just sent and not yet consumed when the sender sampled. *)
  check "window fully recovered" (window - 1) !credits_after

(* The base under the receiver loses exactly one credit frame (tag 1) —
   the grant after the first two messages. The sender then holds a full
   window with no credit; only the next, cumulative grant can reopen
   it. *)
module Lose_first_grant = struct
  include CT

  let lost = ref false

  let try_send t b =
    if (not !lost) && Bytes.length b > 0 && Bytes.get b 0 = '\001' then begin
      lost := true;
      Ok ()
    end
    else CT.try_send t b
end

module WL_lossy = Flipc_flow.Window_layer.Make (Lose_first_grant)

let test_lost_grant_recovered () =
  let window = 4 and messages = 12 in
  let config = Provision.config_for ~base:Config.default ~buffers:(window + 4) in
  let machine = Machine.create ~config (Machine.Mesh { cols = 2; rows = 1 }) () in
  let a_addr = Mailbox.create () and b_addr = Mailbox.create () in
  let base api ~mine ~theirs =
    let base = terr (CT.create api ~depth:(window + 2) ()) in
    Mailbox.put mine (CT.address base);
    terr (CT.connect base (Mailbox.take theirs));
    base
  in
  let delivered = ref 0 and credits_after = ref (-1) in
  Lose_first_grant.lost := false;
  Machine.spawn_app machine ~node:1 (fun api ->
      let conn = WL_lossy.create (base api ~mine:b_addr ~theirs:a_addr) ~window () in
      while !delivered < messages do
        match terr (WL_lossy.recv conn) with
        | Some _ -> incr delivered
        | None -> WL_lossy.idle conn
      done);
  Machine.spawn_app machine ~node:0 (fun api ->
      let conn = WL.create (base api ~mine:a_addr ~theirs:b_addr) ~window () in
      for i = 1 to messages do
        terr (WL.send conn ~deadline:(deadline conn) (Bytes.make 8 (Char.chr i)))
      done;
      while WL.credits_available conn < window do
        ignore (terr (WL.pump conn));
        WL.idle conn
      done;
      credits_after := WL.credits_available conn);
  finish machine;
  check_bool "a grant was lost" true !Lose_first_grant.lost;
  check "all delivered" messages !delivered;
  check "window fully recovered" window !credits_after

(* Property: whatever the consumer's pacing, the window never lets the
   transport discard, and the sender never has more than [window]
   unconsumed messages out (the monitor's credit-conservation rule
   checks every send). *)
let window_never_drops_prop =
  QCheck.Test.make ~name:"window never drops under random pacing" ~count:12
    QCheck.(pair (int_range 1 6) (list_of_size Gen.(int_range 5 25) (int_bound 80)))
    (fun (window, delays) ->
      let messages = List.length delays in
      let delays = Array.of_list delays in
      let delivered, drops, _, mon =
        run_windowed ~window ~messages ~consume:(fun api i ->
            Mem_port.instr (Api.port api) (1 + (delays.(i - 1) * 50)))
      in
      let sends =
        Option.value (List.assoc_opt "window_send" (Monitor.event_counts mon)) ~default:0
      in
      delivered = messages && drops = 0 && sends = messages && Monitor.clean mon)

let () =
  Alcotest.run "flow"
    [
      ( "provision",
        [
          Alcotest.test_case "rpc rule" `Quick test_rpc_rule;
          Alcotest.test_case "periodic rule" `Quick test_periodic_rule;
          Alcotest.test_case "queue capacity" `Quick test_queue_capacity_rule;
          Alcotest.test_case "config_for" `Quick test_config_for;
        ] );
      ( "window",
        [
          Alcotest.test_case "no drops under overload" `Quick
            test_window_no_drops_under_overload;
          Alcotest.test_case "fast consumer" `Quick test_window_fast_consumer;
          Alcotest.test_case "unwindowed drops" `Quick
            test_unwindowed_overload_drops;
          Alcotest.test_case "try_send window" `Quick
            test_try_send_respects_window;
          Alcotest.test_case "credit buffers cover window" `Quick
            test_credit_buffers_cover_window;
          Alcotest.test_case "send_timeout" `Quick test_window_send_timeout;
          Alcotest.test_case "lost grant recovered" `Quick
            test_lost_grant_recovered;
          QCheck_alcotest.to_alcotest window_never_drops_prop;
        ] );
    ]

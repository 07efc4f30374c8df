module Sim = Flipc_sim.Engine
module Vtime = Flipc_sim.Vtime
module Mailbox = Flipc_sim.Sync.Mailbox
module Machine = Flipc.Machine
module Api = Flipc.Api
module Config = Flipc.Config
module Monitor = Flipc_obs.Monitor
module Faulty = Flipc_net.Faulty
module Transport = Flipc_flow.Transport
module CT = Flipc_flow.Channel_transport
module WL = Flipc_flow.Window_layer.Make (CT)
module RC = Flipc_flow.Retrans_layer.Make (CT)
module RW = Flipc_flow.Retrans_layer.Make (WL)

type stack =
  | Bare_channel
  | Window_over_channel
  | Retrans_over_channel
  | Retrans_over_window

let stack_name = function
  | Bare_channel -> "channel"
  | Window_over_channel -> "window/channel"
  | Retrans_over_channel -> "retrans/channel"
  | Retrans_over_window -> "retrans/window/channel"

type result = {
  flows : int;
  expected : int;
  delivered : int;
  retransmits : int;
  corrupt_leaks : int;
  transport_drops : int;
  corrupt_frames_dropped : int;
  faults : Faulty.stats option;
  failures : string list;
  stall_report : string option;
  watchdogs_expired : int;
  monitor_violations : int;
  clean : bool;
}

let scenarios = [ "clean"; "uniform"; "burst"; "corrupt"; "perlink"; "combined" ]

(* One directed bad link (node 0 toward its partner [half]): drops,
   bursts and corrupts while every other link stays clean. *)
let scenario_fault name ~seed ~hold ~half =
  let bad_link () =
    Faulty.config ~drop:0.15 ~corrupt:0.1
      ~burst:(Faulty.burst ~p_good_bad:0.05 ~p_bad_good:0.3 ~drop_bad:0.5 ())
      ~seed:(seed + 1) ()
  in
  let only_link_0 bad ~src ~dst =
    if src = 0 && dst = half then Some bad else None
  in
  match name with
  | "clean" -> (None, None)
  | "uniform" ->
      ( Some
          (Faulty.config ~drop:0.05 ~duplicate:0.02 ~reorder:0.15
             ~reorder_hold_ns:hold ~seed ()),
        None )
  | "burst" ->
      ( Some
          (Faulty.config
             ~burst:
               (Faulty.burst ~p_good_bad:0.05 ~p_bad_good:0.3 ~drop_bad:0.5 ())
             ~seed ()),
        None )
  | "corrupt" -> (Some (Faulty.config ~corrupt:0.08 ~seed ()), None)
  | "perlink" ->
      (Some (Faulty.config ~seed ()), Some (only_link_0 (bad_link ())))
  | "combined" ->
      ( Some
          (Faulty.config ~drop:0.03 ~duplicate:0.02 ~reorder:0.1
             ~reorder_hold_ns:hold ~corrupt:0.03
             ~burst:
               (Faulty.burst ~p_good_bad:0.03 ~p_bad_good:0.3 ~drop_bad:0.4 ())
             ~seed ()),
        Some (only_link_0 (bad_link ())) )
  | _ -> invalid_arg ("Stackflow.scenario_fault: unknown scenario " ^ name)

(* Frames the engines' checksum check discarded, machine-wide. *)
let corrupt_frames_dropped machine =
  let n = ref 0 in
  for i = 0 to Machine.node_count machine - 1 do
    let engine = Machine.msg_engine (Machine.node machine i) in
    let st = Flipc.Msg_engine.stats engine in
    n := !n + st.Flipc.Msg_engine.corrupt_frames
  done;
  !n

(* Verified payloads: deterministic per (flow, index) so the receiver
   needs no side channel to detect corruption or misordering. *)
let payload_of ~flow ~idx ~bytes =
  Bytes.init bytes (fun j -> Char.chr (((flow * 131) + (idx * 31) + j) land 0xff))

(* A transport error that ended a flow process: the runner reads it
   back out of the process failure. *)
exception Failed of Transport.error

let () =
  Printexc.register_printer (function
    | Failed e -> Some ("Stackflow: " ^ Transport.error_to_string e)
    | _ -> None)

let terr = function Ok v -> v | Error e -> raise (Failed e)

(* The base connection of one side of a flow: publish our receive
   address in [mine], connect to the one the peer publishes in
   [theirs]. *)
let channel api ~mine ~theirs =
  let base = terr (CT.create api ~pool:4 ~depth:8 ()) in
  Mailbox.put mine (CT.address base);
  terr (CT.connect base (Mailbox.take theirs));
  base

(* The generic flow driver: everything below is written once against
   {!Transport.S} and reused by every composition. [idle] is what a
   side burns after a poll that found nothing to do. The [rx_done] /
   [tx_done] flags are simulation-harness knowledge, not protocol: the
   sender keeps the protocol machine turning (retransmissions, acks)
   until the receiver attests it has everything, and the receiver
   lingers re-acknowledging duplicates until the sender has stood
   down — a dropped final ack must not strand either side. [tx_done]
   set while the receiver still waits means the sender died. *)
type shared = { mutable rx_done : bool; mutable tx_done : bool }

module Drive (T : Transport.S) = struct
  let tx conn ~idle ~wd ~stall ~messages ~payload ~pace_ns ~shared =
    Fun.protect
      ~finally:(fun () -> shared.tx_done <- true)
      (fun () ->
        for i = 1 to messages do
          let p = payload conn i in
          let rec push () =
            match T.try_send conn p with
            | Ok () -> Monitor.Watchdog.progress wd
            | Error `No_buffer ->
                if Monitor.Watchdog.expired wd then stall wd;
                idle conn;
                terr (T.pump conn);
                push ()
            | Error e -> raise (Failed e)
          in
          push ();
          if pace_ns > 0 then Sim.delay pace_ns
        done;
        while not shared.rx_done do
          terr (T.pump conn);
          if Monitor.Watchdog.expired wd then stall wd;
          idle conn
        done)

  let rx conn ~idle ~wd ~stall ~messages ~on_recv ~shared =
    let got = ref 0 in
    while !got < messages && not shared.tx_done do
      match T.recv conn with
      | Ok (Some p) ->
          Monitor.Watchdog.progress wd;
          incr got;
          on_recv !got p
      | Ok None ->
          if Monitor.Watchdog.expired wd then stall wd;
          idle conn
      | Error e -> raise (Failed e)
    done;
    shared.rx_done <- true;
    Monitor.Watchdog.progress wd;
    while (not shared.tx_done) && not (Monitor.Watchdog.expired wd) do
      (match T.recv conn with Ok _ -> () | Error _ -> shared.tx_done <- true);
      idle conn
    done
end

(* Run the machine dry, then stop the engines and drain it. A
   Process_failure kills exactly one process; keep running so the
   other flows finish. Returns the failures, oldest first. *)
let run_machine machine =
  let failures = ref [] in
  let rec go stopping =
    match
      if stopping then Machine.stop_engines machine;
      Machine.run machine
    with
    | () -> if not stopping then go true
    | exception Sim.Process_failure (who, exn) ->
        failures := (who, exn) :: !failures;
        go stopping
  in
  go false;
  List.rev !failures

let soak_config =
  {
    (Flipc_flow.Provision.config_for ~base:Config.default ~buffers:16) with
    Config.frame_checksum = true;
  }

let retrans_config rto_ns =
  {
    Flipc_flow.Retrans_layer.default_config with
    Flipc_flow.Retrans_layer.rto_ns;
    max_rto_ns = 8 * rto_ns;
  }

let run ?(stack = Retrans_over_channel) ?(config = soak_config) ?fault
    ?fault_links ?(rto_ns = 200_000) ?(pace_ns = 25_000) ?(budget = Vtime.ms 50) ?(window = 6)
    ?(payload_bytes = 32) ?flows ?(spawn = ignore) ~kind ~nodes ~messages () =
  let flows =
    match flows with
    | Some flows -> flows
    | None ->
        if nodes < 2 then invalid_arg "Stackflow: nodes < 2";
        if messages < 1 then invalid_arg "Stackflow: messages < 1";
        List.init nodes (fun i -> (i, (i + (nodes / 2)) mod nodes, messages))
  in
  let machine = Machine.create ~config ?fault ?fault_links kind () in
  let mon = Machine.attach_monitor machine in
  let sim = Machine.sim machine in
  let rcfg = retrans_config rto_ns in
  let delivered = ref 0
  and retransmits = ref 0
  and corrupt_leaks = ref 0
  and transport_drops = ref 0 in
  let stall_report = ref None in
  let stall wd =
    if !stall_report = None then
      stall_report :=
        Some (Monitor.Watchdog.report wd [ Machine.obs machine ]);
    failwith
      (Printf.sprintf "watchdog '%s' expired" (Monitor.Watchdog.name wd))
  in
  (* One driver per composition; the existential packs the wrapped
     connection type with its driver and retransmit counter so the
     per-flow wiring below stays stack-agnostic. *)
  let drive : type a.
      (module Transport.S with type t = a) ->
      wrap:(CT.t -> a) ->
      retrans_of:(a -> int) ->
      unit =
   fun (module T) ~wrap ~retrans_of ->
    let module D = Drive (T) in
    List.iteri
      (fun flow (src, dst, messages) ->
        let src_addr = Mailbox.create () and dst_addr = Mailbox.create () in
        let wname dir = Printf.sprintf "stack-%d-%s" flow dir in
        let shared = { rx_done = false; tx_done = false } in
        Machine.spawn_app ~name:(wname "rx") ~cpu:1 machine ~node:dst
          (fun api ->
            let base = channel api ~mine:dst_addr ~theirs:src_addr in
            let conn = wrap base in
            let wd =
              Monitor.Watchdog.create ~budget ~sim ~name:(wname "rx") ()
            in
            let bytes = min payload_bytes (T.capacity conn) in
            D.rx conn ~idle:T.idle ~wd ~stall ~messages ~shared
              ~on_recv:(fun idx p ->
                if not (Bytes.equal p (payload_of ~flow ~idx ~bytes)) then
                  incr corrupt_leaks;
                incr delivered);
            transport_drops := !transport_drops + CT.drops base);
        Machine.spawn_app ~name:(wname "tx") ~cpu:0 machine ~node:src
          (fun api ->
            let base = channel api ~mine:src_addr ~theirs:dst_addr in
            let conn = wrap base in
            let wd =
              Monitor.Watchdog.create ~budget ~sim ~name:(wname "tx") ()
            in
            let bytes = min payload_bytes (T.capacity conn) in
            Fun.protect
              ~finally:(fun () ->
                retransmits := !retransmits + retrans_of conn;
                transport_drops := !transport_drops + CT.drops base)
              (fun () ->
                D.tx conn ~idle:T.idle ~wd ~stall ~messages ~pace_ns ~shared
                  ~payload:(fun _ idx -> payload_of ~flow ~idx ~bytes))))
      flows
  in
  (match stack with
  | Bare_channel ->
      drive (module CT) ~wrap:(fun c -> c) ~retrans_of:(fun _ -> 0)
  | Window_over_channel ->
      drive
        (module WL)
        ~wrap:(fun c -> WL.create c ?tap:(CT.tap c) ~window ())
        ~retrans_of:(fun _ -> 0)
  | Retrans_over_channel ->
      drive
        (module RC)
        ~wrap:(fun c -> RC.create c ?tap:(CT.tap c) ~config:rcfg ())
        ~retrans_of:RC.retransmits
  | Retrans_over_window ->
      drive
        (module RW)
        ~wrap:(fun c ->
          let tap = CT.tap c in
          RW.create (WL.create c ?tap ~window ()) ?tap ~config:rcfg ())
        ~retrans_of:RW.retransmits);
  spawn machine;
  let failures = run_machine machine in
  let expected = List.fold_left (fun n (_, _, m) -> n + m) 0 flows in
  let violations = List.length (Monitor.violations mon) in
  let clean =
    Monitor.clean mon && failures = [] && !delivered = expected
    && !corrupt_leaks = 0
  in
  {
    flows = List.length flows;
    expected;
    delivered = !delivered;
    retransmits = !retransmits;
    corrupt_leaks = !corrupt_leaks;
    transport_drops = !transport_drops;
    corrupt_frames_dropped = corrupt_frames_dropped machine;
    faults = Machine.fault_stats machine;
    failures =
      List.map (fun (who, exn) -> who ^ ": " ^ Printexc.to_string exn) failures;
    stall_report = !stall_report;
    watchdogs_expired = List.length failures;
    monitor_violations = violations;
    clean;
  }

type conn = RC.t

type pair = {
  machine : Machine.t;
  sender : conn;
  receiver : conn;
  received : (Bytes.t * Vtime.t) list;
  error : Transport.error option;
  transport_drops : int;
}

(* A stamped payload: its send time, virtual ns as int64 LE, padded to
   [bytes] (at least 8, at most what the connection carries). *)
let stamped ~bytes conn _ =
  let b = Bytes.make (max 8 (min bytes (RC.capacity conn))) '\000' in
  Bytes.set_int64_le b 0 (Int64.of_int (RC.now conn));
  b

let pair
    ?(config = Flipc_flow.Provision.config_for ~base:Config.default ~buffers:12)
    ?fault ?fault_links ?(retrans = Flipc_flow.Retrans_layer.default_config)
    ?(pace_ns = 0)
    ?payload ?(payload_bytes = 8) ~kind ~messages () =
  let machine = Machine.create ~config ?fault ?fault_links kind () in
  let sim = Machine.sim machine in
  let payload =
    match payload with
    | Some f -> fun _ i -> f i
    | None -> stamped ~bytes:payload_bytes
  in
  let src_addr = Mailbox.create () and dst_addr = Mailbox.create () in
  let shared = { rx_done = false; tx_done = false } in
  let sender = ref None and receiver = ref None in
  let received = ref [] and transport_drops = ref 0 in
  let stall _ = raise (Failed `Timeout) in
  let module D = Drive (RC) in
  (* The pair polls as an application would: a few microseconds of CPU
     per empty poll, not the transport's minimal idle. *)
  let side ~name ~node ~mine ~theirs ~slot body =
    Machine.spawn_app ~name machine ~node (fun api ->
        let base = channel api ~mine ~theirs in
        let conn = RC.create base ?tap:(CT.tap base) ~config:retrans () in
        slot := Some conn;
        let wd = Monitor.Watchdog.create ~budget:(Vtime.s 4) ~sim ~name () in
        let idle _ = Flipc_memsim.Mem_port.instr (Api.port api) 200 in
        Fun.protect
          ~finally:(fun () ->
            transport_drops := !transport_drops + CT.drops base)
          (fun () -> body conn ~idle ~wd))
  in
  side ~name:"pair-rx" ~node:1 ~mine:dst_addr ~theirs:src_addr ~slot:receiver
    (fun conn ~idle ~wd ->
      D.rx conn ~idle ~wd ~stall ~messages ~shared ~on_recv:(fun _ p ->
          received := (p, RC.now conn) :: !received));
  side ~name:"pair-tx" ~node:0 ~mine:src_addr ~theirs:dst_addr ~slot:sender
    (fun conn ~idle ~wd ->
      D.tx conn ~idle ~wd ~stall ~messages ~payload ~pace_ns ~shared);
  let error =
    List.fold_left
      (fun error (who, exn) ->
        match (error, exn) with
        | None, Failed e -> Some e
        | _, Failed _ -> error
        | _ -> raise (Sim.Process_failure (who, exn)))
      None (run_machine machine)
  in
  {
    machine;
    sender = Option.get !sender;
    receiver = Option.get !receiver;
    received = List.rev !received;
    error;
    transport_drops = !transport_drops;
  }

let latencies_us p =
  List.map
    (fun (b, at) ->
      float_of_int (at - Int64.to_int (Bytes.get_int64_le b 0)) /. 1_000.)
    p.received

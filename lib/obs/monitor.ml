module Vtime = Flipc_sim.Vtime
module Engine = Flipc_sim.Engine

type violation = {
  at : Vtime.t;
  rule : string;
  node : int;
  mid : int;
  detail : string;
  history : string;
}

type check = { c_rule : string; c_node : int; c_fn : unit -> string option }

type t = {
  (* Causal-history provider for violation reports: live monitors close
     over their machine's ring, replay monitors over the loaded trace. *)
  history : int -> string;
  limit : int;
  mutable violations : violation list; (* newest first *)
  mutable events_seen : int;
  kinds : (string, int) Hashtbl.t; (* events seen per {!Event.kind} *)
  fired : (string, unit) Hashtbl.t; (* one report per (rule, site) *)
  mutable checks : check list;
  (* per-invariant running state, keyed by (node, global endpoint) *)
  deliver_last : (int * int, int) Hashtbl.t;
  ack_cum : (int * int, int) Hashtbl.t;
  tx_last : (int * int, int) Hashtbl.t;
  grant_count : (int * int, int) Hashtbl.t;
  win_granted : (int * int, int) Hashtbl.t;
  dropped : (int * int, int) Hashtbl.t;
  drops_read : (int * int, int) Hashtbl.t;
  (* KKT RPC state: last call id per client node, outstanding calls *)
  kkt_last_id : (int, int) Hashtbl.t;
  kkt_outstanding : (int * int, unit) Hashtbl.t;
  (* Bulk transfer state, keyed by transfer id *)
  bulk_total : (int, int) Hashtbl.t;
  bulk_next : (int, int) Hashtbl.t; (* next expected chunk offset *)
  bulk_bytes : (int, int) Hashtbl.t; (* bytes accepted so far *)
  bulk_cancelled : (int, unit) Hashtbl.t;
}

let get tbl key = Option.value (Hashtbl.find_opt tbl key) ~default:0
let set tbl key v = Hashtbl.replace tbl key v

let record t ~now ~rule ~node ~ep ~mid detail =
  let site = Printf.sprintf "%s@%d/%d" rule node ep in
  if not (Hashtbl.mem t.fired site) then begin
    Hashtbl.add t.fired site ();
    if List.length t.violations < t.limit then begin
      (* The offending message's causal history, reconstructed at the
         moment of detection. *)
      let history = if mid > 0 then t.history mid else "" in
      t.violations <- { at = now; rule; node; mid; detail; history } :: t.violations
    end
  end

(* The invariant catalogue (see DESIGN.md §13). Each rule fires at most
   once per (rule, node, endpoint) site and captures the triggering
   message's causal span. *)
let on_event t now ev =
  t.events_seen <- t.events_seen + 1;
  let kind = Event.kind ev in
  set t.kinds kind (get t.kinds kind + 1);
  let ev_mid = Option.value (Event.mid ev) ~default:0 in
  (match ev with
  | Event.Frame_deliver { node; ep; seq; mid } ->
      let key = (node, ep) in
      let last = get t.deliver_last key in
      (if seq <= last then
         record t ~now ~rule:"retrans.duplicate_delivery" ~node ~ep ~mid
           (Printf.sprintf "frame seq %d delivered again (last delivered %d)"
              seq last)
       else if seq <> last + 1 then
         record t ~now ~rule:"retrans.in_order_delivery" ~node ~ep ~mid
           (Printf.sprintf "frame seq %d delivered after %d (gap of %d)" seq
              last (seq - last - 1)));
      set t.deliver_last key (max seq last)
  | Event.Ack_tx { node; ep; cum; _ } ->
      let key = (node, ep) in
      let prev = get t.ack_cum key in
      if cum < prev then
        record t ~now ~rule:"retrans.cum_ack_monotone" ~node ~ep ~mid:ev_mid
          (Printf.sprintf "cumulative ack moved backwards: %d after %d" cum
             prev)
      else begin
        set t.ack_cum key cum;
        let delivered = get t.deliver_last key in
        if cum > delivered then
          record t ~now ~rule:"retrans.sack_window" ~node ~ep ~mid:ev_mid
            (Printf.sprintf
               "acked cum %d beyond last delivered frame %d (acknowledging \
                frames never released)"
               cum delivered)
      end
  | Event.Frame_tx { node; ep; seq; mid; retransmit = false } ->
      let key = (node, ep) in
      let last = get t.tx_last key in
      if seq <> last + 1 then
        record t ~now ~rule:"retrans.tx_seq_contiguous" ~node ~ep ~mid
          (Printf.sprintf "first transmission of seq %d after %d" seq last)
      else set t.tx_last key seq
  | Event.Credit_grant { node; ep; count } ->
      let key = (node, ep) in
      let prev = get t.grant_count key in
      if count < prev then
        record t ~now ~rule:"window.grant_monotone" ~node ~ep ~mid:ev_mid
          (Printf.sprintf
             "cumulative consumed count moved backwards: %d after %d" count
             prev)
      else set t.grant_count key count
  | Event.Window_send { node; ep; mid; sent; granted; window } ->
      let key = (node, ep) in
      let outstanding = sent - granted in
      let prev_granted = get t.win_granted key in
      if granted < prev_granted then
        record t ~now ~rule:"window.credit_conservation" ~node ~ep ~mid
          (Printf.sprintf "sender's granted count moved backwards: %d after %d"
             granted prev_granted)
      else begin
        set t.win_granted key granted;
        if outstanding < 1 || outstanding > window then
          record t ~now ~rule:"window.credit_conservation" ~node ~ep ~mid
            (Printf.sprintf
               "outstanding %d outside window [1..%d] (sent=%d granted=%d)"
               outstanding window sent granted)
      end
  | Event.Drop { node; ep; reason = Event.No_posted_buffer; _ } ->
      let key = (node, ep) in
      set t.dropped key (get t.dropped key + 1)
  | Event.Drops_read { node; ep; count } ->
      let key = (node, ep) in
      let read = get t.drops_read key + count in
      set t.drops_read key read;
      let dropped = get t.dropped key in
      if read > dropped then
        record t ~now ~rule:"drops.read_reset" ~node ~ep ~mid:ev_mid
          (Printf.sprintf
             "application read %d drops but the engine recorded only %d" read
             dropped)
  (* KKT RPC rules: call ids are allocated monotonically per client and
     a completion must match an outstanding call. The call id doubles as
     the dedup site's endpoint. *)
  | Event.Kkt_call { node; id; mid; _ } ->
      let last = get t.kkt_last_id node in
      if id <= last then
        record t ~now ~rule:"kkt.slot_reuse" ~node ~ep:id ~mid
          (Printf.sprintf
             "call id %d issued out of order (last allocated %d): pending-slot \
              reuse"
             id last)
      else set t.kkt_last_id node id;
      Hashtbl.replace t.kkt_outstanding (node, id) ()
  | Event.Kkt_dispatch { node; id; valid; mid } ->
      if not valid then
        record t ~now ~rule:"kkt.key_validity" ~node ~ep:id ~mid
          (Printf.sprintf
             "call id %d dispatched on a node with no registered handler \
              (invalid key)"
             id)
  | Event.Kkt_complete { node; id; mid } ->
      if Hashtbl.mem t.kkt_outstanding (node, id) then
        Hashtbl.remove t.kkt_outstanding (node, id)
      else
        record t ~now ~rule:"kkt.no_reply_without_request" ~node ~ep:id ~mid
          (Printf.sprintf "call id %d completed with no outstanding request" id)
  (* Bulk transfer rules: chunks must arrive contiguously from the first
     observed offset, completion implies every byte arrived, and a
     cancelled transfer makes no further progress. The transfer id
     doubles as the dedup site's endpoint. *)
  | Event.Bulk_start { transfer; total; _ } ->
      set t.bulk_total transfer total;
      set t.bulk_bytes transfer 0
  | Event.Bulk_chunk { node; transfer; offset; len; mid } ->
      if Hashtbl.mem t.bulk_cancelled transfer then
        record t ~now ~rule:"bulk.no_progress_after_cancel" ~node ~ep:transfer
          ~mid
          (Printf.sprintf "chunk at offset %d accepted after cancel" offset)
      else begin
        (match Hashtbl.find_opt t.bulk_next transfer with
        | Some next when offset <> next ->
            record t ~now ~rule:"bulk.chunk_contiguity" ~node ~ep:transfer ~mid
              (Printf.sprintf
                 "chunk at offset %d but next expected offset is %d (hole or \
                  overlap)"
                 offset next)
        | _ -> ());
        set t.bulk_next transfer (offset + len);
        set t.bulk_bytes transfer (get t.bulk_bytes transfer + len)
      end
  | Event.Bulk_complete { node; transfer; mid } ->
      if Hashtbl.mem t.bulk_cancelled transfer then
        record t ~now ~rule:"bulk.no_progress_after_cancel" ~node ~ep:transfer
          ~mid "transfer completed after cancel"
      else begin
        match Hashtbl.find_opt t.bulk_total transfer with
        | None ->
            record t ~now ~rule:"bulk.completion_implies_all_chunks" ~node
              ~ep:transfer ~mid "transfer completed but was never started"
        | Some total ->
            let got = get t.bulk_bytes transfer in
            if got < total then
              record t ~now ~rule:"bulk.completion_implies_all_chunks" ~node
                ~ep:transfer ~mid
                (Printf.sprintf "transfer completed with %d of %d bytes" got
                   total)
      end
  | Event.Bulk_cancel { transfer; _ } ->
      Hashtbl.replace t.bulk_cancelled transfer ()
  | _ -> ());
  (* Registered machine-state checks (queue pointer ordering, ...) run on
     every event: they are untimed peeks, and the triggering event lends
     its mid so the report can show what the machine was doing. *)
  List.iter
    (fun c ->
      let site = Printf.sprintf "%s@%d/-" c.c_rule c.c_node in
      if not (Hashtbl.mem t.fired site) then
        match c.c_fn () with
        | None -> ()
        | Some detail ->
            record t ~now ~rule:c.c_rule ~node:c.c_node ~ep:(-1) ~mid:ev_mid
              detail)
    t.checks

let create ?(limit = 16) ?(history = fun _ -> "") () =
  {
    history;
    limit;
    violations = [];
    events_seen = 0;
    kinds = Hashtbl.create 16;
    fired = Hashtbl.create 16;
    checks = [];
    deliver_last = Hashtbl.create 16;
    ack_cum = Hashtbl.create 16;
    tx_last = Hashtbl.create 16;
    grant_count = Hashtbl.create 16;
    win_granted = Hashtbl.create 16;
    dropped = Hashtbl.create 16;
    drops_read = Hashtbl.create 16;
    kkt_last_id = Hashtbl.create 16;
    kkt_outstanding = Hashtbl.create 16;
    bulk_total = Hashtbl.create 16;
    bulk_next = Hashtbl.create 16;
    bulk_bytes = Hashtbl.create 16;
    bulk_cancelled = Hashtbl.create 16;
  }

let feed t ~now ev = on_event t now ev

let attach ?limit obs =
  let history mid =
    match Causal.find (Causal.spans [ obs ]) mid with
    | Some span -> Fmt.str "@[<v>%a@]" Causal.pp_span span
    | None -> ""
  in
  let t = create ?limit ~history () in
  (* Violation reports want the causal history, so monitoring implies
     recording: enable the ring along with the watcher tap. *)
  Tracer.enable (Obs.tracer obs);
  Obs.add_watcher obs (fun now ev -> on_event t now ev);
  let m = Obs.metrics obs in
  Metrics.probe m "monitor.events_seen" (fun () ->
      float_of_int t.events_seen);
  Metrics.probe m "monitor.violations" (fun () ->
      float_of_int (List.length t.violations));
  t

let add_check t ~rule ~node f =
  t.checks <- t.checks @ [ { c_rule = rule; c_node = node; c_fn = f } ]

let violations t = List.rev t.violations
let clean t = t.violations = []
let events_seen t = t.events_seen

let event_counts t =
  List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.kinds [])

let pp_violation fmt v =
  Fmt.pf fmt "@[<v>INVARIANT VIOLATION [%s] at vt=%a on node %d%s@,  %s@]"
    v.rule Vtime.pp v.at v.node
    (if v.mid > 0 then Printf.sprintf " (msg %d)" v.mid else "")
    v.detail;
  if v.history <> "" then Fmt.pf fmt "@,  causal history:@,@[<v 2>  %s@]" v.history

let pp_report fmt t =
  match violations t with
  | [] ->
      Fmt.pf fmt "monitor: clean (%d events checked, 0 violations)@,"
        t.events_seen
  | vs ->
      Fmt.pf fmt "monitor: %d violation(s) in %d events@," (List.length vs)
        t.events_seen;
      List.iter (fun v -> Fmt.pf fmt "%a@," pp_violation v) vs

(* Per-flow virtual-time progress watchdog. A loop that might never
   complete checks [expired] each poll and calls [report] instead of
   spinning forever: the report is the "flight recorder" — every
   machine's registered state reporters, the tail of every event ring,
   and (when known) the stalled message's causal trace with the stage it
   stopped at. *)
module Watchdog = struct
  type w = {
    sim : Engine.t;
    w_name : string;
    budget : Vtime.t;
    mutable deadline : Vtime.t;
  }

  type t = w

  let create ?(budget = Vtime.ms 50) ~sim ~name () =
    { sim; w_name = name; budget; deadline = Vtime.add (Engine.now sim) budget }

  let progress t = t.deadline <- Vtime.add (Engine.now t.sim) t.budget
  let expired t = Vtime.compare (Engine.now t.sim) t.deadline > 0
  let name t = t.w_name

  let rec drop n l =
    if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

  let report ?(events = 30) ?mid t obs_list =
    let buf = Buffer.create 4096 in
    let fmt = Format.formatter_of_buffer buf in
    Fmt.pf fmt
      "@[<v>=== FLIGHT RECORDER: watchdog '%s' expired ===@,\
       no progress for %a of virtual time (now %a)@,"
      t.w_name Vtime.pp t.budget Vtime.pp (Engine.now t.sim);
    (match mid with
    | Some mid when mid > 0 -> (
        match Causal.find (Causal.spans obs_list) mid with
        | Some span ->
            Fmt.pf fmt "stalled flow: msg %d — %s@,@[<v 2>  %a@]@," mid
              (Causal.stalled_stage span) Causal.pp_span span
        | None -> Fmt.pf fmt "stalled flow: msg %d — no events captured@," mid)
    | _ -> ());
    List.iter
      (fun obs ->
        Fmt.pf fmt "-- machine '%s' --@," (Obs.label obs);
        Obs.report obs fmt;
        let entries = Tracer.to_list (Obs.tracer obs) in
        let total = List.length entries in
        let tail =
          if total <= events then entries else drop (total - events) entries
        in
        Fmt.pf fmt "last %d of %d events:@," (List.length tail) total;
        List.iter
          (fun (e : Tracer.entry) ->
            Fmt.pf fmt "  [%9d ns] %a@," (Vtime.to_ns e.ts) Event.pp e.ev)
          tail)
      obs_list;
    Fmt.pf fmt "=== end flight recorder ===@]@.";
    Buffer.contents buf
end

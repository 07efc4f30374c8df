(** Online invariant monitors and the progress watchdog.

    A monitor is a synchronous watcher on one machine's typed event
    stream ({!Obs.add_watcher}): as events arrive it checks the safety
    properties of FLIPC's wait-free handoffs and records the first
    violation per site with the offending message's id and causal
    history. Attaching a monitor enables event construction machine-wide
    (it makes {!Obs.tracing} true) and enables the ring, so histories
    can be reconstructed; the disabled path is untouched.

    The invariant catalogue (DESIGN.md §13):
    - [retrans.duplicate_delivery] / [retrans.in_order_delivery] — the
      reliability layer releases each frame exactly once, in sequence
      order.
    - [retrans.tx_seq_contiguous] — first transmissions leave in
      sequence order.
    - [retrans.cum_ack_monotone] / [retrans.sack_window] — cumulative
      acks never move backwards and never acknowledge frames that were
      not delivered.
    - [window.credit_conservation] / [window.grant_monotone] — a credit
      sender's outstanding count stays within the window and the
      cumulative counters never regress.
    - [drops.read_reset] — the application's read-and-reset drop counts
      never exceed the drops the engine recorded.
    - [kkt.slot_reuse] / [kkt.key_validity] /
      [kkt.no_reply_without_request] — KKT call ids stay monotone per
      client, requests only dispatch to registered handlers, and every
      completion matches an outstanding call.
    - [bulk.chunk_contiguity] / [bulk.completion_implies_all_chunks] /
      [bulk.no_progress_after_cancel] — bulk chunks arrive contiguously,
      completion implies every byte arrived, and cancelled transfers
      make no further progress.
    - machine-registered state checks (e.g. endpoint queue pointer
      ordering, registered by {!Flipc.Machine.attach_monitor}) run on
      every event via {!add_check}.

    Monitors also run detached from any machine: {!create} + {!feed}
    drive the same rule engine over a replayed event stream
    ({!Replay}), producing the same violations as the live run. *)

type violation = {
  at : Flipc_sim.Vtime.t;
  rule : string;
  node : int;
  mid : int;  (** offending (or triggering) message id; 0 if unknown *)
  detail : string;
  history : string;  (** rendered causal span of [mid] at detection *)
}

type t

(** [create ()] builds a detached monitor: feed it events explicitly
    with {!feed}. [limit] caps retained violations (default 16; each
    site reports at most once); [history] supplies the rendered causal
    span for a violation's mid (default: none). *)
val create : ?limit:int -> ?history:(int -> string) -> unit -> t

(** [feed t ~now ev] runs every rule against one event — the same code
    path a live watcher uses. *)
val feed : t -> now:Flipc_sim.Vtime.t -> Event.t -> unit

(** [attach obs] registers the monitor on [obs]. [limit] caps retained
    violations (default 16; each site reports at most once). Also
    registers [monitor.events_seen] and [monitor.violations] metric
    probes on the bundle's registry. *)
val attach : ?limit:int -> Obs.t -> t

(** [add_check t ~rule ~node f] registers an untimed machine-state check
    run after every event; returning [Some detail] fires [rule]. *)
val add_check : t -> rule:string -> node:int -> (unit -> string option) -> unit

(** Oldest first. *)
val violations : t -> violation list

val clean : t -> bool
val events_seen : t -> int

(** Events seen per {!Event.kind}, sorted by kind. *)
val event_counts : t -> (string * int) list

val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> t -> unit

(** Per-flow virtual-time progress deadlines with flight-recorder dumps:
    poll loops call {!Watchdog.progress} when they advance and check
    {!Watchdog.expired} each retry; on expiry they render
    {!Watchdog.report} and abort instead of spinning forever. *)
module Watchdog : sig
  type t

  (** [create ~sim ~name ()] arms a deadline [budget] (default 50 ms of
      virtual time) from now. *)
  val create :
    ?budget:Flipc_sim.Vtime.t ->
    sim:Flipc_sim.Engine.t ->
    name:string ->
    unit ->
    t

  (** Push the deadline out by the budget — call on every unit of
      real progress. *)
  val progress : t -> unit

  val expired : t -> bool
  val name : t -> string

  (** The flight recorder: every machine's registered reporters
      ({!Obs.add_reporter}), the last [events] ring entries per machine
      (default 30), and — given the stalled flow's [mid] — its causal
      trace with the stage it stopped at. *)
  val report : ?events:int -> ?mid:int -> t -> Obs.t list -> string
end

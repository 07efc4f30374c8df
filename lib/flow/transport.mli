(** The [TRANSPORT] signature: one shape for every messaging layer.

    FLIPC's layering story — an optimistic transport underneath,
    reliability and flow control supplied by libraries "designed to fit
    between applications and FLIPC" — only composes if those libraries
    agree on a shape. This module defines that shape: a duplex,
    variable-length message connection with a unified typed error
    hierarchy and {e deadline-based} (absolute virtual-time) bounded
    waits.

    Implementations in this library:

    - {!Loopback} — in-memory pair over a bare simulation engine; the
      fast deterministic base for tests.
    - {!Channel_transport} — {!Flipc.Channel} (pooled buffers over raw
      FLIPC endpoints) as a transport: the base of every on-machine
      stack.
    - {!Window_layer} — credit-window flow control as a functor over
      {e any} transport.
    - {!Retrans_layer} — exactly-once in-order delivery (selective
      repeat + SACK, with a go-back-N ablation mode) as a functor over
      {e any} transport. It is the library's only retransmission
      protocol, and {!Window_layer} its only credit protocol.

    Because the layers are functors over {!S} and themselves satisfy
    {!S}, stacks compose freely: [Retrans_layer (Channel_transport)],
    [Window_layer (Channel_transport)], and previously inexpressible
    combinations like [Retrans_layer (Window_layer (Channel_transport))]
    all typecheck and run — and one conformance suite (a functor over a
    stack) validates them all.

    {b Timeouts.} Every bounded wait takes an absolute [deadline] in
    virtual nanoseconds (compare {!now}); no layer counts spins. A layer
    converts its own internal budgets to deadlines the same way.

    {b Blocking.} Transports poll: a blocked [send]/[recv_deadline]
    burns {!idle} (simulated CPU time) between attempts, so waiting has
    a cost in virtual time and the engine keeps running underneath. *)

(** The unified error hierarchy. [`Timeout]: the deadline passed.
    [`Closed]: this end was closed (or never connected). [`No_buffer]:
    transient local backpressure — pool starved, ring or window full;
    retrying later can succeed (blocking operations absorb these until
    the deadline). [`Peer_dead]: a reliability layer exhausted its retry
    budget — the peer is presumed unreachable. [`Api]: an unclassified
    transport-level error surfaced from {!Flipc.Api}. *)
type error =
  [ `Timeout | `Closed | `No_buffer | `Peer_dead | `Api of Flipc.Api.error ]

val error_to_string : error -> string

(** Where a layer reports what it does: the machine's observability
    bundle, the identity of the connection's base endpoint, and the
    message ids of the base's most recent send and receive (so a layer
    can correlate its own sequence numbers with the wire messages that
    carried them). {!Channel_transport.tap} builds one. Layers emit
    their protocol events ({!Flipc_obs.Event.Frame_tx}, [Ack_tx],
    [Frame_deliver], [Credit_grant], [Window_send]) under
    [(node, ep)] and register [node<i>.<layer>.ep<n>.*] probes. *)
type tap = {
  obs : Flipc_obs.Obs.t;
  node : int;
  ep : int;
  tx_mid : unit -> int;
  rx_mid : unit -> int;
}

(** [emit tap ev] records [ev tap] when a tap is attached and its bundle
    is tracing; [ev] is not run otherwise. *)
val emit : tap option -> (tap -> Flipc_obs.Event.t) -> unit

(** [probes tap ~layer fields] registers each [(name, f)] as the
    pull-probe [node<i>.<layer>.ep<n>.<name>]; a no-op without a tap. *)
val probes : tap option -> layer:string -> (string * (unit -> int)) list -> unit

(** The transport signature proper. *)
module type S = sig
  (** One duplex connection. *)
  type t

  (** Largest payload a single message can carry. *)
  val capacity : t -> int

  (** Current virtual time (the clock [deadline]s are measured on). *)
  val now : t -> Flipc_sim.Vtime.t

  (** Burn one poll's worth of simulated CPU time; lets the engine (or
      other processes) make progress while this side waits. *)
  val idle : t -> unit

  (** Make protocol progress without transferring application data:
      absorb acknowledgements/credits, fire due retransmissions. A base
      transport's [pump] is a cheap no-op. *)
  val pump : t -> (unit, error) result

  (** Non-blocking send: [`No_buffer] instead of waiting when the layer
      cannot accept the payload right now. Raises [Invalid_argument] if
      the payload exceeds {!capacity}. *)
  val try_send : t -> Bytes.t -> (unit, error) result

  (** Blocking send, bounded by the absolute virtual-time [deadline]. *)
  val send : t -> deadline:Flipc_sim.Vtime.t -> Bytes.t -> (unit, error) result

  (** Non-blocking receive: [Ok None] when nothing is deliverable.
      Implicitly {!pump}s. *)
  val recv : t -> (Bytes.t option, error) result

  (** Blocking receive, bounded by the absolute [deadline]. *)
  val recv_deadline :
    t -> deadline:Flipc_sim.Vtime.t -> (Bytes.t, error) result

  (** Close this end: subsequent operations report [`Closed]. *)
  val close : t -> unit
end

(** What a layer must provide to get the blocking operations for free:
    the non-blocking core of {!S}. *)
module type CORE = sig
  type t

  val now : t -> Flipc_sim.Vtime.t
  val idle : t -> unit
  val pump : t -> (unit, error) result
  val try_send : t -> Bytes.t -> (unit, error) result
  val recv : t -> (Bytes.t option, error) result
end

(** [Defaults (C)] derives the deadline-bounded blocking operations from
    a non-blocking core: [send] retries [try_send] (absorbing transient
    [`No_buffer]) and [recv_deadline] polls [recv], each burning
    {!S.idle} between attempts until the deadline passes. *)
module Defaults (C : CORE) : sig
  val send :
    C.t -> deadline:Flipc_sim.Vtime.t -> Bytes.t -> (unit, error) result

  val recv_deadline :
    C.t -> deadline:Flipc_sim.Vtime.t -> (Bytes.t, error) result
end

(** [Group (T)] is receive-any over several connections of one
    transport, with round-robin fairness — {!Flipc.Endpoint_group}
    lifted to work over any stack (so a server can fan in over
    exactly-once connections, not just raw endpoints). *)
module Group (T : S) : sig
  type t

  (** [create ?semaphore ()] makes an empty group. With [semaphore],
      {!recv_any_wait} can block a scheduler thread on it instead of
      polling — every member's receive path must then be wired to post
      the {e same} semaphore (e.g. [Channel_transport.create
      ~semaphore]); the group cannot verify this through an abstract
      transport, so it is the caller's contract. *)
  val create : ?semaphore:Flipc_rt.Rt_semaphore.t -> unit -> t

  (** The wakeup semaphore the group was created with, if any. *)
  val semaphore : t -> Flipc_rt.Rt_semaphore.t option

  (** Membership is by physical identity of the connection value.
      Adding posts the group semaphore once (if present) so waiters
      rescan — a message deposited before the member joined has
      already consumed its post. *)
  val add : t -> T.t -> unit

  (** Removing keeps the round-robin cursor pointing at the member that
      would have been scanned next (same compaction rule as
      {!Flipc.Endpoint_group.remove}). Absent members are ignored. *)
  val remove : t -> T.t -> unit

  val length : t -> int

  (** One fair scan: starts after the last successful member, returns
      the first connection with a deliverable message. [Ok None] when
      every member is empty (or the group is). A member error aborts the
      scan. *)
  val recv_any : t -> ((T.t * Bytes.t) option, error) result

  (** Blocking {!recv_any}: polls until the deadline, burning idle time
      on the first member. An empty group reports [`Closed] (with no
      member there is no clock to wait on). *)
  val recv_any_deadline :
    t -> deadline:Flipc_sim.Vtime.t -> (T.t * Bytes.t, error) result

  (** Blocking {!recv_any} over the group semaphore: the scheduler
      thread sleeps (priority-ordered wakeup, no polling) until an
      engine posts it, then rescans fairly; spurious wakeups loop back
      to sleep. Raises [Invalid_argument] if the group has no
      semaphore. Only callable from a {!Flipc_rt.Sched} thread. *)
  val recv_any_wait :
    t -> Flipc_rt.Sched.thread -> (T.t * Bytes.t, error) result
end

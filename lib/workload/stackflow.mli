(** Layered-stack soak flows: all-to-all traffic over a composed
    {!Flipc_flow.Transport} stack, with exactly-once verification.

    This workload drives the stacked implementations —
    {!Flipc_flow.Channel_transport} at the base with
    {!Flipc_flow.Retrans_layer} / {!Flipc_flow.Window_layer} functors
    above, each tapped into the machine's observability bundle — through
    a faulted machine: node [i] streams [messages]
    verified payloads to node [(i + n/2) mod n], every node both
    sending and receiving, with an invariant monitor attached and a
    virtual-time watchdog per flow.

    Receivers check every delivered payload against the pattern the
    sender wrote and require strict in-order, exactly-once delivery;
    [corrupt_leaks] counts mismatches (must stay zero — the frame
    checksum turns wire corruption into loss, and the reliability
    layer recovers loss). *)

(** Which composition to run. [Bare_channel] and [Window_over_channel]
    give no delivery guarantee under faults — run them on clean
    fabrics; the [Retrans_*] stacks must deliver exactly-once under
    any fault mix. *)
type stack =
  | Bare_channel
  | Window_over_channel
  | Retrans_over_channel
  | Retrans_over_window

val stack_name : stack -> string

type result = {
  flows : int;
  expected : int;  (** messages over all flows *)
  delivered : int;
  retransmits : int;  (** 0 for stacks without a retransmission layer *)
  corrupt_leaks : int;  (** delivered payloads that failed verification *)
  transport_drops : int;  (** optimistic discards at base receive endpoints *)
  corrupt_frames_dropped : int;
      (** frames the engines' checksum check discarded, machine-wide *)
  faults : Flipc_net.Faulty.stats option;  (** injected-fault tallies *)
  failures : string list;
      (** ["<process>: <exception>"] for every flow process that died *)
  stall_report : string option;
      (** the flight recorder ({!Flipc_obs.Monitor.Watchdog.report}) of
          the first flow whose watchdog expired *)
  watchdogs_expired : int;
  monitor_violations : int;
  clean : bool;
      (** all delivered, nothing corrupt, no stall, monitor clean *)
}

(** The fault scenarios, mildest first: ["clean"], ["uniform"] (loss,
    duplication, reordering), ["burst"] (Gilbert–Elliott), ["corrupt"],
    ["perlink"] (one bad directed link), ["combined"]. *)
val scenarios : string list

(** [scenario_fault name ~seed ~hold ~half] is the scenario's
    fabric-wide fault config and per-link overrides. [hold] is the
    reorder hold in ns; [half] names the bad link's destination (the
    link runs from node 0 to node [half]). Raises [Invalid_argument] on
    an unknown name. *)
val scenario_fault :
  string ->
  seed:int ->
  hold:int ->
  half:int ->
  Flipc_net.Faulty.config option * Flipc_net.Faulty.links option

(** [run ~kind ~nodes ~messages ()] builds the machine, runs the flows
    over the chosen [stack] and returns the tally. By default node [i]
    streams [messages] to node [(i + nodes/2) mod nodes] for every
    [i < nodes].

    @param stack default [Retrans_over_channel]
    @param config machine configuration (default: provisioned for 16
      buffers, frame checksum on)
    @param fault fabric-wide fault injection (default none)
    @param fault_links per-link fault overrides
    @param rto_ns retransmission timeout for the retrans layer
      (default 200us; set above the fabric round trip)
    @param pace_ns inter-message virtual delay per sender (default 25us)
    @param budget per-flow watchdog budget (default 50ms)
    @param window window size for the window layer (default 6)
    @param payload_bytes verified payload size (default 32, clamped to
      the stack's capacity)
    @param flows [(src, dst, messages)] per flow, replacing the default
      all-to-all pattern ([nodes] and [messages] are then unused)
    @param spawn called with the machine once the flows are spawned and
      before it runs: extra processes started here share the machine
      (and its monitor) with the flows *)
val run :
  ?stack:stack ->
  ?config:Flipc.Config.t ->
  ?fault:Flipc_net.Faulty.config ->
  ?fault_links:Flipc_net.Faulty.links ->
  ?rto_ns:int ->
  ?pace_ns:int ->
  ?budget:Flipc_sim.Vtime.t ->
  ?window:int ->
  ?payload_bytes:int ->
  ?flows:(int * int * int) list ->
  ?spawn:(Flipc.Machine.t -> unit) ->
  kind:Flipc.Machine.fabric_kind ->
  nodes:int ->
  messages:int ->
  unit ->
  result

(** {1 One point-to-point reliable flow} *)

(** A reliable connection: {!Flipc_flow.Retrans_layer} over
    {!Flipc_flow.Channel_transport}. *)
type conn = Flipc_flow.Retrans_layer.Make(Flipc_flow.Channel_transport).t

(** What a {!pair} run did. *)
type pair = {
  machine : Flipc.Machine.t;  (** the machine it ran on, run dry *)
  sender : conn;
  receiver : conn;
  received : (Bytes.t * Flipc_sim.Vtime.t) list;
      (** delivered payloads with their delivery time, in delivery
          order *)
  error : Flipc_flow.Transport.error option;
      (** the first error either side hit; [`Timeout] when a side made
          no progress for 4 s of virtual time *)
  transport_drops : int;  (** optimistic discards at both base endpoints *)
}

(** [pair ~kind ~messages ()] builds a machine, runs one tapped reliable
    flow from node 0 to node 1 over it, and returns what happened. The
    sender sends [messages] payloads, sleeping [pace_ns] (default 0)
    after each; the receiver drains them and lingers until the sender
    has stood down. Both sides poll at 200 instructions per empty poll.

    @param config machine configuration (default: provisioned for 12
      buffers)
    @param retrans the connection's configuration (default
      {!Flipc_flow.Retrans_layer.default_config})
    @param payload the [i]th payload, [i = 1 .. messages]; by default
      payloads are stamped with their send time (see {!latencies_us})
    @param payload_bytes size of a stamped payload (default 8; at least
      8, at most what the connection carries) *)
val pair :
  ?config:Flipc.Config.t ->
  ?fault:Flipc_net.Faulty.config ->
  ?fault_links:Flipc_net.Faulty.links ->
  ?retrans:Flipc_flow.Retrans_layer.config ->
  ?pace_ns:int ->
  ?payload:(int -> Bytes.t) ->
  ?payload_bytes:int ->
  kind:Flipc.Machine.fabric_kind ->
  messages:int ->
  unit ->
  pair

(** Delivery latency in µs of each message of a stamped {!pair} run, in
    delivery order. *)
val latencies_us : pair -> float list

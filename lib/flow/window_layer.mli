(** Credit-window flow control as a functor over any {!Transport.S}.

    The receiver grants cumulative credits as the application consumes,
    and the sender never exceeds [window] unconsumed messages. This is
    the scheme PAM's active-message facility uses, expressed as a
    stackable layer:
    [Window_layer (Channel_transport)] reproduces the classic
    flow-controlled channel, and the result is itself a transport, so
    a reliability layer can ride on top ([Retrans_layer (Window_layer
    (...))]).

    Both directions of the duplex connection are flow-controlled
    independently; data and credit frames share the underlying
    connection, distinguished by a one-byte tag (so {!capacity} is the
    base transport's minus one). Credits carry the {e cumulative}
    consumed count: a credit message the base transport loses is
    recovered by any later one. Because credit is granted only when the
    application consumes ({!Transport.S.recv}), the layer's inbound
    queue never holds more than [window] messages — flow control
    doubles as receive-buffer provisioning.

    Created with a {!Transport.tap}, a connection emits [Credit_grant]
    for every grant the base accepts and [Window_send] (the sender's
    counters) for every data frame, and registers
    [node<i>.window.ep<n>.*] probes. *)

module Make (T : Transport.S) : sig
  type t

  (** Satisfies {!Transport.S}. [`No_buffer] from [try_send] means the
      credit window is exhausted (or the base refused transiently). *)

  val capacity : t -> int
  val now : t -> Flipc_sim.Vtime.t
  val idle : t -> unit
  val pump : t -> (unit, Transport.error) result
  val try_send : t -> Bytes.t -> (unit, Transport.error) result

  val send :
    t ->
    deadline:Flipc_sim.Vtime.t ->
    Bytes.t ->
    (unit, Transport.error) result

  val recv : t -> (Bytes.t option, Transport.error) result

  val recv_deadline :
    t -> deadline:Flipc_sim.Vtime.t -> (Bytes.t, Transport.error) result

  val close : t -> unit

  (** [create conn ~window ()] wraps a connected base transport. Both
      ends of the connection must be wrapped with the same [window] and
      [grant_every] (default [max 1 (window / 2)]). [tap] turns on the
      events and probes described above. *)
  val create :
    T.t -> ?tap:Transport.tap -> window:int -> ?grant_every:int -> unit -> t

  (** Sender-side credits currently available. *)
  val credits_available : t -> int

  val messages_sent : t -> int
  val messages_received : t -> int
end

(** Exactly-once, in-order delivery as a functor over any
    {!Transport.S}.

    Selective repeat with a SACK bitmap, cumulative acknowledgements
    and a static retransmission timeout with exponential backoff, as a
    stackable layer over a single duplex connection.
    [Retrans_layer (Channel_transport)] is the reliable channel:
    exactly-once delivery with the channel layer's automatic buffer
    management underneath. Stacking over {!Window_layer} composes
    retransmission with credit flow control.

    Data and acknowledgement frames share the connection, distinguished
    by a one-byte tag ({!capacity} is the base's minus five: tag plus a
    4-byte sequence number). Both directions are independent instances
    of the protocol: each side keeps sender state (in-flight window,
    retransmission timer) and receiver state (expected sequence,
    out-of-order buffer).

    A send whose oldest in-flight frame exhausts [max_retries]
    retransmission rounds reports [`Peer_dead] — the peer is presumed
    unreachable — distinct from [`Timeout], which only ever means "your
    deadline passed". Local backpressure (the base refusing a frame
    with [`No_buffer]) is not peer silence: it never counts toward
    [max_retries], and the retransmission timer stays armed until the
    base accepts again.

    {b Observability.} Created with a {!Transport.tap}, a connection
    emits [Frame_tx] for every data frame put on the base (a
    retransmission carries a fresh message id, linked by [seq]),
    [Ack_tx] for every acknowledgement and [Frame_deliver] for every
    frame released in order — the latter two under the same
    [(node, ep)], so the monitor can check that an ack never covers a
    frame not yet delivered — and registers [node<i>.retrans.ep<n>.*]
    probes for the counters below. *)

(** Recovery discipline. [Selective_repeat] buffers up to 64 frames
    beyond a hole and advertises them in the SACK bitmap, so a timeout
    resends only the holes. [Go_back_n] is the ablation: the receiver
    discards every out-of-order arrival, so a timeout resends the whole
    window. Only the receiving side's mode matters. *)
type mode = Selective_repeat | Go_back_n

type config = {
  window : int;  (** max unacknowledged messages in flight (<= 64) *)
  rto_ns : int;  (** initial retransmission timeout (virtual ns) *)
  max_rto_ns : int;  (** exponential-backoff cap *)
  ack_every : int;  (** acknowledge every n in-order deliveries *)
  max_retries : int;  (** retransmission rounds before [`Peer_dead] *)
  mode : mode;
}

(** [window = 8], [rto_ns = 1ms], [max_rto_ns = 8ms], [ack_every = 1],
    [max_retries = 30], [mode = Selective_repeat]. *)
val default_config : config

module Make (T : Transport.S) : sig
  type t

  (** Satisfies {!Transport.S}. *)

  val capacity : t -> int
  val now : t -> Flipc_sim.Vtime.t
  val idle : t -> unit

  (** Absorbs acknowledgements, delivers arriving data into the
      in-order queue, fires due retransmissions. [`Peer_dead] when the
      oldest in-flight frame has exhausted its retry budget. *)
  val pump : t -> (unit, Transport.error) result

  val try_send : t -> Bytes.t -> (unit, Transport.error) result

  val send :
    t ->
    deadline:Flipc_sim.Vtime.t ->
    Bytes.t ->
    (unit, Transport.error) result

  (** Exactly-once, in-order. *)
  val recv : t -> (Bytes.t option, Transport.error) result

  val recv_deadline :
    t -> deadline:Flipc_sim.Vtime.t -> (Bytes.t, Transport.error) result

  val close : t -> unit

  (** [create conn ()] wraps a connected base transport; both ends must
      be wrapped with the same [config]. [tap] turns on the events and
      probes described above. *)
  val create : T.t -> ?tap:Transport.tap -> ?config:config -> unit -> t

  (** [flush t ~deadline] pumps until every queued message is
      acknowledged or the virtual clock passes [deadline]. *)
  val flush :
    t -> deadline:Flipc_sim.Vtime.t -> (unit, Transport.error) result

  (** {1 Counters} *)

  val in_flight : t -> int

  (** Highest cumulative sequence acknowledged by the peer. *)
  val acked : t -> int

  (** In-order messages delivered to the application. *)
  val delivered : t -> int

  (** Frames discarded as already delivered or already buffered. *)
  val duplicates : t -> int

  (** Data frames retransmitted. *)
  val retransmits : t -> int

  (** Out-of-order frames currently buffered for selective repeat. *)
  val ooo_held : t -> int

  (** Frames that arrived beyond the next expected sequence: buffered
      under selective repeat, discarded under go-back-N (or when beyond
      the SACK bitmap). *)
  val reordered : t -> int

  (** Out-of-order frames ever buffered ({!ooo_held} is the live
      occupancy). *)
  val ooo_buffered : t -> int

  (** Acknowledgements the base accepted. *)
  val acks_sent : t -> int

  (** Re-acknowledgements of duplicates and unbufferable frames withheld
      by the rate limit (one per [ack_every] anomalies or per RTO). *)
  val reacks_suppressed : t -> int

  (** Data frame transmissions the base refused with [`No_buffer]
      (transmit pool starved or send ring full); none of them counts as
      a retransmission. *)
  val backpressure : t -> int

  (** The live retransmission timeout: [rto_ns], doubled per unanswered
      round up to [max_rto_ns], back to [rto_ns] once a cumulative ack
      covers a frame that was never retransmitted (Karn's rule: the
      backoff is kept while acks could be answering stale copies). *)
  val rto_current_ns : t -> int
end

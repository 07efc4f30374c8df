(** FLIPC over KKT: the portable messaging-engine wiring.

    This reproduces the paper's development strategy — the same
    application-interface library and communication-buffer structures, with
    the messaging engine's transmit path replaced by a KKT RPC per message.
    Because the RPC blocks the engine for a full round trip per message,
    latency and occupancy are far worse than the native optimistic
    transport; the KKT-PORT experiment quantifies the mismatch on all three
    fabrics. *)

(** [transport kkt] is a {!Flipc.Machine.transport_maker} that attaches each
    node to [kkt], serves inbound messages by delivering them to the node's
    engine, and transmits via blocking [Kkt.call]. *)
val transport : Kkt.t -> Flipc.Machine.transport_maker

(** [machine ?config kind ()] builds a machine whose engines use KKT
    with its default configuration, like {!Flipc.Machine.create}. *)
val machine :
  ?config:Flipc.Config.t ->
  Flipc.Machine.fabric_kind ->
  unit ->
  Flipc.Machine.t

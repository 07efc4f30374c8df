(* A timing shim over any {!Flipc_flow.Transport.S}: it forwards every
   call unchanged and, when its recorder is on, reads the virtual clock
   around the call. Reading the clock is not a simulation effect, so a
   stack with recording on runs the same virtual timeline as one with it
   off; only host time and allocation differ.

   Stacked as [Make (Retrans_layer.Make (Make (Channel_transport)))],
   the inner shim adds the duration of every call into the channel layer
   to a per-connection [link], and the outer shim subtracts that from
   each retransmission-layer span to get the layer's self time. *)

module Transport = Flipc_flow.Transport

type recorder = {
  on : bool;
  mutable send_ns : int list;  (** blocking [send] spans *)
  mutable self_ns : int list;  (** [send] spans minus time in the layer below *)
  mutable try_sends : int;
  mutable frames : int;  (** sends the layer accepted *)
  mutable no_buffer : int;  (** sends refused with [`No_buffer] *)
}

let recorder ~on () =
  { on; send_ns = []; self_ns = []; try_sends = 0; frames = 0; no_buffer = 0 }

(* Virtual ns a connection spent inside the layer below the shim that
   reads it. *)
type link = { mutable below_ns : int }

let link () = { below_ns = 0 }

module Make (T : Transport.S) = struct
  type t = { base : T.t; r : recorder; up : link option; down : link option }

  let wrap ?up ?down r base = { base; r; up; down }
  let base t = t.base
  let below t = match t.down with Some l -> l.below_ns | None -> 0

  (* Charge [d] virtual ns to the layer above. *)
  let charge t d =
    match t.up with Some l -> l.below_ns <- l.below_ns + d | None -> ()

  let count t = function
    | Ok () -> t.r.frames <- t.r.frames + 1
    | Error `No_buffer -> t.r.no_buffer <- t.r.no_buffer + 1
    | Error _ -> ()

  let capacity t = T.capacity t.base
  let now t = T.now t.base
  let close t = T.close t.base

  let idle t =
    if not t.r.on then T.idle t.base
    else begin
      let t0 = T.now t.base in
      T.idle t.base;
      charge t (T.now t.base - t0)
    end

  let pump t =
    if not t.r.on then T.pump t.base
    else begin
      let t0 = T.now t.base in
      let v = T.pump t.base in
      charge t (T.now t.base - t0);
      v
    end

  let try_send t b =
    if not t.r.on then T.try_send t.base b
    else begin
      let t0 = T.now t.base in
      let v = T.try_send t.base b in
      charge t (T.now t.base - t0);
      t.r.try_sends <- t.r.try_sends + 1;
      count t v;
      v
    end

  let send t ~deadline b =
    if not t.r.on then T.send t.base ~deadline b
    else begin
      let t0 = T.now t.base and b0 = below t in
      let v = T.send t.base ~deadline b in
      let d = T.now t.base - t0 in
      charge t d;
      t.r.send_ns <- d :: t.r.send_ns;
      t.r.self_ns <- (d - (below t - b0)) :: t.r.self_ns;
      count t v;
      v
    end

  let recv t =
    if not t.r.on then T.recv t.base
    else begin
      let t0 = T.now t.base in
      let v = T.recv t.base in
      charge t (T.now t.base - t0);
      v
    end

  let recv_deadline t ~deadline =
    if not t.r.on then T.recv_deadline t.base ~deadline
    else begin
      let t0 = T.now t.base in
      let v = T.recv_deadline t.base ~deadline in
      charge t (T.now t.base - t0);
      v
    end
end

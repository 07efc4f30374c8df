(* Frames on the base transport carry a one-byte tag:
     tag 0: data [0x00 | seq int32 LE | application payload]
     tag 1: ack  [0x01 | cum int32 LE | SACK bitmap int64 LE]
   Sequence numbers start at 1 per direction. Both acknowledgement
   fields are monotone descriptions of receiver state (the receiver
   never gives a frame back), so any later ack supersedes a lost one.
   Go-back-N differs only at the receiver: it never buffers out of
   order, so its SACK bitmap stays empty and every sender timeout
   resends the whole window. *)

type mode = Selective_repeat | Go_back_n

type config = {
  window : int;
  rto_ns : int;
  max_rto_ns : int;
  ack_every : int;
  max_retries : int;
  mode : mode;
}

let default_config =
  {
    window = 8;
    rto_ns = 1_000_000;
    max_rto_ns = 8_000_000;
    ack_every = 1;
    max_retries = 30;
    mode = Selective_repeat;
  }

let sack_width = 64
let tag_data = '\000'
let tag_ack = '\001'
let data_header = 5
let ack_bytes = 13

let validate c =
  if c.window < 1 then invalid_arg "Retrans_layer: window < 1";
  if c.window > sack_width then
    invalid_arg "Retrans_layer: window exceeds SACK bitmap width";
  if c.rto_ns < 1 || c.max_rto_ns < c.rto_ns then
    invalid_arg "Retrans_layer: bad timeout bounds";
  if c.ack_every < 1 then invalid_arg "Retrans_layer: ack_every < 1";
  if c.max_retries < 1 then invalid_arg "Retrans_layer: max_retries < 1"

let popcount64 bits =
  let rec go b n =
    if b = 0L then n else go (Int64.logand b (Int64.pred b)) (n + 1)
  in
  go bits 0

module Make (T : Transport.S) = struct
  type pending = {
    seq : int;
    payload : Bytes.t;
    mutable retries : int;
    mutable sacked : bool;
  }

  type t = {
    base : T.t;
    cfg : config;
    tap : Transport.tap option;
    (* sender direction *)
    inflight : pending Queue.t;
    mutable next_seq : int;
    mutable s_acked : int;
    mutable timer : int; (* virtual time of the last protocol progress *)
    mutable rto_cur : int;
    mutable s_retransmits : int;
    mutable s_backpressure : int; (* data frames the base refused *)
    (* receiver direction *)
    rxq : Bytes.t Queue.t; (* in-order, ready for the application *)
    ooo : (int, Bytes.t * int) Hashtbl.t; (* payload, carrying msg id *)
    mutable expected : int;
    mutable pending_ack : int;
    mutable anomalies : int;
    mutable last_ack_at : int;
    mutable ack_due : bool; (* an ack hit backpressure; retry *)
    mutable r_delivered : int;
    mutable r_duplicates : int;
    mutable r_reordered : int;
    mutable r_ooo_buffered : int;
    mutable r_acks_sent : int;
    mutable r_reacks_suppressed : int;
    mutable closed : bool;
  }

  let create base ?tap ?(config = default_config) () =
    validate config;
    let t =
      {
        base;
        cfg = config;
        tap;
        inflight = Queue.create ();
        next_seq = 1;
        s_acked = 0;
        timer = T.now base;
        rto_cur = config.rto_ns;
        s_retransmits = 0;
        s_backpressure = 0;
        rxq = Queue.create ();
        ooo = Hashtbl.create 16;
        expected = 0;
        pending_ack = 0;
        anomalies = 0;
        last_ack_at = T.now base;
        ack_due = false;
        r_delivered = 0;
        r_duplicates = 0;
        r_reordered = 0;
        r_ooo_buffered = 0;
        r_acks_sent = 0;
        r_reacks_suppressed = 0;
        closed = false;
      }
    in
    Transport.probes tap ~layer:"retrans"
      [
        ("retransmits", fun () -> t.s_retransmits);
        ("acked", fun () -> t.s_acked);
        ("inflight", fun () -> Queue.length t.inflight);
        ("rto_ns", fun () -> t.rto_cur);
        ("backpressure", fun () -> t.s_backpressure);
        ("delivered", fun () -> t.r_delivered);
        ("duplicates", fun () -> t.r_duplicates);
        ("reordered", fun () -> t.r_reordered);
        ("acks_sent", fun () -> t.r_acks_sent);
        ("ooo_buffered", fun () -> t.r_ooo_buffered);
        ("ooo_held", fun () -> Hashtbl.length t.ooo);
        ("reacks_suppressed", fun () -> t.r_reacks_suppressed);
      ];
    t

  let capacity t = T.capacity t.base - data_header
  let now t = T.now t.base
  let idle t = T.idle t.base

  (* Bail out of the pump loop on a terminal base-transport error. *)
  exception Terminal of Transport.error

  let ( !! ) = function Ok v -> v | Error e -> raise (Terminal e)

  let sack_bitmap t =
    let bits = ref 0L in
    Hashtbl.iter
      (fun seq _ ->
        let off = seq - t.expected - 1 in
        if off >= 0 && off < sack_width then
          bits := Int64.logor !bits (Int64.shift_left 1L off))
      t.ooo;
    !bits

  let send_ack t =
    let b = Bytes.create ack_bytes in
    let sack = sack_bitmap t in
    Bytes.set b 0 tag_ack;
    Bytes.set_int32_le b 1 (Int32.of_int t.expected);
    Bytes.set_int64_le b 5 sack;
    match T.try_send t.base b with
    | Ok () ->
        t.pending_ack <- 0;
        t.anomalies <- 0;
        t.ack_due <- false;
        t.last_ack_at <- now t;
        t.r_acks_sent <- t.r_acks_sent + 1;
        Transport.emit t.tap (fun tp ->
            Flipc_obs.Event.Ack_tx
              {
                node = tp.Transport.node;
                ep = tp.Transport.ep;
                cum = t.expected;
                sacked = popcount64 sack;
              })
    | Error `No_buffer ->
        (* Base refused transiently; any later ack supersedes this
           one, so just flag the debt and retry from [pump]. *)
        t.ack_due <- true
    | Error e -> raise (Terminal e)

  (* A duplicate or unbufferable frame carries no new state for us,
     but tells the sender its ack was likely lost; re-ack, rate
     limited per [ack_every] anomalies or one RTO of silence. *)
  let maybe_reack t =
    t.anomalies <- t.anomalies + 1;
    if t.anomalies >= t.cfg.ack_every || now t - t.last_ack_at >= t.cfg.rto_ns
    then send_ack t
    else t.r_reacks_suppressed <- t.r_reacks_suppressed + 1

  let apply_sack t ~cum sack =
    if sack <> 0L then
      Queue.iter
        (fun p ->
          if (not p.sacked) && p.seq > cum && p.seq <= cum + sack_width then
            if Int64.logand sack (Int64.shift_left 1L (p.seq - cum - 1)) <> 0L
            then p.sacked <- true)
        t.inflight

  let absorb_ack t frame =
    if Bytes.length frame >= ack_bytes then begin
      let cum = Int32.to_int (Bytes.get_int32_le frame 1) in
      let sack = Bytes.get_int64_le frame 5 in
      apply_sack t ~cum sack;
      if cum > t.s_acked then begin
        t.s_acked <- cum;
        let fresh = ref false in
        while
          (not (Queue.is_empty t.inflight))
          && (Queue.peek t.inflight).seq <= t.s_acked
        do
          if (Queue.pop t.inflight).retries = 0 then fresh := true
        done;
        (* Cumulative progress restarts the timer. The backoff falls
           back to the configured base only once the ack covers a frame
           sent exactly once (Karn): an ack for a retransmitted frame
           may answer an earlier copy still queued behind a congested
           medium, and dropping the backoff then re-fires a whole window
           of spurious retransmissions into that queue. *)
        t.timer <- now t;
        if !fresh then t.rto_cur <- t.cfg.rto_ns
      end
    end

  let release t ~seq ~mid payload =
    t.expected <- seq;
    t.r_delivered <- t.r_delivered + 1;
    Queue.push payload t.rxq;
    Transport.emit t.tap (fun tp ->
        Flipc_obs.Event.Frame_deliver
          { node = tp.Transport.node; ep = tp.Transport.ep; seq; mid })

  let deliver t ~seq ~mid payload =
    release t ~seq ~mid payload;
    (* Close any hole the out-of-order buffer already covers. *)
    let rec chain () =
      match Hashtbl.find_opt t.ooo (t.expected + 1) with
      | None -> ()
      | Some (p, mid) ->
          Hashtbl.remove t.ooo (t.expected + 1);
          release t ~seq:(t.expected + 1) ~mid p;
          chain ()
    in
    chain ();
    t.pending_ack <- t.pending_ack + 1;
    if t.pending_ack >= t.cfg.ack_every then send_ack t

  let absorb_data t frame =
    if Bytes.length frame >= data_header then begin
      let seq = Int32.to_int (Bytes.get_int32_le frame 1) in
      let payload =
        Bytes.sub frame data_header (Bytes.length frame - data_header)
      in
      let mid =
        match t.tap with Some tp -> tp.Transport.rx_mid () | None -> 0
      in
      if seq < 1 then () (* not a frame of ours *)
      else if seq = t.expected + 1 then deliver t ~seq ~mid payload
      else if seq <= t.expected || Hashtbl.mem t.ooo seq then begin
        t.r_duplicates <- t.r_duplicates + 1;
        maybe_reack t
      end
      else begin
        t.r_reordered <- t.r_reordered + 1;
        if t.cfg.mode = Selective_repeat && seq <= t.expected + sack_width
        then begin
          (* Buffer out of order and ack immediately: the fresh SACK bit
             is what stops the sender retransmitting this frame. *)
          Hashtbl.replace t.ooo seq (payload, mid);
          t.r_ooo_buffered <- t.r_ooo_buffered + 1;
          send_ack t
        end
        else maybe_reack t (* go-back-N, or beyond the bitmap *)
      end
    end

  let frame_tx t ~seq ~retransmit =
    Transport.emit t.tap (fun tp ->
        Flipc_obs.Event.Frame_tx
          {
            node = tp.Transport.node;
            ep = tp.Transport.ep;
            seq;
            mid = tp.Transport.tx_mid ();
            retransmit;
          })

  let check_retransmit t =
    if
      (not (Queue.is_empty t.inflight))
      && now t - t.timer >= t.rto_cur
    then begin
      if (Queue.peek t.inflight).retries >= t.cfg.max_retries then
        raise (Terminal `Peer_dead);
      let sent_any = ref false in
      let blocked = ref false in
      let all_sacked = ref true in
      Queue.iter
        (fun p ->
          if not p.sacked then begin
            all_sacked := false;
            if not !blocked then begin
              let frame = Bytes.create (data_header + Bytes.length p.payload) in
              Bytes.set frame 0 tag_data;
              Bytes.set_int32_le frame 1 (Int32.of_int p.seq);
              Bytes.blit p.payload 0 frame data_header
                (Bytes.length p.payload);
              match T.try_send t.base frame with
              | Ok () ->
                  sent_any := true;
                  p.retries <- p.retries + 1;
                  t.s_retransmits <- t.s_retransmits + 1;
                  frame_tx t ~seq:p.seq ~retransmit:true
              | Error `No_buffer ->
                  blocked := true;
                  t.s_backpressure <- t.s_backpressure + 1
              | Error e -> raise (Terminal e)
            end
          end)
        t.inflight;
      if !sent_any then begin
        t.rto_cur <- min (t.rto_cur * 2) t.cfg.max_rto_ns;
        t.timer <- now t
      end
      else if !all_sacked then begin
        (* Every hole is SACK-held yet the cumulative counter has not
           moved for a whole RTO: the ack that would advance it is
           evidently lost, and nothing we send will provoke a re-ack.
           SACK state is advisory — treat it as stale and resend on
           the next expiry. *)
        Queue.iter (fun p -> p.sacked <- false) t.inflight;
        t.timer <- now t
      end
      (* else: pure local backpressure — leave the timer armed and
         retry on the next pump; a deadline-bounded caller converts a
         persistent stall into [`Timeout]. *)
    end

  let pump t =
    if t.closed then Error `Closed
    else begin
      try
        !!(T.pump t.base);
        let rec drain () =
          match !!(T.recv t.base) with
          | None -> ()
          | Some frame ->
              (if Bytes.length frame >= 1 then
                 match Bytes.get frame 0 with
                 | c when c = tag_data -> absorb_data t frame
                 | c when c = tag_ack -> absorb_ack t frame
                 | _ -> () (* unknown tag: skip *));
              drain ()
        in
        drain ();
        if t.ack_due then send_ack t;
        check_retransmit t;
        Ok ()
      with Terminal e -> Error e
    end

  let try_send t payload =
    if Bytes.length payload > capacity t then
      invalid_arg "Retrans_layer.try_send: payload exceeds capacity";
    match pump t with
    | Error e -> Error e
    | Ok () ->
        if Queue.length t.inflight >= t.cfg.window then Error `No_buffer
        else begin
          let seq = t.next_seq in
          let copy = Bytes.copy payload in
          let frame = Bytes.create (data_header + Bytes.length copy) in
          Bytes.set frame 0 tag_data;
          Bytes.set_int32_le frame 1 (Int32.of_int seq);
          Bytes.blit copy 0 frame data_header (Bytes.length copy);
          match T.try_send t.base frame with
          | Ok () ->
              if Queue.is_empty t.inflight then t.timer <- now t;
              Queue.push
                { seq; payload = copy; retries = 0; sacked = false }
                t.inflight;
              t.next_seq <- seq + 1;
              frame_tx t ~seq ~retransmit:false;
              Ok ()
          | Error e ->
              if e = `No_buffer then t.s_backpressure <- t.s_backpressure + 1;
              Error e
        end

  let recv t =
    match pump t with
    | Error e -> Error e
    | Ok () -> Ok (Queue.take_opt t.rxq)

  include Transport.Defaults (struct
    type nonrec t = t

    let now = now
    let idle = idle
    let pump = pump
    let try_send = try_send
    let recv = recv
  end)

  let flush t ~deadline =
    let rec loop () =
      match pump t with
      | Error e -> Error e
      | Ok () ->
          if Queue.is_empty t.inflight then Ok ()
          else if now t > deadline then Error `Timeout
          else begin
            idle t;
            loop ()
          end
    in
    loop ()

  let close t =
    t.closed <- true;
    T.close t.base

  let in_flight t = Queue.length t.inflight
  let acked t = t.s_acked
  let delivered t = t.r_delivered
  let duplicates t = t.r_duplicates
  let retransmits t = t.s_retransmits
  let ooo_held t = Hashtbl.length t.ooo
  let reordered t = t.r_reordered
  let ooo_buffered t = t.r_ooo_buffered
  let acks_sent t = t.r_acks_sent
  let reacks_suppressed t = t.r_reacks_suppressed
  let backpressure t = t.s_backpressure
  let rto_current_ns t = t.rto_cur
end

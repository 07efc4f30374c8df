type error =
  [ `Timeout | `Closed | `No_buffer | `Peer_dead | `Api of Flipc.Api.error ]

let error_to_string = function
  | `Timeout -> "deadline passed"
  | `Closed -> "connection closed"
  | `No_buffer -> "transient backpressure"
  | `Peer_dead -> "peer unreachable (retry budget exhausted)"
  | `Api e -> "transport: " ^ Flipc.Api.error_to_string e

type tap = {
  obs : Flipc_obs.Obs.t;
  node : int;
  ep : int;
  tx_mid : unit -> int;
  rx_mid : unit -> int;
}

let emit tap ev =
  match tap with
  | Some tp when Flipc_obs.Obs.tracing tp.obs ->
      Flipc_obs.Obs.event tp.obs (ev tp)
  | _ -> ()

let probes tap ~layer fields =
  match tap with
  | None -> ()
  | Some tp ->
      let pfx = Printf.sprintf "node%d.%s.ep%d." tp.node layer tp.ep in
      List.iter
        (fun (name, f) ->
          Flipc_obs.Metrics.probe
            (Flipc_obs.Obs.metrics tp.obs)
            (pfx ^ name)
            (fun () -> float_of_int (f ())))
        fields

module type S = sig
  type t

  val capacity : t -> int
  val now : t -> Flipc_sim.Vtime.t
  val idle : t -> unit
  val pump : t -> (unit, error) result
  val try_send : t -> Bytes.t -> (unit, error) result
  val send : t -> deadline:Flipc_sim.Vtime.t -> Bytes.t -> (unit, error) result
  val recv : t -> (Bytes.t option, error) result

  val recv_deadline :
    t -> deadline:Flipc_sim.Vtime.t -> (Bytes.t, error) result

  val close : t -> unit
end

module type CORE = sig
  type t

  val now : t -> Flipc_sim.Vtime.t
  val idle : t -> unit
  val pump : t -> (unit, error) result
  val try_send : t -> Bytes.t -> (unit, error) result
  val recv : t -> (Bytes.t option, error) result
end

module Defaults (C : CORE) = struct
  let send t ~deadline payload =
    let rec loop () =
      match C.try_send t payload with
      | Ok () -> Ok ()
      | Error `No_buffer ->
          if C.now t >= deadline then Error `Timeout
          else begin
            C.idle t;
            match C.pump t with Error e -> Error e | Ok () -> loop ()
          end
      | Error e -> Error e
    in
    loop ()

  let recv_deadline t ~deadline =
    let rec loop () =
      match C.recv t with
      | Ok (Some payload) -> Ok payload
      | Ok None ->
          if C.now t >= deadline then Error `Timeout
          else begin
            C.idle t;
            loop ()
          end
      | Error e -> Error e
    in
    loop ()
end

module Group (T : S) = struct
  type t = {
    mutable members : T.t array;
    mutable next : int;
    sem : Flipc_rt.Rt_semaphore.t option;
  }

  let create ?semaphore () = { members = [||]; next = 0; sem = semaphore }
  let semaphore t = t.sem

  let add t conn =
    t.members <- Array.append t.members [| conn |];
    (* Close the lost-wakeup window (same rule as
       [Endpoint_group.add]): traffic deposited on [conn] before it
       joined already consumed its post while no scan could surface
       it. One spurious post makes every blocked waiter rescan; the
       Mesa-style wait loop absorbs it when the scan comes up empty. *)
    match t.sem with
    | Some sem -> Flipc_rt.Rt_semaphore.post sem
    | None -> ()

  let length t = Array.length t.members

  let remove t conn =
    let removed = ref (-1) in
    Array.iteri (fun i c -> if c == conn then removed := i) t.members;
    match !removed with
    | -1 -> ()
    | i ->
        let n = Array.length t.members in
        t.members <-
          Array.init (n - 1) (fun j ->
              if j < i then t.members.(j) else t.members.(j + 1));
        (* Keep the cursor on the member that would have been scanned
           next: slots above the removed one shift down by one, and
           removing the cursor's own slot leaves its successor in
           place. Clamp when the tail member was both cursor and
           victim. *)
        if t.next > i then t.next <- t.next - 1;
        if t.next >= Array.length t.members then t.next <- 0

  let recv_any t =
    let n = Array.length t.members in
    if n = 0 then Ok None
    else begin
      let rec scan k =
        if k = n then Ok None
        else begin
          let i = (t.next + k) mod n in
          let conn = t.members.(i) in
          match T.recv conn with
          | Ok (Some payload) ->
              t.next <- (i + 1) mod n;
              Ok (Some (conn, payload))
          | Ok None -> scan (k + 1)
          | Error e -> Error e
        end
      in
      scan 0
    end

  let recv_any_deadline t ~deadline =
    let rec loop () =
      match recv_any t with
      | Ok (Some hit) -> Ok hit
      | Error e -> Error e
      | Ok None ->
          if Array.length t.members = 0 then Error `Closed
          else begin
            let pacer = t.members.(0) in
            if T.now pacer >= deadline then Error `Timeout
            else begin
              T.idle pacer;
              loop ()
            end
          end
    in
    loop ()

  (* Blocking receive-any over the rt semaphore: instead of burning
     idle polls, the calling scheduler thread sleeps until an engine
     posts the shared semaphore (every member's receive endpoint must
     be allocated with it — [Channel_transport.create ?semaphore]).
     Wakeups are hints, not tokens: a post can predate membership or
     belong to a message another consumer already took, so each wake
     triggers a full fair rescan and an empty scan simply waits
     again. *)
  let recv_any_wait t thr =
    match t.sem with
    | None -> invalid_arg "Transport.Group.recv_any_wait: no group semaphore"
    | Some sem ->
        let rec loop () =
          match recv_any t with
          | Ok (Some hit) -> Ok hit
          | Error e -> Error e
          | Ok None ->
              Flipc_rt.Rt_semaphore.wait sem thr;
              loop ()
        in
        loop ()
end

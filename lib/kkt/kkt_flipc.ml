module Machine = Flipc.Machine
module Address = Flipc.Address
module Msg_engine = Flipc.Msg_engine
module Nic = Flipc_net.Nic

let transport kkt ~node ~nic ~node_count ~deliver =
  Kkt.attach kkt ~nic;
  Kkt.serve kkt ~node (fun image ->
      deliver image;
      Bytes.create 0);
  {
    Msg_engine.tname = "kkt";
    transmit =
      (fun ~dst image ->
        if Address.is_null dst then Error `Bad_dest
        else
          let dnode = Address.node dst in
          if dnode < 0 || dnode >= node_count then Error `Bad_dest
          else begin
            (* One RPC per message: the engine blocks until the remote
               kernel acknowledges — the structural mismatch the paper
               reports for one-way messaging over KKT. *)
            ignore (Kkt.call kkt ~src:node ~dst:dnode image : Bytes.t);
            Ok ()
          end);
  }

let machine ?config kind () =
  (* The KKT domain needs the simulation engine, which Machine.create
     builds; create our own and rely on the maker being called during
     boot. We therefore construct the domain lazily at first maker call. *)
  let domain = ref None in
  let maker ~node ~nic ~node_count ~deliver =
    let kkt =
      match !domain with
      | Some kkt -> kkt
      | None ->
          let kkt =
            (* RPC payloads are flipc wire images, so the stamped
               message id is recoverable and KKT lifecycle events join
               the message's causal span. *)
            Kkt.create ~mid_of:Flipc.Msg_buffer.msg_id_of_image
              ~sim:(Nic.engine nic) ()
          in
          domain := Some kkt;
          kkt
    in
    transport kkt ~node ~nic ~node_count ~deliver
  in
  let m = Machine.create ?config ~transport:maker kind () in
  (match !domain with Some kkt -> Kkt.set_obs kkt (Machine.obs m) | None -> ());
  m

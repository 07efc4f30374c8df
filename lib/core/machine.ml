module Sim = Flipc_sim.Engine
module Cost_model = Flipc_memsim.Cost_model
module Shared_mem = Flipc_memsim.Shared_mem
module Cache = Flipc_memsim.Cache
module Bus = Flipc_memsim.Bus
module Mem_port = Flipc_memsim.Mem_port
module Topology = Flipc_net.Topology
module Mesh = Flipc_net.Mesh
module Ethernet = Flipc_net.Ethernet
module Scsi_bus = Flipc_net.Scsi_bus
module Fabric = Flipc_net.Fabric
module Nic = Flipc_net.Nic
module Dma = Flipc_net.Dma
module Packet = Flipc_net.Packet
module Sched = Flipc_rt.Sched
module Rt_semaphore = Flipc_rt.Rt_semaphore

type fabric_kind =
  | Mesh of { cols : int; rows : int }
  | Ethernet of { nodes : int }
  | Scsi of { nodes : int }

type transport_maker =
  node:int ->
  nic:Nic.t ->
  node_count:int ->
  deliver:(Bytes.t -> unit) ->
  Msg_engine.transport

(* The native optimistic transport: transmit is a one-way packet send; the
   NIC's FLIPC-protocol callback hands arriving images straight to the
   engine (waking it if parked). *)
let native_transport ~node ~nic ~node_count ~deliver =
  Nic.set_callback nic Packet.Flipc (fun p -> deliver p.Packet.payload);
  {
    Msg_engine.tname = "native";
    transmit =
      (fun ~dst image ->
        if Address.is_null dst then Error `Bad_dest
        else
          let dnode = Address.node dst in
          if dnode < 0 || dnode >= node_count then Error `Bad_dest
          else begin
            Nic.send nic
              (Packet.make ~src:node ~dst:dnode ~protocol:Packet.Flipc
                 ~tag:(Address.endpoint dst) image);
            Ok ()
          end);
  }

type node = {
  id : int;
  mem : Shared_mem.t;
  bus : Bus.t;
  cpu_ports : Mem_port.t array;
  coproc_port : Mem_port.t;
  comms : Comm_buffer.t array;
  engines : Msg_engine.t array;  (* one per shard; index = shard id *)
  nic : Nic.t;
  dma : Dma.t;
  sched : Sched.t;
  apis : Api.t option array array;  (* indexed [comm].(cpu) *)
  heap_base : int;
  mutable heap_next : int;
  heap_end : int;
}

type t = {
  sim : Sim.t;
  fabric : Fabric.t;
  config : Config.t;
  nodes : node array;
  names : Nameservice.t;
  obs : Flipc_obs.Obs.t;
}

let round_up n m = (n + m - 1) / m * m

(* Application CPUs per node, as on the Paragon's MP3 nodes. *)
let cpus_per_node = 2
let heap_bytes = 256 * 1024

let make_node ~sim ~fabric ~config ~cost ~transport_maker ~comm_buffers id =
  let layout = Layout.compute config in
  let region_stride = round_up (Layout.total_bytes layout) 4096 in
  let mem_bytes = max 4096 (comm_buffers * region_stride) + heap_bytes in
  let mem = Shared_mem.create ~size:mem_bytes in
  let bus = Bus.create ~cost () in
  let make_port name =
    let cache = Cache.create ~name () in
    Mem_port.create ~engine:sim ~mem ~bus ~cache ~name
  in
  let cpu_ports =
    Array.init cpus_per_node (fun cpu ->
        make_port (Printf.sprintf "n%d-cpu%d" id cpu))
  in
  let coproc_port = make_port (Printf.sprintf "n%d-coproc" id) in
  let comms =
    Array.init comm_buffers (fun k ->
        Comm_buffer.create ~base:(k * region_stride)
          ~ep_offset:(k * config.Config.endpoints)
          config mem)
  in
  let nic = Nic.create ~engine:sim ~fabric ~node:id in
  let dma =
    Dma.create ~engine:sim ~mem ~bus ~setup_ns:config.Config.dma_setup_ns
      ~ns_per_byte:config.Config.dma_ns_per_byte
  in
  let node_count = fabric.Fabric.node_count in
  let shards = config.Config.engine_shards in
  (* The transport maker needs a delivery path before the engines exist;
     break the cycle with a forward reference. Arrivals route to the
     shard owning the destination endpoint — the same [owner_shard] map
     the doorbell-poke path uses, so a shard only ever sees frames for
     endpoints it drains. Null or unresolvable destinations go to shard
     0, whose unroutable counter keeps the node-level accounting. *)
  let engines_ref = ref [||] in
  let deliver image =
    let engines = !engines_ref in
    if Array.length engines > 0 then
      let shard =
        if shards = 1 then 0
        else
          let dest = Msg_buffer.dest_of_image image in
          if Address.is_null dest then 0
          else Msg_engine.owner_shard ~count:shards (Address.endpoint dest)
      in
      Msg_engine.deliver engines.(shard) image
  in
  let transport = transport_maker ~node:id ~nic ~node_count ~deliver in
  let engines =
    Array.init shards (fun shard ->
        Msg_engine.create ~shard:(shard, shards) ~sim ~node:id
          ~comms:(Array.to_list comms) ~port:coproc_port ~dma ~transport ())
  in
  engines_ref := engines;
  Array.iter
    (fun engine ->
      Msg_engine.set_wakeup_hook engine (fun ~ep ->
          (* The hook receives a node-global endpoint index. *)
          let eps = config.Config.endpoints in
          let comm = comms.(ep / eps) in
          match Comm_buffer.semaphore comm ~ep:(ep mod eps) with
          | Some sem -> Rt_semaphore.post sem
          | None -> ()))
    engines;
  let sched = Sched.create ~engine:sim ~cpus:cpus_per_node in
  {
    id;
    mem;
    bus;
    cpu_ports;
    coproc_port;
    comms;
    engines;
    nic;
    dma;
    sched;
    apis = Array.init comm_buffers (fun _ -> Array.make cpus_per_node None);
    heap_base = mem_bytes - heap_bytes;
    heap_next = mem_bytes - heap_bytes;
    heap_end = mem_bytes;
  }

(* Untimed scan of a node's allocated endpoints: [(global, layout, local)]
   for every endpoint whose [Ep_type] word is not the free marker. Peeks
   only, so it is safe outside simulation processes (flight-recorder dumps
   run from plain host code). *)
let allocated_endpoints n =
  Array.to_list n.comms
  |> List.concat_map (fun c ->
         let layout = Comm_buffer.layout c in
         let eps = (Comm_buffer.config c).Config.endpoints in
         let off = Comm_buffer.ep_offset c in
         List.filter_map
           (fun ep ->
             let w =
               Mem_port.peek n.coproc_port
                 (Layout.ep_field layout ~ep Layout.Ep_type)
             in
             if w = Endpoint_kind.free_word then None
             else Some (off + ep, layout, ep))
           (List.init eps Fun.id))

(* Flight-recorder contribution ({!Flipc_obs.Obs.add_reporter}): engine
   counters and the cursor state of every allocated endpoint queue. *)
let flight_report t fmt =
  Array.iter
    (fun n ->
      Array.iter
        (fun engine ->
          let s = Msg_engine.stats engine in
          let shard_tag =
            if Msg_engine.shard_count engine = 1 then ""
            else Printf.sprintf " s%d" (Msg_engine.shard engine)
          in
          Format.fprintf fmt
            "node %d:%s engine iters=%d sends=%d recvs=%d drops=%d parks=%d@,"
            n.id shard_tag s.Msg_engine.iterations s.Msg_engine.sends
            s.Msg_engine.recvs s.Msg_engine.drops s.Msg_engine.parks)
        n.engines;
      List.iter
        (fun (gep, layout, ep) ->
          let q = Buffer_queue.snapshot n.coproc_port layout ~ep in
          Format.fprintf fmt
            "  ep %d: rel=%d proc=%d acq=%d (to_process=%d to_acquire=%d)%s@,"
            gep q.Buffer_queue.release q.Buffer_queue.process
            q.Buffer_queue.acquire
            (Buffer_queue.to_process q)
            (Buffer_queue.to_acquire q)
            (if Buffer_queue.well_formed q then "" else "  ** MALFORMED **"))
        (allocated_endpoints n))
    t.nodes

let create ?(config = Config.default) ?(transport = native_transport)
    ?(comm_buffers = 1) ?fault ?fault_links kind () =
  if comm_buffers < 1 then invalid_arg "Machine.create: comm_buffers < 1";
  let config = Config.validate_exn config in
  let sim = Sim.create () in
  let obs = Flipc_obs.Obs.create ~sim () in
  (* The fabric names the platform, and the platform fixes the memory
     system: the Paragon's MP3 nodes on the mesh, PCs on the Ethernet
     and SCSI development clusters. *)
  let fabric, cost =
    match kind with
    | Mesh { cols; rows } ->
        ( Mesh.create ~engine:sim ~topology:(Topology.create ~cols ~rows)
            ~config:Mesh.paragon_config,
          Cost_model.paragon )
    | Ethernet { nodes } ->
        ( Ethernet.create ~engine:sim ~node_count:nodes
            ~config:Ethernet.default_config,
          Cost_model.pc_cluster )
    | Scsi { nodes } ->
        ( Scsi_bus.create ~engine:sim ~node_count:nodes
            ~config:Scsi_bus.default_config,
          Cost_model.pc_cluster )
  in
  let fabric =
    match (fault, fault_links) with
    | None, None -> fabric
    | fc, links ->
        (* Per-link overrides alone still need a wrapper; the fabric-wide
           config defaults to clean so only the named links fault. *)
        let fc = Option.value fc ~default:Flipc_net.Faulty.none in
        Flipc_net.Faulty.wrap ~engine:sim ~config:fc ?links ~obs fabric
  in
  let nodes =
    Array.init fabric.Fabric.node_count
      (make_node ~sim ~fabric ~config ~cost ~transport_maker:transport
         ~comm_buffers)
  in
  Array.iter
    (fun n ->
      Array.iter
        (fun engine ->
          Msg_engine.set_obs engine obs;
          Msg_engine.start engine)
        n.engines)
    nodes;
  Flipc_obs.Obs.set_label obs
    (Printf.sprintf "flipc %s (%d nodes)" fabric.Fabric.name
       fabric.Fabric.node_count);
  let t = { sim; fabric; config; nodes; names = Nameservice.create (); obs } in
  Flipc_obs.Obs.add_reporter obs (fun fmt -> flight_report t fmt);
  t

let sim t = t.sim
let obs t = t.obs
let names t = t.names
let fabric t = t.fabric
let fault_stats t = Flipc_net.Faulty.stats_of t.fabric
let config t = t.config
let node_count t = Array.length t.nodes

let node t i =
  if i < 0 || i >= Array.length t.nodes then invalid_arg "Machine.node: bad id";
  t.nodes.(i)

let node_id n = n.id
let mem n = n.mem
let dma n = n.dma
let comm n = n.comms.(0)
let comm_buffers n = Array.length n.comms

let comm_at n k =
  if k < 0 || k >= Array.length n.comms then
    invalid_arg "Machine.comm_at: bad communication buffer index";
  n.comms.(k)

(* Bump allocation from the node's application heap (the memory above the
   communication buffer), 32-byte aligned for DMA friendliness. *)
let alloc_heap n bytes =
  if bytes <= 0 then invalid_arg "Machine.alloc_heap: bytes <= 0";
  let base = round_up n.heap_next 32 in
  if base + bytes > n.heap_end then failwith "Machine.alloc_heap: heap exhausted";
  n.heap_next <- base + bytes;
  base

let heap_remaining n = n.heap_end - round_up n.heap_next 32
let msg_engine n = n.engines.(0)
let msg_engines n = Array.to_list n.engines
let nic n = n.nic
let bus n = n.bus
let sched n = n.sched
let app_cpus n = Array.length n.cpu_ports

let app_port n ~cpu =
  if cpu < 0 || cpu >= Array.length n.cpu_ports then
    invalid_arg "Machine.app_port: bad cpu";
  n.cpu_ports.(cpu)

let coproc_port n = n.coproc_port

let api t ~node:i ?(cpu = 0) ?(comm = 0) () =
  let n = node t i in
  let c = comm_at n comm in
  match n.apis.(comm).(cpu) with
  | Some api -> api
  | None ->
      let api =
        Api.attach ~comm:c ~port:(app_port n ~cpu) ~engines:n.engines
      in
      n.apis.(comm).(cpu) <- Some api;
      api

let spawn_app ?name ?(cpu = 0) ?(comm = 0) t ~node:i f =
  let a = api t ~node:i ~cpu ~comm () in
  Sim.spawn ?name t.sim (fun () -> f a)

let spawn_thread ?name ?(comm = 0) t ~node:i ~priority f =
  let n = node t i in
  let a = api t ~node:i ~cpu:0 ~comm () in
  Sched.spawn ?name n.sched ~priority (fun thr -> f thr a)

let attach_monitor t =
  let m = Flipc_obs.Monitor.attach t.obs in
  Array.iter
    (fun n ->
      Flipc_obs.Monitor.add_check m ~rule:"queue.pointer_order" ~node:n.id
        (fun () ->
          List.fold_left
            (fun acc (gep, layout, ep) ->
              match acc with
              | Some _ -> acc
              | None ->
                  let q = Buffer_queue.snapshot n.coproc_port layout ~ep in
                  if Buffer_queue.well_formed q then None
                  else
                    Some
                      (Printf.sprintf
                         "endpoint %d queue cursors out of order: release=%d \
                          process=%d acquire=%d (capacity %d)"
                         gep q.Buffer_queue.release q.Buffer_queue.process
                         q.Buffer_queue.acquire q.Buffer_queue.capacity))
            None (allocated_endpoints n)))
    t.nodes;
  m

let run ?until t = Sim.run ?until t.sim

let stop_engines t =
  Array.iter (fun n -> Array.iter Msg_engine.stop n.engines) t.nodes

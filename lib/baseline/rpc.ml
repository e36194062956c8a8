open Eden_util
open Eden_sim
open Eden_net
open Eden_hw
open Eden_kernel

type msg =
  | Call of {
      call_id : int * int;  (* origin node, sequence *)
      proc : string;
      args : Value.t list;
      reply_to : int;
    }
  | Reply of {
      call_id : int * int;
      result : (Value.t list, Error.t) result;
    }

let msg_size = function
  | Call { proc; args; _ } ->
    32 + String.length proc + Value.list_size_bytes args
  | Reply { result; _ } -> (
    32 + match result with Ok vs -> Value.list_size_bytes vs | Error _ -> 8)

type node = {
  n_id : int;
  n_machine : Machine.t;
  n_link : msg Msglink.t;
  n_procs : (string, handler) Hashtbl.t;
  n_pending : (int, (Value.t list, Error.t) result Promise.t) Hashtbl.t;
  n_seq : Idgen.t;
}

and ctx = {
  rpc_node : int;
  rpc_compute : Time.t -> unit;
  rpc_call :
    ?timeout:Time.t ->
    node:int ->
    proc:string ->
    Value.t list ->
    (Value.t list, Error.t) result;
}

and handler = ctx -> Value.t list -> (Value.t list, Error.t) result

and t = { eng : Engine.t; nodes : node array }

let engine f = f.eng
let node_count f = Array.length f.nodes

let node_of f i =
  if i < 0 || i >= Array.length f.nodes then
    invalid_arg (Printf.sprintf "Rpc: no such node %d" i)
  else f.nodes.(i)

let costs node = (Machine.config node.n_machine).Machine.costs
let consume node t = Cpu.consume (Machine.cpu node.n_machine) t

let rec make_ctx f node =
  {
    rpc_node = node.n_id;
    rpc_compute = (fun t -> consume node t);
    rpc_call = (fun ?timeout ~node:dst ~proc args ->
        do_call f ~from:node.n_id ?timeout ~node:dst ~proc args);
  }

(* Run a procedure on its node and hand the result to [reply]. *)
and serve f node proc args reply =
  consume node (costs node).Costs.invoke_dispatch_cpu;
  match Hashtbl.find_opt node.n_procs proc with
  | None -> reply (Error (Error.No_such_operation proc))
  | Some h ->
    consume node (costs node).Costs.process_create_cpu;
    let result =
      try h (make_ctx f node) args with
      | Engine.Killed as e -> raise e
      | exn -> Error (Error.User_error (Printexc.to_string exn))
    in
    reply result

and do_call f ~from ?timeout ~node:dst ~proc args =
  let origin = node_of f from in
  consume origin (costs origin).Costs.invoke_request_cpu;
  if dst = from then begin
    (* Local procedure: no marshalling, no network. *)
    let cell = ref None in
    serve f origin proc args (fun r -> cell := Some r);
    match !cell with
    | Some r -> r
    | None -> Error (Error.User_error "rpc: handler did not reply")
  end
  else begin
    let target = node_of f dst in
    ignore target;
    consume origin
      (Costs.copy_cost (costs origin) ~bytes:(Value.list_size_bytes args));
    let seq = Idgen.next origin.n_seq in
    let pr = Promise.create f.eng in
    Hashtbl.replace origin.n_pending seq pr;
    Msglink.send origin.n_link ~dst
      (Call { call_id = (from, seq); proc; args; reply_to = from });
    let r =
      match Promise.await ?timeout pr with
      | Some r ->
        (match r with
        | Ok vs ->
          consume origin (costs origin).Costs.invoke_reply_cpu;
          consume origin
            (Costs.copy_cost (costs origin) ~bytes:(Value.list_size_bytes vs))
        | Error _ -> ());
        r
      | None -> Error Error.Timeout
    in
    Hashtbl.remove origin.n_pending seq;
    r
  end

let on_message f node ~src:_ msg =
  match msg with
  | Call { call_id; proc; args; reply_to } ->
    let pid =
      Engine.spawn f.eng ~name:(Printf.sprintf "rpc:%s" proc) (fun () ->
          consume node
            (Costs.copy_cost (costs node)
               ~bytes:(Value.list_size_bytes args));
          serve f node proc args (fun result ->
              Msglink.send node.n_link ~dst:reply_to
                (Reply { call_id; result })))
    in
    Engine.set_daemon f.eng pid
  | Reply { call_id = _, seq; result } -> (
    match Hashtbl.find_opt node.n_pending seq with
    | Some pr -> ignore (Promise.fill pr result)
    | None -> () (* late reply after timeout *))

let create ?(seed = 42L) ?net ~configs () =
  if configs = [] then invalid_arg "Rpc.create: no machine configs";
  let eng = Engine.create ~seed () in
  let lan = Msglink.create_lan ?params:net eng in
  let nodes =
    Array.of_list
      (List.map
         (fun cfg ->
           let machine = Machine.create eng cfg in
           let link = Msglink.attach lan ~name:cfg.Machine.name ~size:msg_size in
           {
             n_id = Msglink.address link;
             n_machine = machine;
             n_link = link;
             n_procs = Hashtbl.create 16;
             n_pending = Hashtbl.create 16;
             n_seq = Idgen.create ();
           })
         configs)
  in
  let f = { eng; nodes } in
  Array.iter
    (fun node ->
      Msglink.on_message node.n_link (fun ~src msg -> on_message f node ~src msg))
    nodes;
  f

let default ?seed ~n_nodes () =
  if n_nodes < 1 then invalid_arg "Rpc.default: need at least one node";
  create ?seed
    ~configs:
      (List.init n_nodes (fun i ->
           Machine.default_config ~name:(Printf.sprintf "rpc%d" i)))
    ()

let register f ~node ~proc handler =
  let n = node_of f node in
  if Hashtbl.mem n.n_procs proc then
    invalid_arg
      (Printf.sprintf "Rpc.register: %S already registered on node %d" proc
         node)
  else Hashtbl.replace n.n_procs proc handler

let call f ~from ?timeout ~node ~proc args =
  do_call f ~from ?timeout ~node ~proc args

let in_process f ?(name = "driver") body = Engine.spawn f.eng ~name body
let run ?until f = Engine.run ?until f.eng

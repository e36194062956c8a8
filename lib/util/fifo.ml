(* [data] starts empty and is allocated on the first push: most queues
   (one per promise or mailbox) never hold more than one element, and
   many never hold any.  The first buffer is a literal, allocated inline
   with no call into the runtime. *)
type 'a t = {
  capacity : int option;
  mutable data : 'a option array;
  mutable head : int; (* index of front element *)
  mutable size : int;
}

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Fifo.create: capacity must be positive"
  | Some _ | None -> ());
  { capacity; data = [||]; head = 0; size = 0 }

let length q = q.size

let is_full q =
  match q.capacity with
  | None -> false
  | Some c -> q.size >= c

let grow q =
  let cap = Array.length q.data in
  if cap = 0 then
    q.data <- [| None; None; None; None; None; None; None; None |]
  else if q.size = cap then begin
    let ndata = Array.make (cap * 2) None in
    for i = 0 to q.size - 1 do
      ndata.(i) <- q.data.((q.head + i) mod cap)
    done;
    q.data <- ndata;
    q.head <- 0
  end

let push q v =
  if is_full q then false
  else begin
    grow q;
    let tail = (q.head + q.size) mod Array.length q.data in
    q.data.(tail) <- Some v;
    q.size <- q.size + 1;
    true
  end

let push_exn q v = if not (push q v) then invalid_arg "Fifo.push_exn: full"

let pop q =
  if q.size = 0 then None
  else begin
    let v = q.data.(q.head) in
    q.data.(q.head) <- None;
    q.head <- (q.head + 1) mod Array.length q.data;
    q.size <- q.size - 1;
    v
  end

let iter f q =
  for i = 0 to q.size - 1 do
    match q.data.((q.head + i) mod Array.length q.data) with
    | Some v -> f v
    | None -> assert false
  done

let to_list q =
  let acc = ref [] in
  iter (fun v -> acc := v :: !acc) q;
  List.rev !acc

(* Space-saving sketch (see topk.mli).  Slots live in parallel arrays
   so the hot path — bumping an already-tracked key — is one hashtable
   hit and one array store.  Eviction takes the first minimum in slot
   order, which keeps same-seed runs byte-identical. *)

type entry = { e_key : string; e_count : int; e_err : int }

type t = {
  k_cap : int;
  k_slot : (string, int) Hashtbl.t; (* key -> slot index *)
  k_keys : string array;
  k_counts : int array;
  k_errs : int array;
  mutable k_size : int;
  mutable k_total : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Topk.create: capacity must be positive";
  {
    k_cap = capacity;
    k_slot = Hashtbl.create (2 * capacity);
    k_keys = Array.make capacity "";
    k_counts = Array.make capacity 0;
    k_errs = Array.make capacity 0;
    k_size = 0;
    k_total = 0;
  }

let total t = t.k_total

let add ?(count = 1) t key =
  if count < 0 then invalid_arg "Topk.add: negative count";
  t.k_total <- t.k_total + count;
  match Hashtbl.find_opt t.k_slot key with
  | Some i -> t.k_counts.(i) <- t.k_counts.(i) + count
  | None ->
    if t.k_size < t.k_cap then begin
      let i = t.k_size in
      t.k_size <- i + 1;
      t.k_keys.(i) <- key;
      t.k_counts.(i) <- count;
      t.k_errs.(i) <- 0;
      Hashtbl.replace t.k_slot key i
    end
    else begin
      (* Evict the first minimum in slot order; the newcomer inherits
         its count as the worst-case over-estimate. *)
      let mi = ref 0 in
      for i = 1 to t.k_cap - 1 do
        if t.k_counts.(i) < t.k_counts.(!mi) then mi := i
      done;
      let i = !mi in
      Hashtbl.remove t.k_slot t.k_keys.(i);
      t.k_errs.(i) <- t.k_counts.(i);
      t.k_counts.(i) <- t.k_counts.(i) + count;
      t.k_keys.(i) <- key;
      Hashtbl.replace t.k_slot key i
    end

let min_count t = if t.k_size < t.k_cap then 0 else Array.fold_left min max_int t.k_counts

let compare_entries a b =
  match compare b.e_count a.e_count with
  | 0 -> compare a.e_key b.e_key
  | c -> c

let entries t =
  let es =
    List.init t.k_size (fun i ->
        { e_key = t.k_keys.(i); e_count = t.k_counts.(i); e_err = t.k_errs.(i) })
  in
  List.sort compare_entries es

let top t k =
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  take k (entries t)

let merge ~capacity ts =
  let acc : (string, int * int) Hashtbl.t = Hashtbl.create 64 in
  let union_keys = ref [] in
  List.iter
    (fun t ->
      for i = 0 to t.k_size - 1 do
        let key = t.k_keys.(i) in
        if not (Hashtbl.mem acc key) then begin
          Hashtbl.replace acc key (0, 0);
          union_keys := key :: !union_keys
        end
      done)
    ts;
  (* A full sketch not tracking [key] could have absorbed up to its
     minimum count of it: charge that to both count and error so the
     merged count still never underestimates. *)
  List.iter
    (fun t ->
      let m = min_count t in
      List.iter
        (fun key ->
          let c, e = Hashtbl.find acc key in
          match Hashtbl.find_opt t.k_slot key with
          | Some i ->
            Hashtbl.replace acc key (c + t.k_counts.(i), e + t.k_errs.(i))
          | None -> Hashtbl.replace acc key (c + m, e + m))
        !union_keys)
    ts;
  let es =
    List.map
      (fun key ->
        let c, e = Hashtbl.find acc key in
        { e_key = key; e_count = c; e_err = e })
      !union_keys
  in
  let es = List.sort compare_entries es in
  let out = create ~capacity in
  List.iteri
    (fun rank e ->
      if rank < capacity then begin
        let i = out.k_size in
        out.k_size <- i + 1;
        out.k_keys.(i) <- e.e_key;
        out.k_counts.(i) <- e.e_count;
        out.k_errs.(i) <- e.e_err;
        Hashtbl.replace out.k_slot e.e_key i
      end)
    es;
  out.k_total <- List.fold_left (fun a t -> a + t.k_total) 0 ts;
  out

(* The locate directory's shard map: a consistent-hash ring over
   object names.

   Every name deterministically owns a position on a 62-bit hash
   circle; each node projects [vnodes] virtual points onto the same
   circle, and the name's registry shard is the node owning the first
   point at or after the name's position (wrapping).  Two properties
   make this the right shape for a location registry:

   - balance: with hundreds of points per node the arc a node owns
     concentrates tightly around 1/n of the circle (relative spread
     ~1/sqrt(vnodes)), so no shard becomes a hot spot — the property
     suite bounds max/mean shard load at 1.3 over random node sets;
   - minimal remapping: removing a node reassigns exactly the keys in
     its own arcs and no others, and adding one steals only the arcs
     the new points cover — at most ~1/n of the keys move, bounded at
     2/n in the property suite.  Every other name keeps its shard, so
     registry state survives membership almost entirely in place.

   The map is a pure function of the node set: no coordination, no
   state, and every node computes the same answer — which is what
   lets a requester unicast a lookup instead of broadcasting.  The
   quality of the spread rests on the mixer, not on [Name.hash]
   (which is a cheap table hash with visible structure), so positions
   are derived through a splitmix64-style finalizer. *)

let vnodes = 512

(* Splitmix64's finalizer: full-avalanche 64-bit mixing, folded to a
   non-negative OCaml int.  Deterministic across runs and platforms —
   shard placement must never depend on [Hashtbl.hash] versioning or
   wall-clock anything. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let fold_int z = Int64.to_int z land max_int

(* Points and names must draw from disjoint mixer input domains: with
   a shared domain, node 0's point [k] is [mix64 k] while a name born
   on node 0 with serial [s] hashes to [mix64 s] — every such name
   lands exactly on a node-0 vnode and the "first point at or after"
   search hands node 0 the whole keyspace.  Points mix even inputs,
   names odd, so a name's position can never coincide with a point by
   construction (rather than by constant-picking luck). *)

(* Position of virtual point [k] of [node] on the circle. *)
let point node k =
  fold_int
    (mix64
       (Int64.mul 2L
          (Int64.add
             (Int64.mul (Int64.of_int node) 0x9E3779B97F4A7C15L)
             (Int64.of_int k))))

(* Position of a name on the circle.  [Name.hash] alone clusters
   badly (it is built for bucket tables), so it is re-mixed. *)
let hash_name name =
  fold_int
    (mix64 (Int64.add (Int64.mul 2L (Int64.of_int (Name.hash name))) 1L))

type t = {
  dir_hashes : int array;  (* vnode positions, ascending *)
  dir_owners : int array;  (* owning node per position *)
  dir_nodes : int list;  (* the node set, ascending *)
}

(* Sort [keys] (non-negative ints, so below 2^62) ascending, carrying
   [perm] along: a least-significant-digit radix sort, one byte per
   pass.  Each pass is a stable counting sort, so equal keys keep
   their input order.  Both arrays are consumed; the sorted pair is
   returned. *)
let radix_sort keys perm =
  let len = Array.length keys in
  let count = Array.make 256 0 in
  let rec pass shift keys perm keys' perm' =
    if shift >= 62 then (keys, perm)
    else begin
      Array.fill count 0 256 0;
      for i = 0 to len - 1 do
        let d = (keys.(i) lsr shift) land 255 in
        count.(d) <- count.(d) + 1
      done;
      let sum = ref 0 in
      for d = 0 to 255 do
        let c = count.(d) in
        count.(d) <- !sum;
        sum := !sum + c
      done;
      for i = 0 to len - 1 do
        let k = keys.(i) in
        let d = (k lsr shift) land 255 in
        let at = count.(d) in
        count.(d) <- at + 1;
        keys'.(at) <- k;
        perm'.(at) <- perm.(i)
      done;
      pass (shift + 8) keys' perm' keys perm
    end
  in
  pass 0 keys perm (Array.make len 0) (Array.make len 0)

let of_points ~vnodes ~nodes point =
  if vnodes < 1 then
    invalid_arg "Directory.of_points: vnodes must be positive";
  if nodes = [] then invalid_arg "Directory.make: empty node set";
  let sorted = List.sort_uniq Int.compare nodes in
  if List.length sorted <> List.length nodes then
    invalid_arg "Directory.make: duplicate node ids";
  let nodes = sorted in
  let ids = Array.of_list nodes in
  let len = Array.length ids * vnodes in
  (* Point [i * vnodes + k] is virtual point [k] of node [ids.(i)]. *)
  let hashes = Array.make len 0 in
  Array.iteri
    (fun i node ->
      for k = 0 to vnodes - 1 do
        let h = point node k in
        if h < 0 then invalid_arg "Directory.of_points: negative position";
        hashes.((i * vnodes) + k) <- h
      done)
    ids;
  (* The points are laid out in ascending node order and the sort is
     stable, so ties (astronomically rare 62-bit collisions) break on
     the lower node id and the ring is a total function of the node
     set. *)
  let hashes, perm = radix_sort hashes (Array.init len Fun.id) in
  {
    dir_hashes = hashes;
    dir_owners = Array.map (fun i -> ids.(i / vnodes)) perm;
    dir_nodes = nodes;
  }

let make ~nodes = of_points ~vnodes ~nodes point

let nodes t = t.dir_nodes

(* First point at or after [h], wrapping past the top of the circle
   back to the first point. *)
let shard_of_hash t h =
  let hashes = t.dir_hashes in
  let len = Array.length hashes in
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if hashes.(mid) < h then lo := mid + 1 else hi := mid
  done;
  t.dir_owners.(if !lo = len then 0 else !lo)

let shard t name = shard_of_hash t (hash_name name)

(* Like [shard_of_hash], but walk past ring points whose owner the
   caller reports down, wrapping round the circle.  The walk visits
   each point at most once; if every owner is down the plain owner is
   returned — the caller is about to fail anyway, and returning the
   canonical shard keeps the answer a total function of (ring, down).
   Publishers and readers that agree on the down set agree on the
   detour shard, so a name's registry survives its shard crashing
   without waiting for a membership change. *)
let shard_of_hash_skipping t ~down h =
  let hashes = t.dir_hashes in
  let len = Array.length hashes in
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if hashes.(mid) < h then lo := mid + 1 else hi := mid
  done;
  let start = if !lo = len then 0 else !lo in
  let rec walk i =
    if i >= len then t.dir_owners.(start)
    else
      let at = start + i in
      let at = if at >= len then at - len else at in
      let owner = t.dir_owners.(at) in
      if down owner then walk (i + 1) else owner
  in
  walk 0

let shard_skipping t ~down name =
  shard_of_hash_skipping t ~down (hash_name name)

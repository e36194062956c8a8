(* Samples equal to [+0.0] are counted, not stored: most queueing
   delays are exactly zero (a free server), and a run keeps one sample
   per service for as long as it lasts.  The order statistics read a
   virtual sorted sample: the stored samples below zero ([neg] of
   them once sorted), then the zeros, then the rest. *)
type t = {
  mutable samples : float array;  (* every sample but the [+0.0]s *)
  mutable size : int;
  mutable zeros : int;
  mutable sorted : bool;
  mutable neg : int;  (* samples below zero; valid when [sorted] *)
}

let create () =
  { samples = Array.make 16 0.0; size = 0; zeros = 0; sorted = true; neg = 0 }

let add s x =
  if x = 0.0 && not (Float.sign_bit x) then s.zeros <- s.zeros + 1
  else begin
    if s.size = Array.length s.samples then begin
      let ndata = Array.make (s.size * 2) 0.0 in
      Array.blit s.samples 0 ndata 0 s.size;
      s.samples <- ndata
    end;
    s.samples.(s.size) <- x;
    s.size <- s.size + 1;
    s.sorted <- false
  end

let add_time s t = add s (Time.to_sec t)
let count s = s.size + s.zeros

(* Zeros add nothing to a sum, so [total] (and [mean]) are the sums a
   sample that stored them would give. *)
let total s =
  let acc = ref 0.0 in
  for i = 0 to s.size - 1 do
    acc := !acc +. s.samples.(i)
  done;
  !acc

let mean s = if count s = 0 then 0.0 else total s /. Float.of_int (count s)

let ensure_nonempty s fn =
  if count s = 0 then invalid_arg (Printf.sprintf "Stats.%s: empty sample" fn)

let ensure_sorted s =
  if not s.sorted then begin
    let live = Array.sub s.samples 0 s.size in
    Array.sort Float.compare live;
    Array.blit live 0 s.samples 0 s.size;
    let neg = ref 0 in
    while !neg < s.size && Float.compare live.(!neg) 0.0 < 0 do
      incr neg
    done;
    s.neg <- !neg;
    s.sorted <- true
  end

(* The [i]th smallest sample, zeros included. *)
let nth_sorted s i =
  ensure_sorted s;
  if i < s.neg then s.samples.(i)
  else if i < s.neg + s.zeros then 0.0
  else s.samples.(i - s.zeros)

let min_value s =
  ensure_nonempty s "min_value";
  nth_sorted s 0

let max_value s =
  ensure_nonempty s "max_value";
  nth_sorted s (count s - 1)

let percentile s p =
  ensure_nonempty s "percentile";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: out of range";
  if p = 0.0 then nth_sorted s 0
  else begin
    let rank =
      Float.to_int (Float.ceil (p /. 100.0 *. Float.of_int (count s)))
    in
    nth_sorted s (Stdlib.max 0 (rank - 1))
  end

let median s = percentile s 50.0

let merge a b =
  let m = create () in
  for i = 0 to a.size - 1 do
    add m a.samples.(i)
  done;
  for i = 0 to b.size - 1 do
    add m b.samples.(i)
  done;
  m.zeros <- a.zeros + b.zeros;
  m

let pp_summary ppf s =
  if count s = 0 then Format.pp_print_string ppf "n=0"
  else
    Format.fprintf ppf "n=%d mean=%.6g p50=%.6g p99=%.6g max=%.6g" (count s)
      (mean s) (median s) (percentile s 99.0) (max_value s)

(* All fields are floats, so the record is stored flat and an update
   allocates nothing; the count stays exact up to 2^53. *)
module Running = struct
  type r = {
    mutable n : float;
    mutable sum : float;
    mutable lo : float;
    mutable hi : float;
  }

  let create () =
    { n = 0.0; sum = 0.0; lo = Float.infinity; hi = Float.neg_infinity }

  let add r x =
    r.n <- r.n +. 1.0;
    r.sum <- r.sum +. x;
    if x < r.lo then r.lo <- x;
    if x > r.hi then r.hi <- x

  let add_time r t = add r (Time.to_sec t)
  let count r = Float.to_int r.n
  let mean r = if r.n = 0.0 then 0.0 else r.sum /. r.n

  let min_value r =
    if r.n = 0.0 then invalid_arg "Stats.Running.min_value: empty sample";
    r.lo

  let max_value r =
    if r.n = 0.0 then invalid_arg "Stats.Running.max_value: empty sample";
    r.hi
end

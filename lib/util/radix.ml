(* Digits of at most [radix_bits] of each key's offset from the
   smallest: keys spanning a few hundred thousand take two passes. *)
let radix_bits = 11

let order keys =
  let n = Array.length keys in
  let lo = ref max_int and hi = ref min_int in
  for p = 0 to n - 1 do
    let x = Array.unsafe_get keys p in
    if x < !lo then lo := x;
    if x > !hi then hi := x
  done;
  let lo = !lo in
  (* [x - lo] read unsigned: exact even when the span overflows. *)
  let bits = ref 0 in
  while n > 0 && !bits < Sys.int_size && (!hi - lo) lsr !bits <> 0 do
    incr bits
  done;
  let passes = max 1 ((!bits + radix_bits - 1) / radix_bits) in
  let width = max 1 ((!bits + passes - 1) / passes) in
  let mask = (1 lsl width) - 1 in
  let counts = Array.make (mask + 2) 0 in
  let src = ref (Array.init n Fun.id) and dst = ref (Array.make n 0) in
  for pass = 0 to passes - 1 do
    let shift = pass * width and s = !src and d = !dst in
    Array.fill counts 0 (mask + 2) 0;
    for i = 0 to n - 1 do
      let x = Array.unsafe_get keys (Array.unsafe_get s i) in
      let k = (((x - lo) lsr shift) land mask) + 1 in
      counts.(k) <- counts.(k) + 1
    done;
    for k = 1 to mask + 1 do
      counts.(k) <- counts.(k) + counts.(k - 1)
    done;
    for i = 0 to n - 1 do
      let p = Array.unsafe_get s i in
      let k = ((Array.unsafe_get keys p - lo) lsr shift) land mask in
      d.(counts.(k)) <- p;
      counts.(k) <- counts.(k) + 1
    done;
    src := d;
    dst := s
  done;
  (!src, !dst)

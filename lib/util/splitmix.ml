type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = seed }

let next64 g =
  g.state <- Int64.add g.state golden_gamma;
  mix64 g.state

let split g = create (next64 g)

(* Lemire-style rejection sampling over 62 usable bits keeps the result
   exactly uniform for any [n] that fits in an OCaml int. *)
let int g n =
  if n <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  let mask =
    let rec widen m = if m >= n - 1 then m else widen ((m lsl 1) lor 1) in
    widen 1
  in
  let rec draw () =
    let v = Int64.to_int (Int64.shift_right_logical (next64 g) 2) land mask in
    if v < n then v else draw ()
  in
  draw ()

let int_in g lo hi =
  if lo > hi then invalid_arg "Splitmix.int_in: empty range";
  lo + int g (hi - lo + 1)

let unit_float g =
  (* 53 random bits into [0,1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next64 g) 11) in
  Float.of_int bits *. 0x1.0p-53

let float g x =
  if not (Float.is_finite x) || x <= 0.0 then invalid_arg "Splitmix.float";
  unit_float g *. x

let bool g = Int64.logand (next64 g) 1L = 1L

let coin g p =
  if p >= 1.0 then true
  else if p <= 0.0 then false
  else unit_float g < p

let exponential g mean =
  if not (Float.is_finite mean) || mean <= 0.0 then
    invalid_arg "Splitmix.exponential";
  let u = 1.0 -. unit_float g in
  -.mean *. Float.log u

let choose g a =
  if Array.length a = 0 then invalid_arg "Splitmix.choose: empty array";
  a.(int g (Array.length a))

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

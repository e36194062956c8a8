type t = int

let zero = 0

let ns n =
  if n < 0 then invalid_arg "Time.ns: negative";
  n

let us n = ns (n * 1_000)
let ms n = ns (n * 1_000_000)
let s n = ns (n * 1_000_000_000)

let of_sec x =
  if not (Float.is_finite x) || x < 0.0 then invalid_arg "Time.of_sec";
  Float.to_int (Float.round (x *. 1e9))

let to_ns t = t
let to_sec t = Float.of_int t /. 1e9
let add a b = a + b

let diff a b =
  if b > a then invalid_arg "Time.diff: negative result";
  a - b

let scale t k =
  if k < 0 then invalid_arg "Time.scale: negative factor";
  t * k

let mul_float t x =
  if not (Float.is_finite x) || x < 0.0 then invalid_arg "Time.mul_float";
  Float.to_int (Float.round (Float.of_int t *. x))

let divide t k =
  if k <= 0 then invalid_arg "Time.divide: non-positive divisor";
  t / k

let compare = Int.compare
let equal = Int.equal
let ( < ) (a : t) (b : t) = Stdlib.( < ) a b
let ( <= ) (a : t) (b : t) = Stdlib.( <= ) a b
let ( > ) (a : t) (b : t) = Stdlib.( > ) a b
let min (a : t) (b : t) = Stdlib.min a b
let max (a : t) (b : t) = Stdlib.max a b
let is_zero t = t = 0

let pp ppf t =
  if t = 0 then Format.pp_print_string ppf "0s"
  else if Stdlib.( < ) t 1_000 then Format.fprintf ppf "%dns" t
  else if Stdlib.( < ) t 1_000_000 then
    Format.fprintf ppf "%.3fus" (Float.of_int t /. 1e3)
  else if Stdlib.( < ) t 1_000_000_000 then
    Format.fprintf ppf "%.3fms" (Float.of_int t /. 1e6)
  else Format.fprintf ppf "%.3fs" (Float.of_int t /. 1e9)

let to_string t = Format.asprintf "%a" pp t

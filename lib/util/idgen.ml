type t = { first : int; mutable counter : int }

let create ?(first = 0) () = { first; counter = first }

let next t =
  let id = t.counter in
  t.counter <- t.counter + 1;
  id

let peek t = t.counter

type t = { capacity : int; mutable used : int }

let create ~bytes =
  if bytes <= 0 then invalid_arg "Memory.create: capacity must be positive";
  { capacity = bytes; used = 0 }

let capacity m = m.capacity
let in_use m = m.used
let available m = m.capacity - m.used

let reserve m n =
  if n < 0 then invalid_arg "Memory.reserve: negative size";
  if n > available m then Error `Out_of_memory
  else begin
    m.used <- m.used + n;
    Ok ()
  end

let release m n =
  if n < 0 then invalid_arg "Memory.release: negative size";
  if n > m.used then invalid_arg "Memory.release: more than in use";
  m.used <- m.used - n

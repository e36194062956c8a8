open Eden_util

type category = Sim | Net | Kern | Store | Move | Efs | App

type record = { time : Time.t; category : category; message : string }

let categories = [| Sim; Net; Kern; Store; Move; Efs; App |]

let category_index = function
  | Sim -> 0
  | Net -> 1
  | Kern -> 2
  | Store -> 3
  | Move -> 4
  | Efs -> 5
  | App -> 6

let category_name = function
  | Sim -> "sim"
  | Net -> "net"
  | Kern -> "kern"
  | Store -> "store"
  | Move -> "move"
  | Efs -> "efs"
  | App -> "app"

type t = {
  ring : record Fifo.t;
  keep : int;
  counts : int array;
  mutable on : bool;
}

let create ?(keep = 4096) () =
  if keep <= 0 then invalid_arg "Trace.create: keep must be positive";
  {
    ring = Fifo.create ();
    keep;
    counts = Array.make (Array.length categories) 0;
    on = false;
  }

let enable t = t.on <- true
let enabled t = t.on

let emit t time category message =
  if t.on then begin
    let r = { time; category; message } in
    let i = category_index category in
    t.counts.(i) <- t.counts.(i) + 1;
    if Fifo.length t.ring >= t.keep then ignore (Fifo.pop t.ring);
    Fifo.push_exn t.ring r
  end

let emitf t time category fmt =
  if t.on then
    Format.kasprintf (fun message -> emit t time category message) fmt
  else Format.ikfprintf (fun _ -> ()) Format.err_formatter fmt

let recent t = Fifo.to_list t.ring
let count t category = t.counts.(category_index category)
let total t = Array.fold_left ( + ) 0 t.counts

let clear t =
  Fifo.clear t.ring;
  Array.fill t.counts 0 (Array.length t.counts) 0

let pp_record ppf r =
  Format.fprintf ppf "%a [%s] %s" Time.pp r.time (category_name r.category)
    r.message

open Eden_util

type category = Sim | Net | Kern | Store | Move | Efs | App

type record = { time : Time.t; category : category; message : string }

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
  mutable on : bool;
}

let create ?(keep = 4096) () =
  if keep <= 0 then invalid_arg "Trace.create: keep must be positive";
  { ring = Fifo.create (); keep; on = false }

let enable t = t.on <- true
let enabled t = t.on

let emit t time category message =
  if t.on then begin
    let r = { time; category; message } in
    if Fifo.length t.ring >= t.keep then ignore (Fifo.pop t.ring);
    Fifo.push_exn t.ring r
  end

let emitf t time category fmt =
  if t.on then
    Format.kasprintf (fun message -> emit t time category message) fmt
  else Format.ikfprintf (fun _ -> ()) Format.err_formatter fmt

let recent t = Fifo.to_list t.ring

let pp_record ppf r =
  Format.fprintf ppf "%a [%s] %s" Time.pp r.time (category_name r.category)
    r.message

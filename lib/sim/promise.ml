type 'a t = {
  cond : Condition.t;
  mutable value : 'a option;
}

let create eng = { cond = Condition.create eng; value = None }

let fill p v =
  match p.value with
  | Some _ -> false
  | None ->
    p.value <- Some v;
    Condition.broadcast p.cond;
    true

let rec await ?timeout p =
  match p.value with
  | Some v -> Some v
  | None -> (
    match Condition.await ?timeout p.cond with
    | Engine.Woken -> await p
    | Engine.Timed_out -> None)

let peek p = p.value

type invoke_result = (Value.t list, Error.t) result

type retry = {
  r_max : int;
  r_base : Eden_util.Time.t;
  r_cap : Eden_util.Time.t;
}

let no_retry = { r_max = 0; r_base = Eden_util.Time.zero; r_cap = Eden_util.Time.zero }

let default_retry =
  { r_max = 3; r_base = Eden_util.Time.ms 50; r_cap = Eden_util.Time.s 2 }

(* Capped exponential backoff before attempt [i+1] (the first attempt
   is number 0 and waits nothing). *)
let backoff p i =
  let open Eden_util in
  if Time.is_zero p.r_base then Time.zero
  else Time.min p.r_cap (Time.scale p.r_base (1 lsl min i 20))

type speculate = {
  sp_clone : bool;
  sp_hedge : bool;
  sp_max_sites : int;
  sp_quantile : float;
}

let no_speculation =
  { sp_clone = false; sp_hedge = false; sp_max_sites = 3; sp_quantile = 0.95 }

let validate_speculate s =
  if s.sp_max_sites < 2 then
    Error "speculation needs at least two fan-out sites"
  else if Float.is_nan s.sp_quantile || s.sp_quantile <= 0.0 || s.sp_quantile >= 1.0
  then Error "hedge quantile must lie strictly inside (0,1)"
  else Ok ()

type ctx = {
  self : Capability.t;
  node_id : unit -> int;
  now : unit -> Eden_util.Time.t;
  random : Eden_util.Splitmix.t;
  compute : Eden_util.Time.t -> unit;
  log : string -> unit;
  get_repr : unit -> Value.t;
  set_repr : Value.t -> (unit, Error.t) result;
  invoke :
    ?timeout:Eden_util.Time.t ->
    ?retry:retry ->
    Capability.t ->
    op:string ->
    Value.t list ->
    invoke_result;
  invoke_async :
    ?timeout:Eden_util.Time.t ->
    ?retry:retry ->
    Capability.t ->
    op:string ->
    Value.t list ->
    invoke_result Eden_sim.Promise.t;
  create_object :
    type_name:string ->
    ?node:int ->
    Value.t ->
    (Capability.t, Error.t) result;
  checkpoint : unit -> (unit, Error.t) result;
  checkpoint_async : unit -> (unit, Error.t) result;
  set_reliability : Reliability.t -> (unit, Error.t) result;
  crash : unit -> unit;
  move_to : int -> (unit, Error.t) result;
  freeze : unit -> unit;
  replicate_to : int -> (unit, Error.t) result;
  semaphore : string -> init:int -> Eden_sim.Semaphore.t;
  port : string -> Value.t Eden_sim.Mailbox.t;
  spawn_subprocess : (unit -> unit) -> unit;
}

type handler = ctx -> Value.t list -> invoke_result

let reply vs = Ok vs
let reply_unit = Ok []
let user_error msg = Error (Error.User_error msg)
let bad_arguments msg = Error (Error.Bad_arguments msg)

let arity_error n got =
  Error
    (Error.Bad_arguments
       (Printf.sprintf "expected %d argument(s), got %d" n got))

let arg1 = function [ a ] -> Ok a | l -> arity_error 1 (List.length l)
let arg2 = function [ a; b ] -> Ok (a, b) | l -> arity_error 2 (List.length l)

let no_args = function [] -> Ok () | l -> arity_error 0 (List.length l)

let lift_conversion = function
  | Ok v -> Ok v
  | Error msg -> Error (Error.Bad_arguments msg)

let int_arg v = lift_conversion (Value.to_int v)
let str_arg v = lift_conversion (Value.to_str v)
let cap_arg v = lift_conversion (Value.to_cap v)

let ( let* ) = Result.bind

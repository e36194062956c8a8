(* Span recorder for the traced run.  Every call the benchmark makes
   into a public library function gets one span: a name, host and
   virtual begin/end times, the span that caused it and, for
   invocations, the request id.  Spans stay in memory (one record
   each, in a doubling array) and are written once, at the end, as a
   Chrome trace. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  req : int;  (** request id for invocations, -1 otherwise *)
  host_b : int;
  mutable host_e : int;
  virt_b : int;
  mutable virt_e : int;
}

type t = { mutable spans : span array; mutable len : int }

let dummy =
  { id = -1; parent = -1; name = ""; req = -1; host_b = 0; host_e = 0;
    virt_b = 0; virt_e = 0 }

let create () = { spans = Array.make 4096 dummy; len = 0 }
let count t = t.len

let open_ t ?(parent = -1) ?(req = -1) ~virt name =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (2 * t.len) dummy in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  let id = t.len in
  t.spans.(id) <-
    { id; parent; name; req; host_b = Clock.wall_ns (); host_e = 0; virt_b = virt;
      virt_e = virt };
  t.len <- id + 1;
  id

let close t id ~virt =
  let s = t.spans.(id) in
  s.host_e <- Clock.wall_ns ();
  s.virt_e <- virt

(* [around t name f] spans a call made outside the simulation (virtual
   time does not move), returning its result. *)
let around t name f =
  let id = open_ t ~virt:0 name in
  let r = f () in
  close t id ~virt:0;
  r

(* Total host nanoseconds of the spans called [name]. *)
let host_total t name =
  let acc = ref 0 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if s.name = name then acc := !acc + (s.host_e - s.host_b)
  done;
  !acc

let write t ~path =
  let base = if t.len = 0 then 0 else t.spans.(0).host_b in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      for i = 0 to t.len - 1 do
        let s = t.spans.(i) in
        Printf.fprintf oc
          "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\
           \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d,\
           \"virt_begin_ns\":%d,\"virt_end_ns\":%d}}\n"
          (if i = 0 then "" else ",")
          s.name
          (if s.parent < 0 then 0 else 1)
          (float_of_int (s.host_b - base) /. 1e3)
          (float_of_int (s.host_e - s.host_b) /. 1e3)
          s.id s.parent s.req s.virt_b s.virt_e
      done;
      output_string oc "]}\n")

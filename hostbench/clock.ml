(* Two host clocks.  Round-level figures and layer replays use the
   process's CPU time (user + system, microsecond resolution): the
   simulator is single-threaded, so this is its host time minus the
   time the OS gave to other processes on a shared machine.  Span
   timestamps use the monotonic wall clock, which orders concurrent
   invocations' begin and end. *)

let wall_ns () = Int64.to_int (Monotonic_clock.now ())
let cpu_ns () = int_of_float (Sys.time () *. 1e9)

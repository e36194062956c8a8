open Eden_util
open Eden_sim

type t = { pool : Resource.t; n : int }

let create eng ~gdps =
  if gdps <= 0 then invalid_arg "Cpu.create: gdps must be positive";
  { pool = Resource.create eng ~servers:gdps; n = gdps }

let gdps c = c.n
let consume c t = if not (Time.is_zero t) then Resource.use c.pool t
let busy_time c = Resource.busy_time c.pool
let utilisation c ~over = Resource.utilisation c.pool ~over
let jobs_completed c = Resource.jobs_completed c.pool
let wait_stats c = Resource.wait_stats c.pool

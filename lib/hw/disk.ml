open Eden_util
open Eden_sim

type profile = {
  avg_seek : Time.t;
  half_rotation : Time.t;
  transfer_bps : int;
  capacity_bytes : int;
}

let small_profile =
  {
    avg_seek = Time.ms 30;
    half_rotation = Time.ms 8;
    transfer_bps = 500_000;
    capacity_bytes = 10_000_000;
  }

let server_profile =
  {
    avg_seek = Time.ms 25;
    half_rotation = Time.ms 8;
    transfer_bps = 1_000_000;
    capacity_bytes = 300_000_000;
  }

type t = {
  prof : profile;
  arm : Resource.t;
  mutable n_reads : int;
  mutable n_writes : int;
  mutable rbytes : int;
  mutable wbytes : int;
}

let create eng ~profile =
  if profile.transfer_bps <= 0 then
    invalid_arg "Disk.create: transfer rate must be positive";
  {
    prof = profile;
    arm = Resource.create eng ~servers:1;
    n_reads = 0;
    n_writes = 0;
    rbytes = 0;
    wbytes = 0;
  }

let access_time d ~bytes =
  if bytes < 0 then invalid_arg "Disk.access_time: negative size";
  let transfer = Time.ns (bytes * 1_000_000_000 / d.prof.transfer_bps) in
  Time.add (Time.add d.prof.avg_seek d.prof.half_rotation) transfer

let perform d ~bytes =
  let t = access_time d ~bytes in
  Resource.use d.arm t

let read d ~bytes =
  perform d ~bytes;
  d.n_reads <- d.n_reads + 1;
  d.rbytes <- d.rbytes + bytes

let write d ~bytes =
  perform d ~bytes;
  d.n_writes <- d.n_writes + 1;
  d.wbytes <- d.wbytes + bytes

let reads d = d.n_reads
let writes d = d.n_writes
let bytes_read d = d.rbytes
let bytes_written d = d.wbytes
let busy_time d = Resource.busy_time d.arm
let utilisation d ~over = Resource.utilisation d.arm ~over

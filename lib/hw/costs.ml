open Eden_util

type t = {
  invoke_request_cpu : Time.t;
  invoke_dispatch_cpu : Time.t;
  process_create_cpu : Time.t;
  invoke_reply_cpu : Time.t;
  per_byte_copy : Time.t;
  locate_lookup_cpu : Time.t;
  checkpoint_fixed_cpu : Time.t;
  activation_fixed_cpu : Time.t;
  delta_scan_per_byte : Time.t;
}

let default =
  {
    invoke_request_cpu = Time.us 400;
    invoke_dispatch_cpu = Time.us 300;
    process_create_cpu = Time.us 900;
    invoke_reply_cpu = Time.us 250;
    per_byte_copy = Time.ns 800;
    locate_lookup_cpu = Time.us 50;
    checkpoint_fixed_cpu = Time.us 500;
    activation_fixed_cpu = Time.ms 2;
    (* Comparing a chunk against the last checkpointed version is a
       read-only sweep: much cheaper than marshalling the same bytes. *)
    delta_scan_per_byte = Time.ns 100;
  }

let copy_cost c ~bytes =
  if bytes < 0 then invalid_arg "Costs.copy_cost: negative size";
  Time.scale c.per_byte_copy bytes

let delta_scan_cost c ~bytes =
  if bytes < 0 then invalid_arg "Costs.delta_scan_cost: negative size";
  Time.scale c.delta_scan_per_byte bytes

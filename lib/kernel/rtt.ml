open Eden_util

type t = Empty | Est of { srtt : int; rttvar : int }

let empty = Empty

let observe t s =
  let s = Time.to_ns s in
  match t with
  | Empty -> Est { srtt = s; rttvar = s / 2 }
  | Est { srtt; rttvar } ->
    let rttvar = rttvar + ((abs (s - srtt) - rttvar) / 4) in
    Est { srtt = srtt + ((s - srtt) / 8); rttvar }

let window ~floor = function
  | Empty -> floor
  | Est { srtt; rttvar } -> Time.max floor (Time.ns (srtt + (4 * rttvar)))

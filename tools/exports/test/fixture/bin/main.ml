open Fx.Kit

module K = Fx.Kit

let () =
  let r =
    let* a = Some (used 1) in
    Some (a + Inner.deep + K.via_alias)
  in
  Option.iter print_int r

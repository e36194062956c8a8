let used x = x + 1
let unused x = x - 1
let test_only x = x * 2
let ( let* ) = Option.bind
let via_alias = 3

module Inner = struct
  let deep = 4
end

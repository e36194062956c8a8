type t = { trace : int; parent : int }

let make ~trace ~parent = { trace; parent }
let root id = { trace = id; parent = id }
let trace t = t.trace
let parent t = t.parent
let with_parent t ~parent = { t with parent }

type t = { name : Name.t; rights : Rights.t }

let make name rights = { name; rights }
let name c = c.name
let rights c = c.rights
let restrict c r = { c with rights = Rights.inter c.rights r }
let equal a b = Name.equal a.name b.name && Rights.equal a.rights b.rights
let same_object a b = Name.equal a.name b.name
let pp ppf c = Format.fprintf ppf "cap(%a, %a)" Name.pp c.name Rights.pp c.rights

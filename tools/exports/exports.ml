(* The export gate: every [val] in a library interface must have a
   caller outside its own module and outside the tests, or be listed
   in an allowlist with the reason it stays.

   Usage: exports.exe [--report] ROOT ALLOWLIST

   ROOT is a dune build directory after [dune build @check] (a plain
   [dune build] does not write the executables' [.cmt]s).  The
   exports are the [val]s, nested module signatures included, of
   every [.cmti] under ROOT/lib; the callers are every [.cmt] under
   ROOT, those under ROOT/test counting as tests.  A use is matched to
   its export by the unique id the compiler gives each [val] of an
   interface: every reference carries it, whatever path reached the
   value ([open], a local [module M = Lib.M] alias, a binding operator
   such as [let*]), so no path needs resolving.

   Each allowlist line is [Module.value  reason]; blank lines and
   lines starting with [#] are skipped.  The gate fails (exit 1) on an
   export with no caller outside tests that is not listed, on a listed
   name that no longer is such an export, and on a line with no
   reason.  [--report] also prints every export's class. *)

open Typedtree

type use = Test | Other

let rec files dir ext acc =
  Array.fold_left
    (fun acc f ->
      let p = Filename.concat dir f in
      if Sys.is_directory p then files p ext acc
      else if Filename.check_suffix p ext then p :: acc
      else acc)
    acc
    (try Sys.readdir dir with Sys_error _ -> [||])

(* [Eden_obs__Journal] is [Journal] to a reader. *)
let short modname =
  let rec last i =
    if i < 1 then modname
    else if modname.[i] = '_' && modname.[i - 1] = '_' then
      String.sub modname (i + 1) (String.length modname - i - 1)
    else last (i - 1)
  in
  last (String.length modname - 1)

let rec exports prefix sg acc =
  List.fold_left
    (fun acc item ->
      match item.sig_desc with
      | Tsig_value vd ->
          (prefix ^ "." ^ vd.val_name.txt, vd.val_val.val_uid) :: acc
      | Tsig_module { md_name = { txt = Some m; _ };
                      md_type = { mty_desc = Tmty_signature s; _ }; _ } ->
          exports (prefix ^ "." ^ m) s acc
      | _ -> acc)
    acc sg.sig_items

let () =
  let report = ref false and args = ref [] in
  Arg.parse
    [ ("--report", Arg.Set report, " print every export's class") ]
    (fun a -> args := a :: !args)
    "exports.exe [--report] ROOT ALLOWLIST";
  let root, allowlist =
    match List.rev !args with
    | [ r; a ] -> (r, a)
    | _ ->
        prerr_endline "usage: exports.exe [--report] ROOT ALLOWLIST";
        exit 2
  in
  let exported =
    List.fold_left
      (fun acc f ->
        let c = Cmt_format.read_cmt f in
        match c.cmt_annots with
        | Interface sg -> exports (short c.cmt_modname) sg acc
        | _ -> acc)
      []
      (files (Filename.concat root "lib") ".cmti" [])
  in
  let uses = Hashtbl.create 1024 in
  let test_dir = Filename.concat root "test" ^ Filename.dir_sep in
  List.iter
    (fun f ->
      let c = Cmt_format.read_cmt f in
      let where =
        if String.starts_with ~prefix:test_dir f then Test else Other
      in
      (* A unit numbers the ids of its [.ml] and of its [.mli] alike, so
         what looks like its own export in its own [.cmt] is a local. *)
      let note (v : Types.value_description) =
        match v.val_uid with
        | Item { comp_unit; _ } when comp_unit = c.cmt_modname -> ()
        | uid ->
            if Hashtbl.find_opt uses uid <> Some Other then
              Hashtbl.replace uses uid where
      in
      let expr it e =
        (match e.exp_desc with
         | Texp_ident (_, _, v) -> note v
         | Texp_letop { let_; ands; _ } ->
             List.iter (fun b -> note b.bop_op_val) (let_ :: ands)
         | _ -> ());
        Tast_iterator.default_iterator.expr it e
      in
      match c.cmt_annots with
      | Implementation s ->
          let it = { Tast_iterator.default_iterator with expr } in
          it.structure it s
      | _ -> ())
    (files root ".cmt" []);
  let exported = List.sort compare exported in
  let cls (_, uid) =
    match Hashtbl.find_opt uses uid with
    | Some Other -> "used"
    | Some Test -> "test-only"
    | None -> "no-caller"
  in
  let fails = ref 0 in
  let fail fmt = incr fails; Printf.printf fmt in
  let listed =
    In_channel.with_open_text allowlist In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' then None
           else
             match String.index_opt line ' ' with
             | Some i -> Some (String.sub line 0 i)
             | None ->
                 fail "allowlist entry without a reason: %s\n" line;
                 Some line)
  in
  List.iter
    (fun ((name, _) as e) ->
      let c = cls e in
      if !report then Printf.printf "%-9s %s\n" c name;
      if c <> "used" && not (List.mem name listed) then
        fail "%s export not in %s (delete it, or list it with a reason): %s\n"
          c allowlist name)
    exported;
  List.iter
    (fun name ->
      if not (List.exists (fun e -> fst e = name && cls e <> "used") exported)
      then
        fail "stale allowlist entry (no such export without callers): %s\n"
          name)
    listed;
  let count c = List.length (List.filter (fun e -> cls e = c) exported) in
  Printf.printf "exports: %d, no caller: %d, test-only: %d, allowlisted: %d\n"
    (List.length exported) (count "no-caller") (count "test-only")
    (List.length listed);
  if !fails > 0 then exit 1

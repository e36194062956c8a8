(* Tests for the abstract type hierarchy and the object-editor display
   attribute machinery. *)

open Eden_kernel
open Eden_typesys
open Api

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* A small hierarchy:
     described (root: describe)
       counter-like (get/incr, display=counter)
         resettable  (reset, overrides describe)            *)
let build () =
  let h = Hierarchy.create () in
  Hierarchy.declare_exn h
    (Hierarchy.decl ~name:"described"
       ~attributes:[ ("display", Value.Str "plain") ]
       [
         Typemgr.operation "describe" ~mutates:false (fun ctx args ->
             let* () = no_args args in
             reply [ Value.Str "an object" ]
             |> fun r ->
             ignore ctx;
             r);
       ]);
  Hierarchy.declare_exn h
    (Hierarchy.decl ~name:"counterlike" ~parent:"described"
       ~attributes:[ ("display", Value.Str "counter") ]
       [
         Typemgr.operation "get" ~mutates:false (fun ctx args ->
             let* () = no_args args in
             reply [ ctx.get_repr () ]);
         Typemgr.operation "incr" (fun ctx args ->
             let* () = no_args args in
             let* n = int_arg (ctx.get_repr ()) in
             let* () = ctx.set_repr (Value.Int (n + 1)) in
             reply [ Value.Int (n + 1) ]);
       ]);
  Hierarchy.declare_exn h
    (Hierarchy.decl ~name:"resettable" ~parent:"counterlike"
       [
         Typemgr.operation "reset" (fun ctx args ->
             let* () = no_args args in
             let* () = ctx.set_repr (Value.Int 0) in
             reply_unit);
         Typemgr.operation "describe" ~mutates:false (fun ctx args ->
             let* () = no_args args in
             ignore ctx;
             reply [ Value.Str "a resettable counter" ]);
       ]);
  h

let test_subtype_relation () =
  let h = build () in
  check_bool "reflexive" true
    (Hierarchy.is_subtype h ~sub:"described" ~super:"described");
  check_bool "direct" true
    (Hierarchy.is_subtype h ~sub:"counterlike" ~super:"described");
  check_bool "transitive" true
    (Hierarchy.is_subtype h ~sub:"resettable" ~super:"described");
  check_bool "not reversed" false
    (Hierarchy.is_subtype h ~sub:"described" ~super:"resettable");
  Alcotest.(check (list string))
    "ancestors" [ "counterlike"; "described" ]
    (Hierarchy.ancestors h "resettable")

let test_declare_errors () =
  let h = build () in
  (match Hierarchy.declare h (Hierarchy.decl ~name:"described" []) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate accepted");
  match Hierarchy.declare h (Hierarchy.decl ~name:"orphan" ~parent:"nope" []) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown parent accepted"

let test_attribute_inheritance () =
  let h = build () in
  (match Hierarchy.attribute h ~type_name:"resettable" "display" with
  | Some (Value.Str s) -> check_string "inherited display" "counter" s
  | _ -> Alcotest.fail "missing attribute");
  (match Hierarchy.attribute h ~type_name:"described" "display" with
  | Some (Value.Str s) -> check_string "own display" "plain" s
  | _ -> Alcotest.fail "missing attribute");
  check_bool "unknown key" true
    (Hierarchy.attribute h ~type_name:"resettable" "nope" = None)

let test_operation_inheritance () =
  let h = build () in
  let names = Hierarchy.operation_names h "resettable" in
  check_bool "own op" true (List.mem "reset" names);
  check_bool "inherited op" true (List.mem "incr" names);
  check_bool "inherited root op" true (List.mem "describe" names);
  check_int "no duplicates" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_compiled_type_runs () =
  let h = build () in
  let tm = Hierarchy.compile_exn h "resettable" in
  let cl = Cluster.default ~n_nodes:1 () in
  Cluster.register_type cl tm;
  let outcome = ref None in
  let _ =
    Cluster.in_process cl (fun () ->
        match
          Cluster.create_object cl ~node:0 ~type_name:"resettable"
            (Value.Int 5)
        with
        | Error e -> outcome := Some (Error e)
        | Ok cap ->
          let incr = Cluster.invoke cl ~from:0 cap ~op:"incr" [] in
          let desc = Cluster.invoke cl ~from:0 cap ~op:"describe" [] in
          let reset = Cluster.invoke cl ~from:0 cap ~op:"reset" [] in
          let final = Cluster.invoke cl ~from:0 cap ~op:"get" [] in
          outcome := Some (Ok (incr, desc, reset, final)))
  in
  Cluster.run cl;
  match !outcome with
  | Some (Ok (incr, desc, _, final)) ->
    check_bool "inherited incr works" true (incr = Ok [ Value.Int 6 ]);
    check_bool "override wins" true
      (desc = Ok [ Value.Str "a resettable counter" ]);
    check_bool "reset applied" true (final = Ok [ Value.Int 0 ])
  | Some (Error e) -> Alcotest.failf "create failed: %s" (Error.to_string e)
  | None -> Alcotest.fail "driver did not run"

let test_register_all () =
  let h = build () in
  let cl = Cluster.default ~n_nodes:1 () in
  (match Hierarchy.register_all h cl with
  | Ok () -> ()
  | Error e -> Alcotest.failf "register_all: %s" e);
  check_bool "all registered" true
    (Cluster.find_type cl "described" <> None
    && Cluster.find_type cl "counterlike" <> None
    && Cluster.find_type cl "resettable" <> None)

let test_reincarnate_inherited () =
  (* A subtype without its own reincarnation handler inherits the
     nearest ancestor's. *)
  let fired = ref [] in
  let h = Hierarchy.create () in
  Hierarchy.declare_exn h
    (Hierarchy.decl ~name:"base"
       ~reincarnate:(fun _ -> fired := "base" :: !fired)
       [
         Typemgr.operation "checkpoint" (fun ctx args ->
             let* () = no_args args in
             let* () = ctx.checkpoint () in
             reply_unit);
         Typemgr.operation "crash" (fun ctx args ->
             let* () = no_args args in
             ctx.crash ();
             reply_unit);
         Typemgr.operation "ping" ~mutates:false (fun _ args ->
             let* () = no_args args in
             reply_unit);
       ]);
  Hierarchy.declare_exn h
    (Hierarchy.decl ~name:"child" ~parent:"base"
       [
         Typemgr.operation "extra" ~mutates:false (fun _ args ->
             let* () = no_args args in
             reply_unit);
       ]);
  let tm = Hierarchy.compile_exn h "child" in
  let cl = Cluster.default ~n_nodes:1 () in
  Cluster.register_type cl tm;
  let _ =
    Cluster.in_process cl (fun () ->
        match
          Cluster.create_object cl ~node:0 ~type_name:"child" Value.Unit
        with
        | Error e -> Alcotest.failf "create: %s" (Error.to_string e)
        | Ok cap ->
          ignore (Cluster.invoke cl ~from:0 cap ~op:"checkpoint" []);
          ignore (Cluster.invoke cl ~from:0 cap ~op:"crash" []);
          ignore (Cluster.invoke cl ~from:0 cap ~op:"ping" []))
  in
  Cluster.run cl;
  Alcotest.(check (list string))
    "inherited handler ran once" [ "base" ] !fired

let test_compile_with_explicit_classes_over_inherited_ops () =
  (* A subtype may regroup inherited operations into its own classes;
     compile must accept a partition that names them. *)
  let h = Hierarchy.create () in
  Hierarchy.declare_exn h
    (Hierarchy.decl ~name:"parent"
       [
         Typemgr.operation "read" ~mutates:false (fun ctx args ->
             let* () = no_args args in
             reply [ ctx.get_repr () ]);
         Typemgr.operation "write" (fun ctx args ->
             let* v = arg1 args in
             let* () = ctx.set_repr v in
             reply_unit);
       ]);
  Hierarchy.declare_exn h
    (Hierarchy.decl ~name:"kid" ~parent:"parent"
       ~classes:
         [
           {
             Eden_kernel.Opclass.class_name = "bulk";
             operations = [ "read"; "write"; "audit" ];
             limit = 4;
           };
         ]
       [
         Typemgr.operation "audit" ~mutates:false (fun _ args ->
             let* () = no_args args in
             reply_unit);
       ]);
  match Hierarchy.compile h "kid" with
  | Ok tm ->
    check_int "one explicit class" 1 (List.length (Typemgr.classes tm));
    check_bool "covers inherited ops" true
      (Typemgr.resolve tm "write" <> None)
  | Error e -> Alcotest.failf "compile: %s" e

let test_deep_chain () =
  let h = Hierarchy.create () in
  let mk name parent ops =
    Hierarchy.declare_exn h
      (Hierarchy.decl ~name ?parent
         (List.map
            (fun op ->
              Typemgr.operation op ~mutates:false (fun _ args ->
                  let* () = no_args args in
                  reply [ Value.Str op ]))
            ops))
  in
  mk "l0" None [ "a" ];
  mk "l1" (Some "l0") [ "b" ];
  mk "l2" (Some "l1") [ "c" ];
  mk "l3" (Some "l2") [ "d"; "a" ] (* overrides a *);
  check_int "four levels of ops" 4
    (List.length (Hierarchy.operation_names h "l3"));
  check_bool "l3 <= l0" true (Hierarchy.is_subtype h ~sub:"l3" ~super:"l0");
  (* The override must win at dispatch. *)
  let tm = Hierarchy.compile_exn h "l3" in
  let cl = Cluster.default ~n_nodes:1 () in
  Cluster.register_type cl tm;
  let got = ref None in
  let _ =
    Cluster.in_process cl (fun () ->
        match Cluster.create_object cl ~node:0 ~type_name:"l3" Value.Unit with
        | Error _ -> ()
        | Ok cap -> got := Some (Cluster.invoke cl ~from:0 cap ~op:"a" []))
  in
  Cluster.run cl;
  check_bool "nearest definition wins" true
    (!got = Some (Ok [ Value.Str "a" ]))

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    if i + nl > hl then false
    else if String.sub haystack i nl = needle then true
    else scan (i + 1)
  in
  scan 0

let test_display_styles () =
  let h = build () in
  check_string "inherited style" "counter"
    (Display.style h ~type_name:"resettable");
  check_string "unknown type defaults" "plain"
    (Display.style h ~type_name:"mystery");
  let box =
    Display.render h ~type_name:"resettable" ~title:"visits" (Value.Int 12)
  in
  check_bool "counter layout" true (contains box "count: 12");
  check_bool "titled" true (contains box "visits : resettable [counter]");
  check_bool "bordered" true (contains box "+--")

let test_display_record_and_list () =
  let h = Hierarchy.create () in
  Hierarchy.declare_exn h
    (Hierarchy.decl ~name:"rec"
       ~attributes:[ ("display", Value.Str "record") ]
       [ Typemgr.operation "noop" (fun _ args -> let* () = no_args args in reply_unit) ]);
  let box =
    Display.render h ~type_name:"rec" ~title:"user"
      (Value.List
         [
           Value.Pair (Value.Str "name", Value.Str "alice");
           Value.Pair (Value.Str "age", Value.Int 7);
         ])
  in
  check_bool "record fields" true
    (contains box "name = \"alice\"" && contains box "age = 7")

let () =
  Alcotest.run "eden_typesys"
    [
      ( "hierarchy",
        [
          Alcotest.test_case "subtype relation" `Quick test_subtype_relation;
          Alcotest.test_case "declare errors" `Quick test_declare_errors;
          Alcotest.test_case "attribute inheritance" `Quick
            test_attribute_inheritance;
          Alcotest.test_case "operation inheritance" `Quick
            test_operation_inheritance;
          Alcotest.test_case "compiled type runs" `Quick
            test_compiled_type_runs;
          Alcotest.test_case "register all" `Quick test_register_all;
          Alcotest.test_case "reincarnate inherited" `Quick
            test_reincarnate_inherited;
          Alcotest.test_case "explicit classes over inherited" `Quick
            test_compile_with_explicit_classes_over_inherited_ops;
          Alcotest.test_case "deep chain" `Quick test_deep_chain;
        ] );
      ( "display",
        [
          Alcotest.test_case "styles" `Quick test_display_styles;
          Alcotest.test_case "record and list" `Quick
            test_display_record_and_list;
        ] );
    ]

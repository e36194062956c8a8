(* Unit tests for the kernel's pure data modules: names, rights,
   capabilities, values, errors, reliability levels, invocation-class
   validation, type-manager construction, message sizing and the
   handler-side Api helpers. *)

open Eden_kernel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Name *)

let test_name_basics () =
  let n = Name.make ~birth_node:3 ~serial:17 in
  check_int "birth node" 3 (Name.birth_node n);
  check_int "serial" 17 (Name.serial n);
  check_string "printed" "obj<3.17>" (Name.to_string n);
  List.iter
    (fun (b, s) ->
      check_string "digit boundaries" (Printf.sprintf "obj<%d.%d>" b s)
        (Name.to_string (Name.make ~birth_node:b ~serial:s)))
    [ (0, 0); (9, 10); (10, 9); (99, 100); (100, 99); (12345, max_int) ];
  check_bool "equal self" true (Name.equal n n);
  check_bool "differs by serial" false
    (Name.equal n (Name.make ~birth_node:3 ~serial:18));
  check_bool "differs by node" false
    (Name.equal n (Name.make ~birth_node:4 ~serial:17));
  Alcotest.check_raises "negative" (Invalid_argument "Name.make: negative field")
    (fun () -> ignore (Name.make ~birth_node:(-1) ~serial:0))

let test_name_ordering_and_table () =
  let a = Name.make ~birth_node:0 ~serial:5 in
  let b = Name.make ~birth_node:1 ~serial:0 in
  check_bool "node dominates" true (Name.compare a b < 0);
  let tbl = Name.Table.create 4 in
  Name.Table.replace tbl a "a";
  Name.Table.replace tbl b "b";
  Alcotest.(check (option string)) "lookup" (Some "a") (Name.Table.find_opt tbl a);
  Name.Table.remove tbl a;
  Alcotest.(check (option string)) "removed" None (Name.Table.find_opt tbl a)

(* ------------------------------------------------------------------ *)
(* Rights *)

let test_rights_sets () =
  let r = Rights.of_list [ Rights.Invoke; Rights.Aux 3; Rights.Kernel_move ] in
  check_bool "has invoke" true (Rights.mem Rights.Invoke r);
  check_bool "has aux3" true (Rights.mem (Rights.Aux 3) r);
  check_bool "lacks aux4" false (Rights.mem (Rights.Aux 4) r);
  check_bool "subset of all" true (Rights.subset r Rights.all);
  check_bool "all not subset" false (Rights.subset Rights.all r);
  check_bool "none subset of anything" true (Rights.subset Rights.none r)

let test_rights_algebra () =
  let a = Rights.of_list [ Rights.Invoke; Rights.Aux 0 ] in
  let b = Rights.of_list [ Rights.Aux 0; Rights.Kernel_grant ] in
  let i = Rights.inter a b in
  check_bool "intersection is aux0 only" true
    (Rights.equal i (Rights.of_list [ Rights.Aux 0 ]));
  check_int "roundtrip via to_list" 2 (List.length (Rights.to_list a));
  Alcotest.check_raises "aux out of range"
    (Invalid_argument "Rights: Aux index out of range") (fun () ->
      ignore (Rights.of_list [ Rights.Aux 12 ]))

(* ------------------------------------------------------------------ *)
(* Capability *)

let test_capability_restrict () =
  let name = Name.make ~birth_node:0 ~serial:1 in
  let full = Capability.make name Rights.all in
  let weak = Capability.restrict full Rights.invoke_only in
  check_bool "same object" true (Capability.same_object full weak);
  check_bool "not equal" false (Capability.equal full weak);
  check_bool "weak keeps invoke" true
    (Rights.subset Rights.invoke_only (Capability.rights weak));
  check_bool "weak lacks move" false
    (Rights.mem Rights.Kernel_move (Capability.rights weak));
  (* Restriction can only shrink: restricting the weak cap by ALL
     rights yields the weak cap again. *)
  check_bool "cannot amplify" true
    (Capability.equal weak (Capability.restrict weak Rights.all))

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_sizes () =
  check_int "unit" 1 (Value.size_bytes Value.Unit);
  check_int "int" 8 (Value.size_bytes (Value.Int 5));
  check_int "str" (4 + 5) (Value.size_bytes (Value.Str "hello"));
  check_int "cap" 16
    (Value.size_bytes
       (Value.Cap (Capability.make (Name.make ~birth_node:0 ~serial:0) Rights.none)));
  check_int "blob" 1024 (Value.size_bytes (Value.Blob 1024));
  check_int "pair" (2 + 8 + 1)
    (Value.size_bytes (Value.Pair (Value.Int 0, Value.Unit)));
  check_int "list framing" (4 + 8 + 8)
    (Value.size_bytes (Value.List [ Value.Int 1; Value.Int 2 ]));
  check_int "list_size_bytes" 16
    (Value.list_size_bytes [ Value.Int 1; Value.Int 2 ])

let test_value_accessors () =
  check_bool "to_int ok" true (Value.to_int (Value.Int 3) = Ok 3);
  check_bool "to_int err" true (Result.is_error (Value.to_int Value.Unit));
  check_bool "to_str ok" true (Value.to_str (Value.Str "x") = Ok "x");
  check_bool "to_list ok" true (Value.to_list (Value.List []) = Ok [])

let test_value_caps_extraction () =
  let cap i =
    Capability.make (Name.make ~birth_node:0 ~serial:i) Rights.all
  in
  let v =
    Value.List
      [
        Value.Cap (cap 1);
        Value.Pair (Value.Str "x", Value.Cap (cap 2));
        Value.Int 9;
        Value.List [ Value.Cap (cap 3) ];
      ]
  in
  check_int "three caps found" 3 (List.length (Value.caps v));
  check_int "none in plain data" 0 (List.length (Value.caps (Value.Str "s")))

let test_value_equal_and_pp () =
  let v = Value.Pair (Value.Str "k", Value.List [ Value.Int 1; Value.Bool false ]) in
  check_bool "structural equal" true (Value.equal v v);
  check_bool "unequal" false (Value.equal v Value.Unit);
  check_string "printed" "(\"k\", [1; false])"
    (Format.asprintf "%a" Value.pp v)

(* ------------------------------------------------------------------ *)
(* Error *)

(* The kernel suites compare errors with [=], so [Error.t] must stay a
   plain value whose payload takes part in equality. *)
let test_error_equal_and_strings () =
  check_bool "same" true (Error.Timeout = Error.Timeout);
  check_bool "payload matters" false
    (Error.User_error "a" = Error.User_error "b");
  check_bool "different constructors" false
    (Error.Timeout = Error.No_such_object);
  check_string "timeout" "timeout" (Error.to_string Error.Timeout);
  check_string "rights" "insufficient rights for \"put\""
    (Error.to_string (Error.Rights_violation "put"))

(* ------------------------------------------------------------------ *)
(* Reliability *)

let test_reliability_validate () =
  let ok r = Reliability.validate r ~node_count:4 = Ok () in
  check_bool "local" true (ok Reliability.Local);
  check_bool "remote in range" true (ok (Reliability.Remote 3));
  check_bool "remote out of range" false (ok (Reliability.Remote 4));
  check_bool "mirrored" true (ok (Reliability.Mirrored [ 0; 2 ]));
  check_bool "mirrored empty" false (ok (Reliability.Mirrored []));
  check_bool "mirrored dup" false (ok (Reliability.Mirrored [ 1; 1 ]))

let test_reliability_checksites () =
  Alcotest.(check (list int)) "local is home" [ 2 ]
    (Reliability.checksites Reliability.Local ~home:2);
  Alcotest.(check (list int)) "remote" [ 0 ]
    (Reliability.checksites (Reliability.Remote 0) ~home:2);
  Alcotest.(check (list int)) "mirrored verbatim" [ 1; 3 ]
    (Reliability.checksites (Reliability.Mirrored [ 1; 3 ]) ~home:2)

(* ------------------------------------------------------------------ *)
(* Rtt: the locate reply window *)

module Time = Eden_util.Time

let rtt_floor = Time.ms 3
let rtt_of samples =
  List.fold_left (fun t s -> Rtt.observe t (Time.ns s)) Rtt.empty samples
let rtt_window samples =
  Time.to_ns (Rtt.window ~floor:rtt_floor (rtt_of samples))

let test_rtt_integer_estimates () =
  check_int "no samples: the floor" 3_000_000 (rtt_window []);
  (* srtt 30 ms, rttvar 15 ms *)
  check_int "first sample" 90_000_000 (rtt_window [ 30_000_000 ]);
  (* srtt 10_000_001, rttvar 5_000_000 (truncated); then
     rttvar += (9_999_999 - 5_000_000)/4 = 1_249_999 and
     srtt += 9_999_999/8 = 1_249_999; then a fast answer:
     rttvar += (10_250_000 - 6_249_999)/4 = 1_000_000 and
     srtt += -10_250_000/8 = -1_281_250. *)
  check_int "two samples" (11_250_000 + (4 * 6_249_999))
    (rtt_window [ 10_000_001; 20_000_000 ]);
  check_int "a faster third" (9_968_750 + (4 * 7_249_999))
    (rtt_window [ 10_000_001; 20_000_000; 1_000_000 ]);
  check_int "same samples, same window"
    (rtt_window [ 10_000_001; 20_000_000; 1_000_000 ])
    (rtt_window [ 10_000_001; 20_000_000; 1_000_000 ])

let test_rtt_fast_answers_keep_the_floor () =
  (* A 176.4 us answer (a quiet LAN's locate round trip) opens at
     three times that, below the floor; so does any run of them. *)
  check_int "one fast answer" 3_000_000 (rtt_window [ 176_400 ]);
  check_int "many fast answers" 3_000_000
    (rtt_window (List.init 50 (fun i -> 150_000 + (i * 1_000))));
  (* Slow answers lift the window; fast ones bring it back down. *)
  let slow = List.init 4 (fun _ -> 30_000_000) in
  check_bool "slow answers lift it" true (rtt_window slow > 30_000_000);
  check_int "fast answers bring it back" 3_000_000
    (rtt_window (slow @ List.init 40 (fun _ -> 200_000)))

(* ------------------------------------------------------------------ *)
(* Property tests, on the shared {!Prop} harness: 500 seeds per
   property (one structured draw each), fixed bases so failures replay
   exactly, with shrinking for the mirrored-site lists. *)

module Splitmix = Eden_util.Splitmix

let iters = 500

let prop_rtt_window_bounds =
  Prop.case ~seeds:iters ~base:0xBEEF05L ~name:"rtt window bounds"
    ~gen:(Prop.Gen.list ~max_len:20 (Prop.Gen.int 0 200_000_000))
    ~shrink:(fun samples ->
      List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) samples) samples)
    ~show:(fun samples -> String.concat " " (List.map string_of_int samples))
    (fun samples ->
      (* Never below the floor, and never beyond five times the
         slowest answer seen: srtt and rttvar each stay within it. *)
      let w = rtt_window samples in
      let slowest = List.fold_left max 0 samples in
      if w < 3_000_000 then Error (Printf.sprintf "window %d below the floor" w)
      else if w > max 3_000_000 (5 * slowest) then
        Error (Printf.sprintf "window %d beyond 5 x %d" w slowest)
      else Ok ())

let rand_right rng =
  match Splitmix.int rng 17 with
  | 0 -> Rights.Invoke
  | n when n <= 12 -> Rights.Aux (n - 1)
  | 13 -> Rights.Kernel_move
  | 14 -> Rights.Kernel_checkpoint
  | 15 -> Rights.Kernel_destroy
  | _ -> Rights.Kernel_grant

let rand_rights rng =
  Rights.of_list (List.init (Splitmix.int rng 9) (fun _ -> rand_right rng))

(* Mix valid and deliberately-broken levels: node indices drawn from
   [-1 .. node_count], mirrored lists possibly empty or repeating. *)
let rand_reliability rng ~node_count =
  let rand_node () = Splitmix.int rng (node_count + 2) - 1 in
  match Splitmix.int rng 3 with
  | 0 -> Reliability.Local
  | 1 -> Reliability.Remote (rand_node ())
  | _ ->
    Reliability.Mirrored
      (List.init (Splitmix.int rng 4) (fun _ -> rand_node ()))

let reliability_ok_ref r ~node_count =
  let in_range n = n >= 0 && n < node_count in
  match r with
  | Reliability.Local -> true
  | Reliability.Remote n -> in_range n
  | Reliability.Mirrored sites ->
    sites <> []
    && List.for_all in_range sites
    && List.length (List.sort_uniq compare sites) = List.length sites

(* Drop one mirrored site at a time; other levels have no smaller
   form worth exploring. *)
let shrink_reliability (node_count, r) =
  match r with
  | Reliability.Mirrored sites when sites <> [] ->
    List.mapi
      (fun i _ ->
        ( node_count,
          Reliability.Mirrored (List.filteri (fun j _ -> j <> i) sites) ))
      sites
  | _ -> []

let show_reliability (node_count, r) =
  Format.asprintf "%a (node_count=%d)" Reliability.pp r node_count

let gen_count_and_reliability rng =
  let node_count = 1 + Splitmix.int rng 6 in
  (node_count, rand_reliability rng ~node_count)

let prop_reliability_validate =
  Prop.case ~seeds:iters ~base:0xBEEF01L ~name:"reliability validate"
    ~gen:gen_count_and_reliability ~shrink:shrink_reliability
    ~show:show_reliability (fun (node_count, r) ->
      let expected = reliability_ok_ref r ~node_count in
      let got = Reliability.validate r ~node_count = Ok () in
      if got = expected then Ok ()
      else Error (Printf.sprintf "validate: got %b, want %b" got expected))

let prop_reliability_checksites =
  Prop.case ~seeds:iters ~base:0xBEEF02L ~name:"reliability checksites"
    ~gen:(fun rng ->
      let node_count, r = gen_count_and_reliability rng in
      (node_count, r, Splitmix.int rng node_count))
    ~shrink:(fun (node_count, r, home) ->
      List.map
        (fun (nc, r') -> (nc, r', home))
        (shrink_reliability (node_count, r)))
    ~show:(fun (node_count, r, home) ->
      Format.asprintf "%a (node_count=%d, home=%d)" Reliability.pp r
        node_count home)
    (fun (node_count, r, home) ->
      if Reliability.validate r ~node_count <> Ok () then Ok ()
      else
        let sites = Reliability.checksites r ~home in
        (* Validated levels yield non-empty, in-range, duplicate-free
           checksite lists; Local checkpoints exactly at home. *)
        if sites = [] then Error "empty checksites"
        else if not (List.for_all (fun s -> s >= 0 && s < node_count) sites)
        then Error "checksite out of range"
        else if
          List.length (List.sort_uniq compare sites) <> List.length sites
        then Error "duplicate checksites"
        else if r = Reliability.Local && sites <> [ home ] then
          Error "Local must checkpoint at home"
        else Ok ())

let prop_capability_restrict =
  let name = Name.make ~birth_node:1 ~serial:9 in
  Prop.case ~seeds:iters ~base:0xBEEF03L ~name:"capability restrict"
    ~gen:(fun rng ->
      let base = rand_rights rng in
      let mask = rand_rights rng in
      let chain = rand_rights rng in
      (base, mask, chain))
    ~show:(fun (base, mask, chain) ->
      Format.asprintf "base=%a mask=%a chain=%a" Rights.pp base Rights.pp mask
        Rights.pp chain)
    (fun (base, mask, chain) ->
      let fail fmt = Printf.ksprintf Result.error fmt in
      let cap = Capability.make name base in
      let r = Capability.restrict cap mask in
      (* Monotone: never more rights than either the original or the
         mask — restriction is intersection, so also exactly that. *)
      if not (Rights.subset (Capability.rights r) base) then
        fail "not a subset of the original"
      else if not (Rights.subset (Capability.rights r) mask) then
        fail "not a subset of the mask"
      else if not (Rights.equal (Capability.rights r) (Rights.inter base mask))
      then fail "not the intersection"
      else if not (Capability.same_object cap r) then fail "object changed"
        (* Idempotent, and a full mask changes nothing. *)
      else if not (Capability.equal r (Capability.restrict r mask)) then
        fail "not idempotent"
      else if not (Capability.equal cap (Capability.restrict cap Rights.all))
      then fail "full mask not the identity"
      else
        (* No sequence of restrictions can amplify. *)
        let again = Capability.restrict r chain in
        if not (Rights.subset (Capability.rights again) base) then
          fail "chain amplified rights"
        else Ok ())

(* ------------------------------------------------------------------ *)
(* Dedup: serving-side idempotence bookkeeping *)

(* A random interleaving of arrivals (clones, hedges, fault-injected
   duplicates), dispatches and cancels over a tiny id space — sequence
   numbers collide across origins by construction — must never
   double-apply an invocation, and must agree with a four-state
   reference model about which ids executed at all.  Shrinking drops
   one event at a time, so a reported counterexample is a near-minimal
   message ordering. *)

type dedup_op =
  | Arrive of Message.request_id
  | Dispatch of Message.request_id
  | Cancel of Message.request_id

let show_dedup_op op =
  let f verb (id : Message.request_id) =
    Printf.sprintf "%s %d.%d" verb id.Message.origin id.Message.seq
  in
  match op with
  | Arrive id -> f "arrive" id
  | Dispatch id -> f "dispatch" id
  | Cancel id -> f "cancel" id

let gen_dedup_ops rng =
  List.init
    (1 + Splitmix.int rng 40)
    (fun _ ->
      let id =
        { Message.origin = Splitmix.int rng 3; seq = Splitmix.int rng 4 }
      in
      match Splitmix.int rng 4 with
      | 0 | 1 -> Arrive id (* arrivals weighted up: duplicates abound *)
      | 2 -> Dispatch id
      | _ -> Cancel id)

let shrink_dedup_ops ops =
  List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) ops) ops

let prop_dedup_exactly_once =
  Prop.case ~seeds:iters ~base:0xBEEF04L ~name:"dedup exactly-once"
    ~gen:gen_dedup_ops ~shrink:shrink_dedup_ops
    ~show:(fun ops -> String.concat "; " (List.map show_dedup_op ops))
    (fun ops ->
      let t = Dedup.create ~cap:64 () in
      let key (id : Message.request_id) = (id.Message.origin, id.Message.seq) in
      let exec = Hashtbl.create 16 in (* executions through the table *)
      let model = Hashtbl.create 16 in (* reference id states *)
      let expect = Hashtbl.create 16 in (* executions the model allows *)
      let pending = ref [] in (* queued work not yet dispatched *)
      let bump h k =
        Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k))
      in
      List.iter
        (fun op ->
          match op with
          | Arrive id ->
            (* The serving node queues work only for unseen ids:
               anything already in the table is a duplicate or a
               pre-cancelled tombstone, and is dropped. *)
            (match Dedup.find t id with
            | Some _ -> ()
            | None ->
              Dedup.note_queued t id;
              pending := key id :: !pending);
            if not (Hashtbl.mem model (key id)) then
              Hashtbl.replace model (key id) `Queued
          | Dispatch id when List.mem (key id) !pending ->
            pending := List.filter (fun k -> k <> key id) !pending;
            (match Dedup.start t id with
            | `Run -> bump exec (key id)
            | `Retracted -> ());
            (match Hashtbl.find_opt model (key id) with
            | Some `Queued ->
              Hashtbl.replace model (key id) `Started;
              bump expect (key id)
            | _ -> ())
          | Dispatch _ -> ()
          | Cancel id -> (
            ignore (Dedup.cancel t id);
            match Hashtbl.find_opt model (key id) with
            | Some `Queued | None -> Hashtbl.replace model (key id) `Cancelled
            | Some _ -> ()))
        ops;
      let doubled =
        Hashtbl.fold (fun k c acc -> if c > 1 then k :: acc else acc) exec []
      in
      match doubled with
      | (o, s) :: _ -> Error (Printf.sprintf "id %d.%d executed twice" o s)
      | [] ->
        let mismatch = ref None in
        let compare_to other k c =
          if Option.value ~default:0 (Hashtbl.find_opt other k) <> c then
            mismatch := Some k
        in
        Hashtbl.iter (compare_to exec) expect;
        Hashtbl.iter (compare_to expect) exec;
        (match !mismatch with
        | Some (o, s) ->
          Error
            (Printf.sprintf "id %d.%d: table and reference model disagree" o s)
        | None -> Ok ()))

let rid origin seq = { Message.origin; seq }

(* Every id of a small universe that the table currently holds. *)
let dedup_members t =
  List.concat_map
    (fun o ->
      List.filter_map
        (fun s -> Option.map (fun _ -> (o, s)) (Dedup.find t (rid o s)))
        [ 0; 1; 2; 3; 4; 5 ])
    [ 0; 1; 2; 3; 4 ]

let test_dedup_origins_distinct () =
  let t = Dedup.create ~cap:64 () in
  Dedup.note_queued t (rid 0 7);
  check_bool "other origin unseen" true (Dedup.find t (rid 1 7) = None);
  ignore (Dedup.cancel t (rid 1 7));
  check_bool "first stays queued" true (Dedup.find t (rid 0 7) = Some Dedup.Queued);
  check_bool "second is a tombstone" true
    (Dedup.find t (rid 1 7) = Some Dedup.Cancelled);
  check_bool "first still runs" true (Dedup.start t (rid 0 7) = `Run);
  check_int "two entries" 2 (Dedup.size t)

(* Cap eviction is oldest-first by first insertion, and skips keys
   whose tombstone lease already reclaimed them.  The transcript of
   what each step removed is pinned. *)
let test_dedup_eviction_order () =
  let module Time = Eden_util.Time in
  let now = ref Time.zero in
  let t = Dedup.create ~ttl:(Time.ms 10) ~now:(fun () -> !now) ~cap:4 () in
  let log = Buffer.create 256 in
  let step name f =
    let before = dedup_members t in
    f ();
    let after = dedup_members t in
    Buffer.add_string log name;
    List.iter
      (fun (o, s) ->
        if not (List.mem (o, s) after) then Printf.bprintf log "-%d.%d" o s)
      before;
    Buffer.add_char log ' '
  in
  let q o s = step (Printf.sprintf "q%d.%d" o s) (fun () -> Dedup.note_queued t (rid o s)) in
  let c o s = step (Printf.sprintf "c%d.%d" o s) (fun () -> ignore (Dedup.cancel t (rid o s))) in
  let r o s = step (Printf.sprintf "r%d.%d" o s) (fun () -> ignore (Dedup.start t (rid o s))) in
  q 0 1; q 1 1; q 2 1; q 0 2; r 1 1; c 3 5; q 1 1; q 4 0; c 2 1; q 0 3;
  now := Time.ms 5;
  c 4 4; c 3 3;
  now := Time.ms 12;
  q 2 2; q 2 3; q 3 0;
  now := Time.ms 30;
  q 1 5; q 1 4; q 0 0; c 0 0; q 4 5; q 4 4;
  (* At 30 ms the lease of 3.3 has run out: the sweep reclaims it
     before q1.5, whose insert then needs no eviction, and the next
     eviction skips 3.3's stale key. *)
  check_string "evictions"
    "q0.1 q1.1 q2.1 q0.2 r1.1 c3.5-0.1 q1.1 q4.0-1.1 c2.1 q0.3-2.1 c4.4-0.2 c3.3-3.5 q2.2-4.0 q2.3-0.3 q3.0-4.4 q1.5 q1.4-2.2 q0.0-2.3 c0.0 q4.5-3.0 q4.4-1.5 "
    (Buffer.contents log)

let test_dedup_id_range () =
  let t = Dedup.create ~cap:8 () in
  let bad = Invalid_argument "Dedup: request id out of range" in
  List.iter
    (fun (o, s) ->
      Alcotest.check_raises (Printf.sprintf "%d.%d" o s) bad (fun () ->
          Dedup.note_queued t (rid o s)))
    [ (-1, 0); (0, -1); (1 lsl 22, 0); (0, 1 lsl 40); (max_int, max_int) ];
  (* The extremes of the range are keys of their own. *)
  let top = rid ((1 lsl 22) - 1) ((1 lsl 40) - 1) in
  Dedup.note_queued t top;
  Dedup.note_queued t (rid 0 0);
  check_bool "top kept" true (Dedup.find t top = Some Dedup.Queued);
  check_int "two keys" 2 (Dedup.size t)

(* ------------------------------------------------------------------ *)
(* Opclass *)

let test_opclass_validate () =
  let ops = [ "a"; "b"; "c" ] in
  let ok specs = Opclass.validate specs ~operations:ops = Ok () in
  check_bool "singletons valid" true
    (ok (Opclass.singleton_classes ~operations:ops ~limit:1));
  check_bool "one class valid" true
    (ok (Opclass.one_class ~name:"all" ~operations:ops ~limit:4));
  check_bool "missing op" false
    (ok [ { Opclass.class_name = "x"; operations = [ "a"; "b" ]; limit = 1 } ]);
  check_bool "unknown op" false
    (ok [ { Opclass.class_name = "x"; operations = [ "a"; "b"; "c"; "d" ]; limit = 1 } ]);
  check_bool "duplicate across classes" false
    (ok
       [
         { Opclass.class_name = "x"; operations = [ "a"; "b" ]; limit = 1 };
         { Opclass.class_name = "y"; operations = [ "b"; "c" ]; limit = 1 };
       ]);
  check_bool "zero limit" false
    (ok [ { Opclass.class_name = "x"; operations = ops; limit = 0 } ]);
  check_bool "duplicate class names" false
    (ok
       [
         { Opclass.class_name = "x"; operations = [ "a" ]; limit = 1 };
         { Opclass.class_name = "x"; operations = [ "b"; "c" ]; limit = 1 };
       ])

let test_opclass_class_of () =
  let specs =
    [
      { Opclass.class_name = "rw"; operations = [ "get"; "put" ]; limit = 2 };
      { Opclass.class_name = "admin"; operations = [ "reset" ]; limit = 1 };
    ]
  in
  check_string "found" "rw" (Opclass.class_of specs ~op:"put").Opclass.class_name;
  Alcotest.check_raises "unclassified"
    (Invalid_argument "Opclass.class_of: \"gone\" unclassified") (fun () ->
      ignore (Opclass.class_of specs ~op:"gone"))

(* ------------------------------------------------------------------ *)
(* Typemgr *)

let noop_handler _ctx _args = Api.reply_unit

let test_typemgr_validation () =
  let op name = Typemgr.operation name noop_handler in
  (match Typemgr.make ~name:"" [ op "x" ] with
  | Error "type name is empty" -> ()
  | _ -> Alcotest.fail "empty name accepted");
  (match Typemgr.make ~name:"t" [] with
  | Error "type has no operations" -> ()
  | _ -> Alcotest.fail "empty ops accepted");
  (match Typemgr.make ~name:"t" [ op "x"; op "x" ] with
  | Error "duplicate operation names" -> ()
  | _ -> Alcotest.fail "duplicates accepted");
  match Typemgr.make ~name:"t" [ op "x" ] with
  | Ok tm ->
    check_string "name" "t" (Typemgr.name tm);
    check_bool "find" true (Typemgr.resolve tm "x" <> None);
    check_bool "missing" true (Typemgr.resolve tm "y" = None);
    (* Default classes: one singleton per op with limit 1. *)
    check_int "default classes" 1 (List.length (Typemgr.classes tm));
    (* [resolve] names the class by its index in declaration order. *)
    let classes =
      [
        { Opclass.class_name = "w"; operations = [ "c" ]; limit = 1 };
        { Opclass.class_name = "r"; operations = [ "a"; "b" ]; limit = 2 };
      ]
    in
    let tm2 = Typemgr.make_exn ~name:"t2" ~classes [ op "a"; op "b"; op "c" ] in
    let class_of o =
      Option.map snd (Typemgr.resolve tm2 o)
    in
    Alcotest.(check (list (option int)))
      "resolve" [ Some 1; Some 1; Some 0; None ]
      (List.map class_of [ "a"; "b"; "c"; "d" ]);
    check_bool "resolved op" true
      (match Typemgr.resolve tm2 "b" with
      | Some (o, _) -> o.Typemgr.op_name = "b"
      | None -> false)
  | Error e -> Alcotest.failf "valid type refused: %s" e

let test_typemgr_operation_defaults () =
  let op = Typemgr.operation "op" noop_handler in
  check_bool "invoke required by default" true
    (Rights.mem Rights.Invoke op.Typemgr.required_rights);
  check_bool "mutates by default" true op.Typemgr.mutates;
  let ro = Typemgr.operation ~mutates:false ~required:[ Rights.Aux 1 ] "r" noop_handler in
  check_bool "aux added" true (Rights.mem (Rights.Aux 1) ro.Typemgr.required_rights);
  check_bool "invoke still required" true
    (Rights.mem Rights.Invoke ro.Typemgr.required_rights);
  check_bool "read only" false ro.Typemgr.mutates

(* ------------------------------------------------------------------ *)
(* Message *)

let test_message_sizes_scale () =
  let name = Name.make ~birth_node:0 ~serial:0 in
  let req args =
    Message.Inv_request
      {
        inv_id = { Message.origin = 0; seq = 1 };
        target = name;
        op = "put";
        args;
        presented = Rights.all;
        reply_to = 0;
        hops = 0;
        may_activate = false;
        span = None;
      }
  in
  let small = Message.size_bytes (req []) in
  let big = Message.size_bytes (req [ Value.Blob 10_000 ]) in
  check_bool "payload dominates" true (big >= small + 10_000);
  let reply =
    Message.Inv_reply
      {
        inv_id = { Message.origin = 0; seq = 1 };
        result = Ok [ Value.Blob 500 ];
        frozen_hint = false;
      }
  in
  check_bool "reply carries payload" true (Message.size_bytes reply >= 500);
  check_bool "describe mentions op" true
    (let d = Message.describe (req []) in
     String.length d > 0)

(* ------------------------------------------------------------------ *)
(* Api helpers *)

let test_api_arg_helpers () =
  check_bool "arg1 ok" true (Api.arg1 [ Value.Int 1 ] = Ok (Value.Int 1));
  check_bool "arg1 arity" true (Result.is_error (Api.arg1 []));
  check_bool "arg2 ok" true
    (Api.arg2 [ Value.Int 1; Value.Int 2 ] = Ok (Value.Int 1, Value.Int 2));
  check_bool "no_args ok" true (Api.no_args [] = Ok ());
  check_bool "no_args arity" true (Result.is_error (Api.no_args [ Value.Unit ]));
  (match Api.int_arg (Value.Str "x") with
  | Error (Error.Bad_arguments _) -> ()
  | _ -> Alcotest.fail "int_arg should lift conversion errors");
  check_bool "reply" true (Api.reply [ Value.Int 1 ] = Ok [ Value.Int 1 ]);
  check_bool "reply_unit" true (Api.reply_unit = Ok []);
  (match Api.user_error "boom" with
  | Error (Error.User_error "boom") -> ()
  | _ -> Alcotest.fail "user_error shape")

let () =
  Alcotest.run "eden_kernel_units"
    [
      ( "name",
        [
          Alcotest.test_case "basics" `Quick test_name_basics;
          Alcotest.test_case "ordering + table" `Quick
            test_name_ordering_and_table;
        ] );
      ( "rights",
        [
          Alcotest.test_case "sets" `Quick test_rights_sets;
          Alcotest.test_case "algebra" `Quick test_rights_algebra;
        ] );
      ( "capability",
        [ Alcotest.test_case "restrict" `Quick test_capability_restrict ] );
      ( "value",
        [
          Alcotest.test_case "sizes" `Quick test_value_sizes;
          Alcotest.test_case "accessors" `Quick test_value_accessors;
          Alcotest.test_case "caps extraction" `Quick
            test_value_caps_extraction;
          Alcotest.test_case "equal + pp" `Quick test_value_equal_and_pp;
        ] );
      ( "error",
        [ Alcotest.test_case "equality + strings" `Quick test_error_equal_and_strings ]
      );
      ( "reliability",
        [
          Alcotest.test_case "validate" `Quick test_reliability_validate;
          Alcotest.test_case "checksites" `Quick test_reliability_checksites;
        ] );
      ( "rtt",
        [
          Alcotest.test_case "integer estimates" `Quick
            test_rtt_integer_estimates;
          Alcotest.test_case "fast answers keep the floor" `Quick
            test_rtt_fast_answers_keep_the_floor;
        ] );
      ( "properties",
        [
          prop_reliability_validate;
          prop_reliability_checksites;
          prop_rtt_window_bounds;
          prop_capability_restrict;
          prop_dedup_exactly_once;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "origins distinct" `Quick
            test_dedup_origins_distinct;
          Alcotest.test_case "eviction order" `Quick test_dedup_eviction_order;
          Alcotest.test_case "id range" `Quick test_dedup_id_range;
        ] );
      ( "opclass",
        [
          Alcotest.test_case "validate" `Quick test_opclass_validate;
          Alcotest.test_case "class_of" `Quick test_opclass_class_of;
        ] );
      ( "typemgr",
        [
          Alcotest.test_case "validation" `Quick test_typemgr_validation;
          Alcotest.test_case "operation defaults" `Quick
            test_typemgr_operation_defaults;
        ] );
      ( "message",
        [ Alcotest.test_case "sizes" `Quick test_message_sizes_scale ] );
      ( "api",
        [ Alcotest.test_case "helpers" `Quick test_api_arg_helpers ] );
    ]

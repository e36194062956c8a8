(* Unit and property tests for Eden_util. *)

open Eden_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Time *)

let test_time_constructors () =
  check_int "us" 1_000 (Time.to_ns (Time.us 1));
  check_int "ms" 1_000_000 (Time.to_ns (Time.ms 1));
  check_int "s" 1_000_000_000 (Time.to_ns (Time.s 1));
  check_int "of_sec" 1_500_000_000 (Time.to_ns (Time.of_sec 1.5));
  check_int "zero" 0 (Time.to_ns Time.zero)

let test_time_arith () =
  let a = Time.ms 3 and b = Time.ms 1 in
  check_int "add" 4_000_000 (Time.to_ns (Time.add a b));
  check_int "diff" 2_000_000 (Time.to_ns (Time.diff a b));
  check_int "scale" 9_000_000 (Time.to_ns (Time.scale a 3));
  check_int "divide" 1_500_000 (Time.to_ns (Time.divide a 2));
  check_int "mul_float" 4_500_000 (Time.to_ns (Time.mul_float a 1.5));
  check_bool "lt" true Time.(b < a);
  check_int "min" (Time.to_ns b) (Time.to_ns (Time.min a b));
  check_int "max" (Time.to_ns a) (Time.to_ns (Time.max a b))

let test_time_invalid () =
  Alcotest.check_raises "negative ns" (Invalid_argument "Time.ns: negative")
    (fun () -> ignore (Time.ns (-1)));
  Alcotest.check_raises "negative diff"
    (Invalid_argument "Time.diff: negative result") (fun () ->
      ignore (Time.diff (Time.ms 1) (Time.ms 2)))

let test_time_pp () =
  check_string "ns" "999ns" (Time.to_string (Time.ns 999));
  check_string "us" "1.500us" (Time.to_string (Time.ns 1_500));
  check_string "ms" "2.000ms" (Time.to_string (Time.ms 2));
  check_string "s" "1.000s" (Time.to_string (Time.s 1));
  check_string "zero" "0s" (Time.to_string Time.zero)

(* ------------------------------------------------------------------ *)
(* Splitmix *)

let test_splitmix_deterministic () =
  let a = Splitmix.create 42L and b = Splitmix.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Splitmix.next64 a) (Splitmix.next64 b)
  done

let test_splitmix_split_differs () =
  let g = Splitmix.create 1L in
  let c1 = Splitmix.split g in
  let c2 = Splitmix.split g in
  check_bool "children differ" false (Splitmix.next64 c1 = Splitmix.next64 c2)

let test_splitmix_bounds () =
  let g = Splitmix.create 3L in
  for _ = 1 to 1_000 do
    let v = Splitmix.int g 7 in
    check_bool "int in range" true (v >= 0 && v < 7);
    let w = Splitmix.int_in g (-3) 3 in
    check_bool "int_in range" true (w >= -3 && w <= 3);
    let f = Splitmix.float g 2.5 in
    check_bool "float in range" true (f >= 0.0 && f < 2.5);
    let e = Splitmix.exponential g 1.0 in
    check_bool "exp non-negative" true (e >= 0.0)
  done

let test_splitmix_invalid () =
  let g = Splitmix.create 1L in
  Alcotest.check_raises "int 0"
    (Invalid_argument "Splitmix.int: bound must be positive") (fun () ->
      ignore (Splitmix.int g 0));
  Alcotest.check_raises "empty range"
    (Invalid_argument "Splitmix.int_in: empty range") (fun () ->
      ignore (Splitmix.int_in g 2 1));
  Alcotest.check_raises "empty choose"
    (Invalid_argument "Splitmix.choose: empty array") (fun () ->
      ignore (Splitmix.choose g [||]))

let test_splitmix_coin () =
  let g = Splitmix.create 11L in
  check_bool "p=1" true (Splitmix.coin g 1.0);
  check_bool "p=0" false (Splitmix.coin g 0.0);
  let heads = ref 0 in
  for _ = 1 to 10_000 do
    if Splitmix.coin g 0.3 then incr heads
  done;
  check_bool "p=0.3 plausible" true (!heads > 2_500 && !heads < 3_500)

let test_splitmix_shuffle_permutes () =
  let g = Splitmix.create 5L in
  let a = Array.init 50 Fun.id in
  Splitmix.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Pqueue *)

(* Every (key, value) in pop order, emptying the heap. *)
let rec drain h =
  match Pqueue.pop h with None -> [] | Some kv -> kv :: drain h

let drain_values h = List.map snd (drain h)

let test_pqueue_order () =
  let h = Pqueue.create ~dummy:0 () in
  List.iteri (fun i k -> ignore (Pqueue.push_seq h k i k)) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check (list int)) "sorted" [ 1; 1; 3; 4; 5 ] (drain_values h)

let test_pqueue_fifo_ties () =
  (* Equal keys must pop in sequence order. *)
  let h = Pqueue.create ~dummy:"" () in
  List.iteri
    (fun i (k, l) -> ignore (Pqueue.push_seq h k i l))
    [ (1, "a"); (1, "b"); (0, "z"); (1, "c") ];
  Alcotest.(check (list string))
    "fifo among equals"
    [ "z"; "a"; "b"; "c" ]
    (drain_values h)

let test_pqueue_basics () =
  let h = Pqueue.create ~dummy:"" () in
  check_bool "empty" true (Pqueue.is_empty h);
  Alcotest.(check (option (pair int string))) "pop empty" None (Pqueue.pop h);
  Alcotest.check_raises "min_key empty"
    (Invalid_argument "Pqueue.min_key: empty heap") (fun () ->
      ignore (Pqueue.min_key h));
  Alcotest.check_raises "min_seq empty"
    (Invalid_argument "Pqueue.min_seq: empty heap") (fun () ->
      ignore (Pqueue.min_seq h));
  ignore (Pqueue.push_seq h 9 4 "nine");
  check_int "min_key" 9 (Pqueue.min_key h);
  check_int "min_seq" 4 (Pqueue.min_seq h);
  check_int "length" 1 (Pqueue.length h);
  Alcotest.(check (option (pair int string)))
    "pop" (Some (9, "nine")) (Pqueue.pop h);
  check_bool "emptied" true (Pqueue.is_empty h);
  Alcotest.check_raises "pop_exn empty"
    (Invalid_argument "Pqueue.pop_exn: empty heap") (fun () ->
      ignore (Pqueue.pop_exn h))

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue drains sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Pqueue.create ~dummy:0 () in
      List.iteri (fun i k -> ignore (Pqueue.push_seq h k i k)) xs;
      let out = drain h in
      List.for_all (fun (k, v) -> k = v) out
      && List.map fst out = List.sort Int.compare xs)

(* ------------------------------------------------------------------ *)
(* Fifo *)

let test_fifo_order () =
  let q = Fifo.create () in
  for i = 1 to 100 do
    Fifo.push_exn q i
  done;
  Alcotest.(check (list int))
    "fifo order"
    (List.init 100 (fun i -> i + 1))
    (Fifo.to_list q);
  for i = 1 to 100 do
    Alcotest.(check (option int)) "pop order" (Some i) (Fifo.pop q)
  done;
  check_int "empty after" 0 (Fifo.length q)

let test_fifo_wraparound () =
  let q = Fifo.create () in
  (* Force head to wander around the ring. *)
  for round = 0 to 20 do
    for i = 0 to 5 do
      Fifo.push_exn q ((round * 10) + i)
    done;
    for i = 0 to 5 do
      Alcotest.(check (option int))
        "wrap pop" (Some ((round * 10) + i)) (Fifo.pop q)
    done
  done

let test_fifo_capacity () =
  let q = Fifo.create ~capacity:2 () in
  check_bool "push 1" true (Fifo.push q 1);
  check_bool "push 2" true (Fifo.push q 2);
  check_bool "full" true (Fifo.is_full q);
  check_bool "push refused" false (Fifo.push q 3);
  Alcotest.(check (option int)) "pop" (Some 1) (Fifo.pop q);
  check_bool "room again" true (Fifo.push q 3);
  Alcotest.(check (list int)) "contents" [ 2; 3 ] (Fifo.to_list q)

let test_fifo_invalid () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Fifo.create: capacity must be positive") (fun () ->
      ignore (Fifo.create ~capacity:0 () : int Fifo.t));
  let q = Fifo.create () in
  Alcotest.(check (option int)) "pop empty" None (Fifo.pop q)

let prop_fifo_preserves_order =
  QCheck.Test.make ~name:"fifo preserves order" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let q = Fifo.create () in
      List.iter (Fifo.push_exn q) xs;
      Fifo.to_list q = xs)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_moments () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_int "count" 8 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.min_value s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.max_value s);
  Alcotest.(check (float 1e-9)) "total" 40.0 (Stats.total s)

let test_stats_percentiles () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (Float.of_int i)
  done;
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.percentile s 50.0);
  Alcotest.(check (float 1e-9)) "p99" 99.0 (Stats.percentile s 99.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile s 100.0);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile s 0.0)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Stats.mean s);
  Alcotest.check_raises "min empty"
    (Invalid_argument "Stats.min_value: empty sample") (fun () ->
      ignore (Stats.min_value s));
  (* An empty sample has no order statistics: percentile (and median,
     which is percentile 50) raise rather than invent a 0.0 or nan
     that would flow into comparisons unnoticed.  This is the
     documented boundary — callers with maybe-empty windows must
     check [count] first. *)
  Alcotest.check_raises "percentile empty"
    (Invalid_argument "Stats.percentile: empty sample") (fun () ->
      ignore (Stats.percentile s 99.0));
  Alcotest.check_raises "median empty"
    (Invalid_argument "Stats.percentile: empty sample") (fun () ->
      ignore (Stats.median s));
  (* The raise happens before the range check: still the empty-sample
     error even for an out-of-range p. *)
  Alcotest.check_raises "empty beats out-of-range"
    (Invalid_argument "Stats.percentile: empty sample") (fun () ->
      ignore (Stats.percentile s 200.0))

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  Stats.add a 1.0;
  Stats.add b 3.0;
  let m = Stats.merge a b in
  check_int "merged count" 2 (Stats.count m);
  Alcotest.(check (float 1e-9)) "merged mean" 2.0 (Stats.mean m)

let test_stats_percentile_boundaries () =
  (* Nearest-rank on a single sample: every percentile is that sample. *)
  let s = Stats.create () in
  Stats.add s 7.5;
  Alcotest.(check (float 1e-9)) "p0 of one" 7.5 (Stats.percentile s 0.0);
  Alcotest.(check (float 1e-9)) "p50 of one" 7.5 (Stats.percentile s 50.0);
  Alcotest.(check (float 1e-9)) "p100 of one" 7.5 (Stats.percentile s 100.0);
  (* p=0 is the minimum and p=100 the maximum, on any sample. *)
  let s2 = Stats.create () in
  List.iter (Stats.add s2) [ 9.0; 1.0; 4.0 ];
  Alcotest.(check (float 1e-9)) "p0 is min" 1.0 (Stats.percentile s2 0.0);
  Alcotest.(check (float 1e-9)) "p100 is max" 9.0 (Stats.percentile s2 100.0);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: out of range") (fun () ->
      ignore (Stats.percentile s2 100.5))

let test_stats_merge_preserves_samples () =
  let a = Stats.create () and b = Stats.create () in
  List.iter (Stats.add a) [ 1.0; 5.0 ];
  List.iter (Stats.add b) [ 2.0; 8.0; 9.0 ];
  let m = Stats.merge a b in
  (* Every sample from both sides is present: the extremes come from
     different inputs and the exact percentiles walk the full union. *)
  check_int "union count" 5 (Stats.count m);
  Alcotest.(check (float 1e-9)) "union total" 25.0 (Stats.total m);
  Alcotest.(check (float 1e-9)) "min from a" 1.0 (Stats.min_value m);
  Alcotest.(check (float 1e-9)) "max from b" 9.0 (Stats.max_value m);
  Alcotest.(check (float 1e-9)) "median of union" 5.0 (Stats.median m);
  (* Merge is a fresh statistic: the inputs keep their own samples. *)
  check_int "a untouched" 2 (Stats.count a);
  check_int "b untouched" 3 (Stats.count b);
  let e = Stats.merge (Stats.create ()) a in
  check_int "merge with empty" 2 (Stats.count e);
  Alcotest.(check (float 1e-9)) "empty merge mean" 3.0 (Stats.mean e)

let test_stats_add_after_sort () =
  let s = Stats.create () in
  Stats.add s 5.0;
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.max_value s);
  Stats.add s 1.0;
  Alcotest.(check (float 1e-9)) "min after re-add" 1.0 (Stats.min_value s);
  Alcotest.(check (float 1e-9)) "max after re-add" 5.0 (Stats.max_value s)

let prop_stats_mean_bounded =
  QCheck.Test.make ~name:"mean within min..max" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let m = Stats.mean s in
      m >= Stats.min_value s -. 1e-9 && m <= Stats.max_value s +. 1e-9)

let prop_stats_percentile_monotone =
  QCheck.Test.make ~name:"percentiles monotone" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 100.0))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      Stats.percentile s 25.0 <= Stats.percentile s 75.0)

(* ------------------------------------------------------------------ *)
(* Table *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    if i + nl > hl then false
    else if String.sub haystack i nl = needle then true
    else scan (i + 1)
  in
  scan 0

let test_table_render () =
  let t =
    Table.create ~title:"demo"
      ~columns:[ ("name", Table.Left); ("value", Table.Right) ]
  in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let out = Table.render t in
  check_bool "has title" true (contains out "== demo ==");
  check_bool "has header" true (contains out "name")

let test_table_alignment () =
  let t =
    Table.create ~title:"align"
      ~columns:[ ("ll", Table.Left); ("rr", Table.Right) ]
  in
  Table.add_row t [ "ab"; "1" ];
  Table.add_row t [ "c"; "22" ];
  let out = Table.render t in
  check_bool "left padded" true (contains out "| c  |");
  check_bool "right padded" true (contains out "|  1 |")

let test_table_invalid () =
  let t = Table.create ~title:"x" ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "1"; "2" ])

let test_table_cells () =
  check_string "time cell" "1.000ms" (Table.cell_time (Time.ms 1));
  check_string "float cell" "3.14" (Table.cell_float ~decimals:2 3.14159);
  check_string "pct cell" "12.5%" (Table.cell_pct 0.125);
  check_string "int cell" "42" (Table.cell_int 42)

(* ------------------------------------------------------------------ *)
(* Idgen *)

let test_idgen () =
  let g = Idgen.create () in
  check_int "first" 0 (Idgen.next g);
  check_int "second" 1 (Idgen.next g);
  check_int "peek" 2 (Idgen.peek g);
  let g2 = Idgen.create ~first:100 () in
  check_int "custom first" 100 (Idgen.next g2)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "eden_util"
    [
      ( "time",
        [
          Alcotest.test_case "constructors" `Quick test_time_constructors;
          Alcotest.test_case "arithmetic" `Quick test_time_arith;
          Alcotest.test_case "invalid" `Quick test_time_invalid;
          Alcotest.test_case "pretty-printing" `Quick test_time_pp;
        ] );
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "split" `Quick test_splitmix_split_differs;
          Alcotest.test_case "bounds" `Quick test_splitmix_bounds;
          Alcotest.test_case "invalid" `Quick test_splitmix_invalid;
          Alcotest.test_case "coin" `Quick test_splitmix_coin;
          Alcotest.test_case "shuffle" `Quick test_splitmix_shuffle_permutes;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "order" `Quick test_pqueue_order;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "basics" `Quick test_pqueue_basics;
          qt prop_pqueue_sorts;
        ] );
      ( "fifo",
        [
          Alcotest.test_case "order" `Quick test_fifo_order;
          Alcotest.test_case "wraparound" `Quick test_fifo_wraparound;
          Alcotest.test_case "capacity" `Quick test_fifo_capacity;
          Alcotest.test_case "invalid" `Quick test_fifo_invalid;
          qt prop_fifo_preserves_order;
        ] );
      ( "stats",
        [
          Alcotest.test_case "moments" `Quick test_stats_moments;
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "percentile boundaries" `Quick
            test_stats_percentile_boundaries;
          Alcotest.test_case "merge preserves samples" `Quick
            test_stats_merge_preserves_samples;
          Alcotest.test_case "add after sort" `Quick test_stats_add_after_sort;
          qt prop_stats_mean_bounded;
          qt prop_stats_percentile_monotone;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "invalid" `Quick test_table_invalid;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
      ("idgen", [ Alcotest.test_case "sequence" `Quick test_idgen ]);
    ]

open Eden_util

type link_kind =
  | Drop
  | Duplicate
  | Delay of Time.t

type action =
  | Crash_node of int
  | Restart_node of { node : int; rebuild : bool }
  | Fail_disk of int
  | Heal_disk of int
  | Partition_segment of int
  | Heal_segment of int
  | Break_link of { src : int; dst : int; kind : link_kind; p : float }
  | Heal_link of { src : int; dst : int }
  | Slow_node of { node : int; by : Time.t }
  | Heal_slow of int
  | Join_node of int
  | Decommission_node of int

type event = { at : Time.t; action : action }
type t = event list

let make events =
  List.stable_sort (fun a b -> Time.compare a.at b.at) events

let events t = t

(* ------------------------------------------------------------------ *)
(* Printing *)

let time_to_string t =
  let n = Time.to_ns t in
  if n mod 1_000_000_000 = 0 then Printf.sprintf "%ds" (n / 1_000_000_000)
  else if n mod 1_000_000 = 0 then Printf.sprintf "%dms" (n / 1_000_000)
  else if n mod 1_000 = 0 then Printf.sprintf "%dus" (n / 1_000)
  else Printf.sprintf "%dns" n

(* 17 significant digits round-trip any double exactly, so
   [of_string (to_string p)] reproduces the plan bit-for-bit. *)
let prob_to_string p = Printf.sprintf "%.17g" p

let action_to_string = function
  | Crash_node n -> Printf.sprintf "crash %d" n
  | Restart_node { node; rebuild } ->
    Printf.sprintf "restart %d%s" node (if rebuild then " rebuild" else "")
  | Fail_disk n -> Printf.sprintf "fail-disk %d" n
  | Heal_disk n -> Printf.sprintf "heal-disk %d" n
  | Partition_segment s -> Printf.sprintf "partition %d" s
  | Heal_segment s -> Printf.sprintf "heal %d" s
  | Break_link { src; dst; kind; p } -> (
    match kind with
    | Drop -> Printf.sprintf "drop %d->%d p=%s" src dst (prob_to_string p)
    | Duplicate -> Printf.sprintf "dup %d->%d p=%s" src dst (prob_to_string p)
    | Delay d ->
      Printf.sprintf "delay %d->%d %s p=%s" src dst (time_to_string d)
        (prob_to_string p))
  | Heal_link { src; dst } -> Printf.sprintf "heal-link %d->%d" src dst
  | Slow_node { node; by } ->
    Printf.sprintf "slow %d %s" node (time_to_string by)
  | Heal_slow n -> Printf.sprintf "heal-slow %d" n
  | Join_node n -> Printf.sprintf "join %d" n
  | Decommission_node n -> Printf.sprintf "decommission %d" n

let to_string t =
  String.concat ""
    (List.map
       (fun ev ->
         Printf.sprintf "at %s %s\n" (time_to_string ev.at)
           (action_to_string ev.action))
       t)

(* ------------------------------------------------------------------ *)
(* Parsing *)

let parse_time s =
  let num_and_unit suffix mk =
    match String.length s - String.length suffix with
    | len when len > 0 && String.sub s len (String.length suffix) = suffix
      -> (
      match int_of_string_opt (String.sub s 0 len) with
      | Some n when n >= 0 -> Some (mk n)
      | Some _ | None -> None)
    | _ -> None
  in
  (* Try the longer suffixes first: "5ms" must not parse as "5m" + "s". *)
  match num_and_unit "ns" Time.ns with
  | Some t -> Some t
  | None -> (
    match num_and_unit "us" Time.us with
    | Some t -> Some t
    | None -> (
      match num_and_unit "ms" Time.ms with
      | Some t -> Some t
      | None -> num_and_unit "s" Time.s))

let parse_link s =
  match String.index_opt s '-' with
  | Some i
    when i + 1 < String.length s
         && s.[i + 1] = '>'
         && i > 0 -> (
    let src = String.sub s 0 i
    and dst = String.sub s (i + 2) (String.length s - i - 2) in
    match (int_of_string_opt src, int_of_string_opt dst) with
    | Some a, Some b -> Some (a, b)
    | _ -> None)
  | _ -> None

let parse_prob s =
  if String.length s > 2 && String.sub s 0 2 = "p=" then
    float_of_string_opt (String.sub s 2 (String.length s - 2))
  else None

let parse_action tokens =
  let int_tok s = int_of_string_opt s in
  match tokens with
  | [ "crash"; n ] ->
    Option.map (fun n -> Crash_node n) (int_tok n)
  | [ "restart"; n ] ->
    Option.map (fun n -> Restart_node { node = n; rebuild = false }) (int_tok n)
  | [ "restart"; n; "rebuild" ] ->
    Option.map (fun n -> Restart_node { node = n; rebuild = true }) (int_tok n)
  | [ "fail-disk"; n ] -> Option.map (fun n -> Fail_disk n) (int_tok n)
  | [ "heal-disk"; n ] -> Option.map (fun n -> Heal_disk n) (int_tok n)
  | [ "partition"; s ] -> Option.map (fun s -> Partition_segment s) (int_tok s)
  | [ "heal"; s ] -> Option.map (fun s -> Heal_segment s) (int_tok s)
  | [ "drop"; link; p ] -> (
    match (parse_link link, parse_prob p) with
    | Some (src, dst), Some p -> Some (Break_link { src; dst; kind = Drop; p })
    | _ -> None)
  | [ "dup"; link; p ] -> (
    match (parse_link link, parse_prob p) with
    | Some (src, dst), Some p ->
      Some (Break_link { src; dst; kind = Duplicate; p })
    | _ -> None)
  | [ "delay"; link; d; p ] -> (
    match (parse_link link, parse_time d, parse_prob p) with
    | Some (src, dst), Some d, Some p ->
      Some (Break_link { src; dst; kind = Delay d; p })
    | _ -> None)
  | [ "heal-link"; link ] ->
    Option.map (fun (src, dst) -> Heal_link { src; dst }) (parse_link link)
  | [ "slow"; n; d ] -> (
    match (int_tok n, parse_time d) with
    | Some node, Some by -> Some (Slow_node { node; by })
    | _ -> None)
  | [ "heal-slow"; n ] -> Option.map (fun n -> Heal_slow n) (int_tok n)
  | [ "join"; n ] -> Option.map (fun n -> Join_node n) (int_tok n)
  | [ "decommission"; n ] ->
    Option.map (fun n -> Decommission_node n) (int_tok n)
  | _ -> None

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens_of line =
  String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) line)
  |> List.filter (fun s -> s <> "")

let of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go lineno acc = function
    | [] -> Ok (make (List.rev acc))
    | line :: rest -> (
      match tokens_of (strip_comment line) with
      | [] -> go (lineno + 1) acc rest
      | "at" :: time :: action_tokens -> (
        match (parse_time time, parse_action action_tokens) with
        | Some at, Some action ->
          go (lineno + 1) ({ at; action } :: acc) rest
        | None, _ ->
          Error (Printf.sprintf "line %d: bad time %S" lineno time)
        | _, None ->
          Error
            (Printf.sprintf "line %d: bad action %S" lineno
               (String.concat " " action_tokens)))
      | _ -> Error (Printf.sprintf "line %d: expected 'at TIME ACTION'" lineno))
  in
  go 1 [] lines

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Validation *)

let validate t ~nodes ~segments =
  let check_node n what =
    if n < 0 || n >= nodes then
      Error (Printf.sprintf "%s %d out of range (nodes = %d)" what n nodes)
    else Ok ()
  in
  let check_seg s =
    if s < 0 || s >= segments then
      Error
        (Printf.sprintf "segment %d out of range (segments = %d)" s segments)
    else Ok ()
  in
  let check_prob p =
    if p < 0.0 || p > 1.0 || Float.is_nan p then
      Error (Printf.sprintf "probability %g out of [0,1]" p)
    else Ok ()
  in
  let ( let* ) = Result.bind in
  List.fold_left
    (fun acc ev ->
      let* () = acc in
      match ev.action with
      | Crash_node n | Restart_node { node = n; _ } -> check_node n "node"
      | Fail_disk n | Heal_disk n -> check_node n "node"
      | Partition_segment s | Heal_segment s -> check_seg s
      | Break_link { src; dst; p; _ } ->
        let* () = check_node src "link src" in
        let* () = check_node dst "link dst" in
        let* () = check_prob p in
        if src = dst then Error (Printf.sprintf "link %d->%d is a self-loop" src dst)
        else Ok ()
      | Heal_link { src; dst } ->
        let* () = check_node src "link src" in
        check_node dst "link dst"
      | Slow_node { node; by } ->
        let* () = check_node node "node" in
        if Time.to_ns by <= 0 then
          Error (Printf.sprintf "slow %d: delay must be positive" node)
        else Ok ()
      | Heal_slow n -> check_node n "node"
      | Join_node n | Decommission_node n -> check_node n "node")
    (Ok ()) t

(* ------------------------------------------------------------------ *)
(* Random plans *)

(* Times are drawn on a millisecond grid so plans print exactly. *)
let rand_time rng ~lo ~hi =
  let lo_ms = Time.to_ns lo / 1_000_000 and hi_ms = Time.to_ns hi / 1_000_000 in
  Time.ms (Splitmix.int_in rng lo_ms (max lo_ms hi_ms))

let frac t x = Time.mul_float t x

let random ~seed ~nodes ~segments ~horizon =
  if nodes < 2 then invalid_arg "Plan.random: need at least two nodes";
  let rng = Splitmix.create seed in
  let pick_node () = Splitmix.int_in rng 1 (nodes - 1) in
  let evs = ref [] in
  let push at action = evs := { at; action } :: !evs in
  (* One or two crash/restart windows on distinct victims. *)
  let n_crashes = 1 + Splitmix.int rng (min 2 (nodes - 1)) in
  let victims = Array.init (nodes - 1) (fun i -> i + 1) in
  Splitmix.shuffle rng victims;
  for i = 0 to n_crashes - 1 do
    let v = victims.(i) in
    let down = rand_time rng ~lo:(frac horizon 0.10) ~hi:(frac horizon 0.35) in
    let up =
      rand_time rng
        ~lo:(Time.add down (frac horizon 0.15))
        ~hi:(frac horizon 0.70)
    in
    push down (Crash_node v);
    push up (Restart_node { node = v; rebuild = true })
  done;
  (* Sometimes a disk-failure window on a (possibly crashed) victim. *)
  if Splitmix.coin rng 0.5 then begin
    let v = pick_node () in
    let fail = rand_time rng ~lo:(frac horizon 0.10) ~hi:(frac horizon 0.40) in
    let heal =
      rand_time rng
        ~lo:(Time.add fail (frac horizon 0.10))
        ~hi:(frac horizon 0.75)
    in
    push fail (Fail_disk v);
    push heal (Heal_disk v)
  end;
  (* A partition window on a non-driver segment, when there is one. *)
  if segments > 1 && Splitmix.coin rng 0.6 then begin
    let s = Splitmix.int_in rng 1 (segments - 1) in
    let cut = rand_time rng ~lo:(frac horizon 0.15) ~hi:(frac horizon 0.40) in
    let heal =
      rand_time rng
        ~lo:(Time.add cut (frac horizon 0.10))
        ~hi:(frac horizon 0.70)
    in
    push cut (Partition_segment s);
    push heal (Heal_segment s)
  end;
  (* Sometimes a slow-node window: a straggler, not an absence — the
     degradation pattern speculative cloning and hedging defend
     against. *)
  if Splitmix.coin rng 0.5 then begin
    let v = pick_node () in
    let by = Time.ms (1 + Splitmix.int rng 8) in
    let from =
      rand_time rng ~lo:(frac horizon 0.10) ~hi:(frac horizon 0.45)
    in
    let heal =
      rand_time rng
        ~lo:(Time.add from (frac horizon 0.10))
        ~hi:(frac horizon 0.80)
    in
    push from (Slow_node { node = v; by });
    push heal (Heal_slow v)
  end;
  (* A few lossy-link windows. *)
  let n_links = Splitmix.int rng 3 in
  for _ = 1 to n_links do
    let src = Splitmix.int rng nodes in
    let dst = pick_node () in
    if src <> dst then begin
      let kind =
        match Splitmix.int rng 3 with
        | 0 -> Drop
        | 1 -> Duplicate
        | _ -> Delay (Time.ms (1 + Splitmix.int rng 5))
      in
      let p = 0.1 +. Splitmix.float rng 0.4 in
      let break =
        rand_time rng ~lo:(frac horizon 0.05) ~hi:(frac horizon 0.50)
      in
      let heal =
        rand_time rng
          ~lo:(Time.add break (frac horizon 0.10))
          ~hi:(frac horizon 0.80)
      in
      push break (Break_link { src; dst; kind; p });
      push heal (Heal_link { src; dst })
    end
  done;
  make (List.rev !evs)

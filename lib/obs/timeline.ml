open Eden_util

type t = Journal.event list

(* Event ids are allocated from the cluster-shared sink in engine
   execution order, which never runs ahead of virtual time — so
   ordering by id yields one deterministic, time-ordered, cross-node
   merge.  Each journal records in id order, so its events are sorted
   already: a k-way merge over the journals gives the full order in
   O(n log k).  The merge runs from the newest event back, so the
   output list is built by consing, with no reversal: a max-heap of
   the journals keyed by the id of each one's newest unread event,
   read in place with [Journal.nth_id], so an event is built only when
   it joins the output. *)
let assemble journals =
  let js =
    Array.of_list (List.filter (fun j -> Journal.retained j > 0) journals)
  in
  (* [next.(j)] is the index of journal [j]'s newest unread event;
     [heap] holds the journals that still have one, and [key] the id
     of that event. *)
  let next = Array.map (fun j -> Journal.retained j - 1) js in
  let heap = Array.init (Array.length js) Fun.id in
  let key = Array.make (Array.length js) 0 in
  Array.iteri (fun h j -> key.(h) <- Journal.nth_id js.(j) next.(j)) heap;
  let size = ref (Array.length heap) in
  let rec sift i =
    let l = (2 * i) + 1 in
    if l < !size then begin
      let c = if l + 1 < !size && key.(l + 1) > key.(l) then l + 1 else l in
      if key.(c) > key.(i) then begin
        let j = heap.(i) and k = key.(i) in
        heap.(i) <- heap.(c);
        key.(i) <- key.(c);
        heap.(c) <- j;
        key.(c) <- k;
        sift c
      end
    end
  in
  for i = (!size / 2) - 1 downto 0 do
    sift i
  done;
  let acc = ref [] in
  while !size > 0 do
    let j = heap.(0) in
    let i = next.(j) in
    acc := Journal.nth js.(j) i :: !acc;
    next.(j) <- i - 1;
    if i > 0 then key.(0) <- Journal.nth_id js.(j) (i - 1)
    else begin
      decr size;
      heap.(0) <- heap.(!size);
      key.(0) <- key.(!size)
    end;
    sift 0
  done;
  !acc

let events t = t
let length = List.length

let nodes t =
  List.sort_uniq compare (List.map (fun e -> e.Journal.ev_node) t)

let traces t =
  List.sort_uniq compare (List.map (fun e -> e.Journal.ev_trace) t)

(* ---------------------------------------------------------------- *)
(* Text timeline: one causal tree per trace. *)

let to_text t =
  let b = Buffer.create 4096 in
  let by_trace = Hashtbl.create 64 in
  List.iter
    (fun (e : Journal.event) ->
      let tl = try Hashtbl.find by_trace e.ev_trace with Not_found -> [] in
      Hashtbl.replace by_trace e.ev_trace (e :: tl))
    t;
  let depth = Hashtbl.create 256 in
  let depth_of (e : Journal.event) =
    let p = e.ev_parent in
    if p < 0 || p = e.ev_id then 0
    else match Hashtbl.find_opt depth p with Some d -> d + 1 | None -> 0
  in
  List.iter
    (fun trace ->
      let evs = List.rev (Hashtbl.find by_trace trace) in
      Buffer.add_string b (Printf.sprintf "trace %d (%d events)\n" trace
           (List.length evs));
      List.iter
        (fun (e : Journal.event) ->
          let d = depth_of e in
          Hashtbl.replace depth e.ev_id d;
          Buffer.add_string b
            (Printf.sprintf "%*s[%s] n%d #%d%s %s\n" (2 + (2 * d)) ""
               (Time.to_string e.ev_at) e.ev_node e.ev_id
               (let p = e.ev_parent in
                if p >= 0 && p <> e.ev_id then Printf.sprintf " <#%d" p
                else "")
               (Journal.describe_kind e.ev_kind)))
        evs)
    (traces t);
  Buffer.contents b

(* ---------------------------------------------------------------- *)
(* Chrome trace_event JSON (load in chrome://tracing or Perfetto).

   Every journal event becomes an instant event (ph "i") with
   pid = node and tid = trace id, so each node renders as a process and
   each causal trace as a track.  Matched send/recv pairs additionally
   emit a flow (ph "s" -> ph "f"), which the viewers draw as an arrow
   across nodes. *)

let ts_us (e : Journal.event) =
  Json.Float (float_of_int (Time.to_ns e.ev_at) /. 1000.)

let instant (e : Journal.event) =
  Json.Obj
    [
      ("name", Json.Str (Journal.kind_name e.ev_kind));
      ("cat", Json.Str "eden");
      ("ph", Json.Str "i");
      ("s", Json.Str "t");
      ("pid", Json.Int e.ev_node);
      ("tid", Json.Int e.ev_trace);
      ("ts", ts_us e);
      ( "args",
        Json.Obj
          [
            ("id", Json.Int e.ev_id);
            ( "parent",
              if e.ev_parent >= 0 then Json.Int e.ev_parent else Json.Null );
            ("detail", Json.Str (Journal.describe_kind e.ev_kind));
          ] );
    ]

let flow ~phase ?(extra = []) (e : Journal.event) ~id =
  Json.Obj
    ([
       ("name", Json.Str "msg");
       ("cat", Json.Str "eden");
       ("ph", Json.Str phase);
     ]
    @ extra
    @ [
        ("id", Json.Int id);
        ("pid", Json.Int e.ev_node);
        ("tid", Json.Int e.ev_trace);
        ("ts", ts_us e);
      ])

let process_name node =
  Json.Obj
    [
      ("name", Json.Str "process_name");
      ("ph", Json.Str "M");
      ("pid", Json.Int node);
      ("tid", Json.Int 0);
      ("args", Json.Obj [ ("name", Json.Str (Printf.sprintf "node %d" node)) ]);
    ]

let to_chrome_json ?(extra = []) t =
  let ix = Index.of_events t in
  let meta = List.map process_name (nodes t) in
  let instants = List.map instant t in
  let flows =
    List.concat
      (List.mapi
         (fun i (e : Journal.event) ->
           match e.ev_kind with
           | Journal.Recv _ when e.ev_parent >= 0 -> (
             let p = e.ev_parent in
             let q = Index.parent ix (Index.input ix i) in
             if q < 0 then []
             else
               match (Index.events ix).(q) with
               | { Journal.ev_kind = Journal.Send _; _ } as s ->
                 [
                   flow ~phase:"s" s ~id:p;
                   flow ~phase:"f" ~extra:[ ("bp", Json.Str "e") ] e ~id:p;
                 ]
               | _ -> [])
           | _ -> [])
         t)
  in
  Json.Obj [ ("traceEvents", Json.List (meta @ instants @ flows @ extra)) ]

let to_chrome_string ?extra t =
  Json.to_string ~compact:true (to_chrome_json ?extra t)

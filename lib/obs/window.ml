(* Ring-of-deltas sliding windows (see window.mli).  One float array per
   window, one int array per histogram bucket row: pushes write a slot
   and bump the head, queries walk back from the head.  Nothing here
   allocates after [create] except [merge], which builds its result. *)

module Time = Eden_util.Time

type t = {
  w_cap : int;
  w_vals : float array;
  mutable w_head : int; (* next slot to write *)
  mutable w_filled : int;
}

let create ~ticks =
  if ticks <= 0 then invalid_arg "Window.create: ticks must be positive";
  { w_cap = ticks; w_vals = Array.make ticks 0.0; w_head = 0; w_filled = 0 }

let push w v =
  w.w_vals.(w.w_head) <- v;
  w.w_head <- (w.w_head + 1) mod w.w_cap;
  if w.w_filled < w.w_cap then w.w_filled <- w.w_filled + 1

(* Newest-first: [age] 0 is the most recent tick.  Callers clamp [k]
   to [filled] first, so the index never wraps past live data. *)
let slot w age = (w.w_head - 1 - age + (2 * w.w_cap)) mod w.w_cap

let effective w k = min k w.w_filled

let sum_last w k =
  let k = effective w k in
  let acc = ref 0.0 in
  for age = 0 to k - 1 do
    acc := !acc +. w.w_vals.(slot w age)
  done;
  !acc

let max_last w k =
  let k = effective w k in
  if k = 0 then nan
  else begin
    let acc = ref w.w_vals.(slot w 0) in
    for age = 1 to k - 1 do
      let v = w.w_vals.(slot w age) in
      if v > !acc then acc := v
    done;
    !acc
  end

let rate_last w k ~tick =
  let k = effective w k in
  if k = 0 then nan
  else sum_last w k /. (float_of_int k *. Time.to_sec tick)

module Hist = struct
  type h = {
    h_bounds : float array;
    h_buckets : int; (* bounds + overflow *)
    h_cap : int;
    h_rows : int array; (* h_cap rows of h_buckets per-tick deltas *)
    mutable h_head : int;
    mutable h_filled : int;
    h_acc : int array; (* query scratch, h_buckets wide *)
  }

  let create ~ticks ~bounds =
    if ticks <= 0 then invalid_arg "Window.Hist.create: ticks must be positive";
    if Array.length bounds = 0 then
      invalid_arg "Window.Hist.create: empty bounds";
    let nb = Array.length bounds + 1 in
    {
      h_bounds = Array.copy bounds;
      h_buckets = nb;
      h_cap = ticks;
      h_rows = Array.make (ticks * nb) 0;
      h_head = 0;
      h_filled = 0;
      h_acc = Array.make nb 0;
    }

  let push h ~counts ~overflow =
    if Array.length counts <> Array.length h.h_bounds then
      invalid_arg "Window.Hist.push: counts/bounds length mismatch";
    let row = h.h_head * h.h_buckets in
    Array.blit counts 0 h.h_rows row (Array.length counts);
    h.h_rows.(row + h.h_buckets - 1) <- overflow;
    h.h_head <- (h.h_head + 1) mod h.h_cap;
    if h.h_filled < h.h_cap then h.h_filled <- h.h_filled + 1

  let accumulate h k =
    let k = min k h.h_filled in
    Array.fill h.h_acc 0 h.h_buckets 0;
    for age = 0 to k - 1 do
      let r = (h.h_head - 1 - age + (2 * h.h_cap)) mod h.h_cap in
      let row = r * h.h_buckets in
      for i = 0 to h.h_buckets - 1 do
        h.h_acc.(i) <- h.h_acc.(i) + h.h_rows.(row + i)
      done
    done

  let quantile_last h k q =
    if not (q >= 0.0 && q <= 1.0) then
      invalid_arg "Window.Hist.quantile_last: q out of [0,1]";
    accumulate h k;
    let total = Array.fold_left ( + ) 0 h.h_acc in
    if total = 0 then nan
    else begin
      (* Nearest rank, 1-based; q = 0 maps to the first observation. *)
      let rank =
        max 1 (int_of_float (ceil (q *. float_of_int total)))
      in
      let rank = min rank total in
      let cum = ref 0 in
      let result = ref h.h_bounds.(Array.length h.h_bounds - 1) in
      (try
         for i = 0 to h.h_buckets - 1 do
           let c = h.h_acc.(i) in
           if c > 0 && !cum + c >= rank then begin
             if i = h.h_buckets - 1 then
               (* Overflow: the estimator is blind past the last bound. *)
               result := h.h_bounds.(Array.length h.h_bounds - 1)
             else begin
               let lo = if i = 0 then 0.0 else h.h_bounds.(i - 1) in
               let hi = h.h_bounds.(i) in
               let within = float_of_int (rank - !cum) /. float_of_int c in
               result := lo +. ((hi -. lo) *. within)
             end;
             raise Exit
           end;
           cum := !cum + c
         done
       with Exit -> ());
      !result
    end
end

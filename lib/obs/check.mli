(** Trace checker: cross-node invariants over an assembled timeline.

    Eight rules, each a causality audit the simulator's own unit tests
    cannot express because no single node sees the whole story:

    - {b recv-matches-send}: every receive's causal parent exists, is
      a send, and lives on the node the receiver names as its source.
    - {b causal-time-order}: no event happens before its causal
      parent in virtual time.
    - {b retry-terminates}: a trace that retried also reports an
      invocation end (ok or error) after the retry.
    - {b install-epoch}: a replica-cache install never carries an
      epoch older than an invalidation already seen on that node.
    - {b clone-resolves-once}: every clone fan-out resolves to exactly
      one win plus cancelled losers (or, with no winner, a cancel for
      every site) — per trace, wins never exceed fan-outs and
      wins + cancels equals the total sites fanned out to.
    - {b dir-resolves-or-falls-back}: the locate directory resolves to
      the true home or falls back — per trace, a [Dir_hit] is followed
      by the invocation's end or an explicit [Dir_fallback] (a stale
      answer may cost a nack round, never strand the attempt), and a
      [Dir_miss] is always followed by a [Dir_fallback] (a miss
      mandates the broadcast path).
    - {b epoch-monotonic}: membership views only move forward — per
      node, successive [Epoch_bump]s carry strictly increasing epochs
      — and a [Dir_hit] consumed at a node whose view lags the newest
      epoch any node has reached is still followed by the invocation's
      end or an explicit [Dir_fallback]: a stale ring can cost a
      detour, never a stranded attempt.
    - {b attribution-complete}: for every trace bracketing a whole
      request, the critical-path profiler's per-category nanoseconds
      ({!Critical.breakdowns}) sum to the request's end-to-end
      latency, exactly — attribution never loses or double-counts a
      nanosecond.

    The first, third, fifth, sixth, seventh and eighth rules need the
    journals to be complete; pass [complete:false] when any journal
    dropped events and they are skipped. *)

type violation = { v_rule : string; v_event : int option; v_detail : string }
(** [v_rule] is the invariant's {e name} (e.g. ["attribution-complete"]),
    in both the text rendering and the JSON export — downstream
    tooling never sees a bare positional index. *)

val pp_violation : Format.formatter -> violation -> unit

val violations_to_json : violation list -> Json.t

val run : ?complete:bool -> Timeline.t -> violation list
(** Empty list = all invariants hold. *)

(** The entity-identification function: a three-valued decision for a
    tuple pair given identity and distinctness rules (Section 3.2).

    "true" only if some identity rule applies; "false" only if some
    distinctness rule applies; "unknown" otherwise. If both apply, the
    rule base is inconsistent with the consistency constraint — reported
    rather than silently resolved. *)

type verdict = {
  result : Match_result.t;
  identity : Rules.Identity.t option;  (** the rule that fired, if any *)
  distinctness : Rules.Distinctness.t option;
}

exception Inconsistent of {
  identity : Rules.Identity.t;
  distinctness : Rules.Distinctness.t;
}

(** The blocking index claimed both an identity and a distinctness rule
    fire on this pair, but re-running the decision function did not
    raise {!Inconsistent} — an engine-internal invariant breach (only
    reachable when the two are genuinely desynchronised, e.g. through
    {!partition}'s [decide] fault-injection hook). Carries the offending
    tuple pair as the witness, mirroring {!Ilfd.Apply.Conflict_found}. *)
exception Blocking_desync of {
  r_tuple : Relational.Tuple.t;
  s_tuple : Relational.Tuple.t;
}

(** [decide ~identity ~distinctness s1 t1 s2 t2].
    @raise Inconsistent when both an identity and a distinctness rule
    apply to the same pair. *)
val decide :
  identity:Rules.Identity.t list ->
  distinctness:Rules.Distinctness.t list ->
  Relational.Schema.t ->
  Relational.Tuple.t ->
  Relational.Schema.t ->
  Relational.Tuple.t ->
  verdict

(** [partition ~identity ~distinctness r s] — every (r,s) pair classified:
    [(matching, not_matching, undetermined)] with the witnessing tuples.
    This is the Figure 3 partition. As in the paper, only the two fired
    sets are materialised: [matching] and [not_matching] are row-major
    lists, and [undetermined] is their complement in R × S — a
    persistent, re-iterable, row-major sequence walked on demand from
    the fired sets, of length |R|·|S| − |matching| − |not_matching|.
    Enumerating it costs one step per undetermined pair; building the
    partition costs only the blocking passes and the fired pairs.

    Rules that imply attribute-value equality (every well-formed identity
    rule; distinctness rules with [=]-atoms) are evaluated with hash
    blocking ({!Blocking}) instead of the |R|×|S| nested loop; rules with
    no equality atoms fall back per rule. The partition — including which
    pair raises {!Inconsistent}, and with which witnessing rules — is
    identical to {!partition_naive}'s once [undetermined] is enumerated.

    A pair in both fired sets (an inconsistent rule base) is detected up
    front from the sets themselves: the engine raises from the
    row-major-minimal conflicting pair ({!Blocking.min_conflict}) with
    the same witnessing rules the naive scan reports, so enumerating
    [undetermined] never raises. The conflict pre-scan is skipped when
    either fired set is empty.

    [jobs], [shards] and [mem_budget] are passed to the blocking passes
    ({!Blocking.fired}); the result and the stable counters are
    invariant in all three.

    [telemetry] (default {!Telemetry.off}) records the
    [partition.block.identity] / [partition.block.distinctness] /
    [partition.merge] spans, the [partition.pairs_naive] (theoretical
    |R|×|S|) and [partition.pairs_considered] (candidate pairs the
    blocking passes actually proposed) counters, the
    [partition.matched] / [partition.distinct] / [partition.undetermined]
    counters (the last computed from the other two, not by enumeration),
    and the per-kind blocking counters ({!Blocking.fired}).

    [decide] (default {!decide} over the given rules) is what the
    both-fired arm re-runs to reproduce the naive engine's
    {!Inconsistent} witness. It is a fault-injection hook for the
    correctness harness: substituting a decision function that disagrees
    with the blocking index makes {!partition} raise {!Blocking_desync}
    with the offending pair instead of crashing on an assertion.
    @raise Blocking_desync when the blocking index reports a conflict on
    a pair for which [decide] does not raise. *)
val partition :
  ?jobs:int ->
  ?shards:int ->
  ?mem_budget:int ->
  ?telemetry:Telemetry.t ->
  ?decide:
    (Relational.Schema.t ->
    Relational.Tuple.t ->
    Relational.Schema.t ->
    Relational.Tuple.t ->
    verdict) ->
  identity:Rules.Identity.t list ->
  distinctness:Rules.Distinctness.t list ->
  Relational.Relation.t ->
  Relational.Relation.t ->
  (Relational.Tuple.t * Relational.Tuple.t) list
  * (Relational.Tuple.t * Relational.Tuple.t) list
  * (Relational.Tuple.t * Relational.Tuple.t) Seq.t

(** [partition_naive] — the reference nested-loop implementation: one
    {!decide} per pair, all three sets materialised. Kept for agreement
    testing and benchmarking; {!partition} must produce byte-identical
    results once its undetermined sequence is enumerated. *)
val partition_naive :
  identity:Rules.Identity.t list ->
  distinctness:Rules.Distinctness.t list ->
  Relational.Relation.t ->
  Relational.Relation.t ->
  (Relational.Tuple.t * Relational.Tuple.t) list
  * (Relational.Tuple.t * Relational.Tuple.t) list
  * (Relational.Tuple.t * Relational.Tuple.t) list

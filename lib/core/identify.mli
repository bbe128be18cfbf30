(** The matching-table construction of Section 4.2, operational form:

    + extend R to R′ (and S to S′) with the extended-key attributes each
      side is missing, deriving values with the available ILFDs and
      defaulting to NULL;
    + match every R′/S′ pair with identical {e non-NULL} values on all of
      K_Ext;
    + record the pair of original candidate-key values in MT_RS;
    + verify the result is sound in the uniqueness sense (the prototype
      prints "the extended key causes unsound matching result" when it is
      not — we return the witnesses).

    This is the whole Figure 4 pipeline apart from integration
    ({!Integrate}) and the negative table ({!Negative}). *)

type outcome = {
  r_extended : Relational.Relation.t;  (** R′ *)
  s_extended : Relational.Relation.t;  (** S′ *)
  matching_table : Matching_table.t;
  violations : Matching_table.violation list;
      (** uniqueness violations; empty = the extended key is verified *)
  pairs : (Relational.Tuple.t * Relational.Tuple.t) list;
      (** the matched pairs as full extended tuples, R′ × S′ *)
  unmatched_r : Relational.Tuple.t list;
      (** R′ tuples whose K_Ext projection contains a NULL even after
          ILFD extension — [non_null_eq] means the extended-key join can
          never match them, so they are excluded from matching (not
          merely unmatched so far, which is {!Integrate.unmatched_r}'s
          weaker notion). In relation order. *)
  unmatched_s : Relational.Tuple.t list;  (** the S′ counterpart *)
}

(** [run ?mode ?jobs ?shards ?mem_budget ?telemetry ~r ~s ~key ilfds].
    [jobs] (default [1]) > 1 runs the ILFD extension of both relations
    chunked over that many domains ({!Ilfd.Apply.extend_relation}); the
    outcome is identical for every [jobs] value.

    The K_Ext join is one hash join that reports matched pairs in
    row-major order (ascending R′ row, ascending S′ partner within a
    row). Without a [mem_budget], or with [shards = 1] (the default), it
    is the serial coded join: one build table over S′'s key codes, one
    probe pass over R′. With [shards > 1] {e and} a [mem_budget], it is
    the out-of-core grace join: S′ entries are routed by key hash
    ({!Shard.router}) into {!Shard.Spill} buffers of [mem_budget /
    shards] bytes each, each shard builds and probes its own table with
    only that table resident, and the matches pass through a budgeted
    {!Shard.Sink} whose parts are merged back into row-major order.
    Matching tuples carry equal key values, so every join bucket lives
    in one shard and the outcome is identical for every [shards],
    [mem_budget] and [jobs] value. [shards] without a [mem_budget] has
    no effect: it only serves to bound memory.

    [telemetry] (default {!Telemetry.off}) records the
    [identify.extend_r] / [identify.extend_s] / [identify.join] spans,
    the [identify.pairs] / [identify.unmatched_r] / [identify.unmatched_s]
    / [identify.violations] / [identify.join.buckets] counters, and the
    ILFD extension counters ({!Ilfd.Apply.extend_relation}). The
    budgeted sharded join also records [identify.peak_verdict_bytes]
    (the sink's peak resident bytes) and the [parallel.shard.*] /
    [parallel.sink.*] spill counters. Everything outside the
    [parallel.*] namespace and [identify.peak_verdict_bytes] is
    identical for every [jobs], [shards] and [mem_budget] value.
    @raise Invalid_argument when [shards <= 0].
    @raise Ilfd.Apply.Conflict_found in [Check_conflicts] mode. *)
val run :
  ?mode:Ilfd.Apply.mode ->
  ?jobs:int ->
  ?shards:int ->
  ?mem_budget:int ->
  ?telemetry:Telemetry.t ->
  r:Relational.Relation.t ->
  s:Relational.Relation.t ->
  key:Extended_key.t ->
  Ilfd.t list ->
  outcome

(** [run_stream ?mode ?jobs ?shards ?mem_budget ?telemetry ~r ~s ~key
    ~init ~f ilfds] — {!run}'s join as a fold: folds [f] over every
    matched [(r', s')] pair of extended tuples in the same row-major
    order {e without materialising the pair list}, so peak memory is the
    join state plus, on the budgeted sharded join, the sink's budget —
    not the output. The fold observes exactly the pairs {!run}
    materialises, in the same order, for every [jobs], [shards] and
    [mem_budget] value. It records the same telemetry as {!run} except
    the outcome counters ([identify.pairs] and the rest).
    @raise Invalid_argument when [shards <= 0].
    @raise Ilfd.Apply.Conflict_found in [Check_conflicts] mode. *)
val run_stream :
  ?mode:Ilfd.Apply.mode ->
  ?jobs:int ->
  ?shards:int ->
  ?mem_budget:int ->
  ?telemetry:Telemetry.t ->
  r:Relational.Relation.t ->
  s:Relational.Relation.t ->
  key:Extended_key.t ->
  init:'a ->
  f:('a -> Relational.Tuple.t -> Relational.Tuple.t -> 'a) ->
  Ilfd.t list ->
  'a

(** [extension_schema relation key] — the relation's schema widened with
    its missing extended-key attributes (K_Ext−R, in key order). *)
val extension_schema :
  Relational.Relation.t -> Extended_key.t -> Relational.Schema.t

(** [run_rules ?mode ~identity ?distinctness ~r ~s ~key ilfds] — the
    general form: extended-key equivalence is only {e one} identity rule
    (Section 4.1); this variant matches with an arbitrary identity-rule
    set over the ILFD-extended relations, still recording pairs by their
    candidate-key values and checking uniqueness. [key] controls which
    attributes are derived into R′/S′ (pass the union of attributes your
    rules mention). Distinctness rules contribute nothing to MT but an
    {!Decision.Inconsistent} pair raises. [jobs] (default [1]) > 1
    parallelises the ILFD extension and the blocking probes; [shards]
    (default [1]) > 1 with a [mem_budget] runs the keyed blocking rules
    key-sharded under that spill budget ({!Blocking.fired}). Results —
    including which pair raises — are identical to serial for every
    [jobs], [shards] and [mem_budget] value; the outcome is built as
    {!run}'s is, from the matched pairs of {!Decision.partition}.
    [telemetry] additionally collects the {!Decision.partition} blocking
    counters (candidate-pair reduction vs the cross product).
    @raise Decision.Inconsistent when an identity and a distinctness rule
    fire on the same pair. *)
val run_rules :
  ?mode:Ilfd.Apply.mode ->
  ?jobs:int ->
  ?shards:int ->
  ?mem_budget:int ->
  ?telemetry:Telemetry.t ->
  identity:Rules.Identity.t list ->
  ?distinctness:Rules.Distinctness.t list ->
  r:Relational.Relation.t ->
  s:Relational.Relation.t ->
  key:Extended_key.t ->
  Ilfd.t list ->
  outcome

(** [is_verified o] — the prototype's acknowledge/warning distinction. *)
val is_verified : outcome -> bool

module V = Relational.Value

type verdict = {
  result : Match_result.t;
  identity : Rules.Identity.t option;
  distinctness : Rules.Distinctness.t option;
}

exception Inconsistent of {
  identity : Rules.Identity.t;
  distinctness : Rules.Distinctness.t;
}

exception Blocking_desync of {
  r_tuple : Relational.Tuple.t;
  s_tuple : Relational.Tuple.t;
}

let decide ~identity ~distinctness s1 t1 s2 t2 =
  (* Both rule kinds state symmetric facts about (e1, e2); try each rule
     in both orientations. *)
  let fired_identity =
    List.find_opt
      (fun rule ->
        Rules.Identity.applies rule s1 t1 s2 t2 = V.True
        || Rules.Identity.applies rule s2 t2 s1 t1 = V.True)
      identity
  in
  let fired_distinctness =
    List.find_opt
      (fun rule ->
        Rules.Distinctness.applies rule s1 t1 s2 t2 = V.True
        || Rules.Distinctness.applies rule s2 t2 s1 t1 = V.True)
      distinctness
  in
  match fired_identity, fired_distinctness with
  | Some i, Some d -> raise (Inconsistent { identity = i; distinctness = d })
  | Some _, None ->
      { result = Match_result.Match;
        identity = fired_identity;
        distinctness = None }
  | None, Some _ ->
      { result = Match_result.No_match;
        identity = None;
        distinctness = fired_distinctness }
  | None, None ->
      { result = Match_result.Undetermined;
        identity = None;
        distinctness = None }

let partition_naive ~identity ~distinctness r s =
  let sr = Relational.Relation.schema r
  and ss = Relational.Relation.schema s in
  let matched = ref [] and distinct = ref [] and unknown = ref [] in
  Relational.Relation.iter
    (fun tr ->
      Relational.Relation.iter
        (fun ts ->
          let v = decide ~identity ~distinctness sr tr ss ts in
          let bucket =
            match v.result with
            | Match_result.Match -> matched
            | Match_result.No_match -> distinct
            | Match_result.Undetermined -> unknown
          in
          bucket := (tr, ts) :: !bucket)
        s)
    r;
  (List.rev !matched, List.rev !distinct, List.rev !unknown)

let identity_spec =
  {
    Blocking.rule_name = (fun (rule : Rules.Identity.t) -> rule.name);
    blocking_key = Rules.Identity.blocking_key;
    equality_only = Rules.Identity.equality_only;
    applies = Rules.Identity.applies;
    compile = Rules.Identity.compile;
  }

let distinctness_spec =
  {
    Blocking.rule_name = (fun (rule : Rules.Distinctness.t) -> rule.name);
    blocking_key = Rules.Distinctness.blocking_key;
    equality_only = Rules.Distinctness.equality_only;
    applies = Rules.Distinctness.applies;
    compile = Rules.Distinctness.compile;
  }

(* The pairs of the fired row lists, row-major: O(fired), since the
   lists are already sorted ascending within each row. *)
let fired_pairs rt st rows =
  let acc = ref [] in
  Array.iteri
    (fun i js -> List.iter (fun j -> acc := (rt.(i), st.(j)) :: !acc) js)
    rows;
  List.rev !acc

(* The undetermined pairs: the complement of the two (disjoint, sorted)
   fired row lists, walked on demand in row-major order. Each row's
   remainder is [0, ns) skipping past the two ascending fired lists with
   integer compares. Every node is a pure function of its position, so
   the sequence is persistent and re-iterable, and it cannot raise:
   conflicts were detected before it was built. *)
let complement rt st ~m_rows ~d_rows =
  let nr = Array.length rt and ns = Array.length st in
  let rec walk i j ms ds () =
    if j = ns then
      if i + 1 < nr then walk (i + 1) 0 m_rows.(i + 1) d_rows.(i + 1) ()
      else Seq.Nil
    else
      match ms, ds with
      | jm :: mrest, _ when jm = j -> walk i (j + 1) mrest ds ()
      | _, jd :: drest when jd = j -> walk i (j + 1) ms drest ()
      | _ -> Seq.Cons ((rt.(i), st.(j)), walk i (j + 1) ms ds)
  in
  if nr = 0 || ns = 0 then Seq.empty else walk 0 0 m_rows.(0) d_rows.(0)

(* The two blocking passes plus the pair-space accounting.
   [pairs_naive] is the theoretical |R|×|S| pair space; what the
   partition actually enumerates is the blocking candidates
   ([pairs_considered]). Candidate counters accumulate across
   [Blocking.fired] calls in one sink, so the pairs actually considered
   by THIS partition are the delta around its two blocking passes. *)
let block_pair_space ~jobs ~shards ~mem_budget ~telemetry ~identity
    ~distinctness sr rt ss st =
  let tele_on = Telemetry.enabled telemetry in
  let considered_counters t =
    Telemetry.counter t "blocking.identity.candidates"
    + Telemetry.counter t "blocking.distinctness.candidates"
  in
  let considered_before = if tele_on then considered_counters telemetry else 0 in
  let m =
    Telemetry.span telemetry "partition.block.identity" (fun () ->
        Blocking.fired ~jobs ~shards ?mem_budget ~telemetry ~label:"identity"
          identity_spec identity sr rt ss st)
  in
  let d =
    Telemetry.span telemetry "partition.block.distinctness" (fun () ->
        Blocking.fired ~jobs ~shards ?mem_budget ~telemetry
          ~label:"distinctness" distinctness_spec distinctness sr rt ss st)
  in
  Telemetry.add telemetry "partition.pairs_naive"
    (Array.length rt * Array.length st);
  if tele_on then
    Telemetry.add telemetry "partition.pairs_considered"
      (considered_counters telemetry - considered_before);
  (m, d)

(* A pair in both fired sets is an Inconsistent/Blocking_desync witness;
   the partition assumes the sets are disjoint, so detect the conflict up
   front. [min_conflict] returns the row-major-minimal shared pair — the
   one the naive nested scan raises on first, whatever the shard count —
   and [decide_pair] then raises with the same witnessing rules.
   The scan is skipped entirely when either side fired nothing (the
   common case: the flagship workload has no distinctness firings at
   all), instead of paying a full conflict scan per run for nothing. *)
let check_conflicts ~decide_pair sr rt ss st m d =
  if Blocking.cardinality m > 0 && Blocking.cardinality d > 0 then
    match Blocking.min_conflict m d with
    | Some (i, j) ->
        ignore (decide_pair sr rt.(i) ss st.(j) : verdict);
        raise (Blocking_desync { r_tuple = rt.(i); s_tuple = st.(j) })
    | None -> ()

let partition ?(jobs = 1) ?(shards = 1) ?mem_budget
    ?(telemetry = Telemetry.off) ?decide:decide_hook ~identity ~distinctness
    r s =
  let sr = Relational.Relation.schema r
  and ss = Relational.Relation.schema s in
  (* [decide_pair] is what the both-fired arm re-runs to reproduce the
     naive engine's exception; the hook exists so the correctness
     harness can inject a desynchronised decision function and exercise
     the [Blocking_desync] path. *)
  let decide_pair =
    match decide_hook with
    | Some f -> f
    | None -> decide ~identity ~distinctness
  in
  let rt = Array.of_list (Relational.Relation.tuples r)
  and st = Array.of_list (Relational.Relation.tuples s) in
  let nr = Array.length rt and ns = Array.length st in
  let m, d =
    block_pair_space ~jobs ~shards ~mem_budget ~telemetry ~identity
      ~distinctness sr rt ss st
  in
  Telemetry.span telemetry "partition.merge" @@ fun () ->
  check_conflicts ~decide_pair sr rt ss st m d;
  let m_rows = Blocking.row_lists m ~nr
  and d_rows = Blocking.row_lists d ~nr in
  (* The fired sets are disjoint, so the verdict counts are their
     cardinalities and the undetermined count is what they leave. *)
  let n_m = Blocking.cardinality m and n_d = Blocking.cardinality d in
  Telemetry.add telemetry "partition.matched" n_m;
  Telemetry.add telemetry "partition.distinct" n_d;
  Telemetry.add telemetry "partition.undetermined" ((nr * ns) - n_m - n_d);
  ( fired_pairs rt st m_rows,
    fired_pairs rt st d_rows,
    complement rt st ~m_rows ~d_rows )

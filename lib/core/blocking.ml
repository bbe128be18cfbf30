module Schema = Relational.Schema
module Tuple = Relational.Tuple
module V = Relational.Value
module Columnar = Relational.Columnar

module Itbl = Hashtbl.Make (Int)

type pairset = { ns : int; fired : unit Itbl.t }

let pair_id set i j = (i * set.ns) + j
let mem set i j = Itbl.mem set.fired (pair_id set i j)
let cardinality set = Itbl.length set.fired

let row_lists set ~nr =
  let rows = Array.make nr [] in
  Itbl.iter
    (fun id () ->
      let i = id / set.ns in
      rows.(i) <- (id mod set.ns) :: rows.(i))
    set.fired;
  Array.map (List.sort Int.compare) rows

let min_conflict a b =
  if a.ns <> b.ns then invalid_arg "Blocking.min_conflict: mismatched sides";
  if a.ns = 0 then None
  else
    let small, large =
      if Itbl.length a.fired <= Itbl.length b.fired then (a, b) else (b, a)
    in
    let best = ref max_int in
    Itbl.iter
      (fun id () -> if id < !best && Itbl.mem large.fired id then best := id)
      small.fired;
    if !best = max_int then None else Some (!best / a.ns, !best mod a.ns)

type 'rule spec = {
  rule_name : 'rule -> string;
  blocking_key : 'rule -> string list option;
  equality_only : 'rule -> bool;
  applies :
    'rule -> Schema.t -> Tuple.t -> Schema.t -> Tuple.t -> V.truth;
  compile :
    'rule -> Schema.t -> Schema.t -> Tuple.t -> Tuple.t -> V.truth;
}

let fired ?(jobs = 1) ?(shards = 1) ?mem_budget ?(telemetry = Telemetry.off)
    ?(label = "") spec rules sr rt ss st =
  if shards <= 0 then invalid_arg "Blocking.fired: shards must be positive";
  let set = { ns = Array.length st; fired = Itbl.create 64 } in
  let nr = Array.length rt and ns = Array.length st in
  (* Counter namespace: "blocking" or "blocking.<label>", so the two
     rule kinds of a partition stay distinguishable in one sink. *)
  let pfx = if label = "" then "blocking" else "blocking." ^ label in
  let tele_on = Telemetry.enabled telemetry in
  let chunks = ref 0 and spill_count = ref 0 and spill_bytes = ref 0 in
  (* Sharding only serves to bound memory, so it runs only under a
     budget; without one the unsharded coded buckets are the path. *)
  let budget = if shards > 1 then mem_budget else None in
  (* Interned column views of both sides, shared by every rule's coded
     buckets; forced only when some rule can block at shards = 1. *)
  let r_coded = lazy (Columnar.encode sr rt)
  and s_coded = lazy (Columnar.encode ss st) in
  List.iter
    (fun rule ->
      let fired_before = if tele_on then Itbl.length set.fired else 0 in
      (* A rule made only of same-attribute equalities fires on exactly
         the pairs its blocking buckets propose — identical non-NULL
         values on every mentioned attribute — so evaluating it per pair
         is redundant. Otherwise, resolve the rule's attribute lookups
         against the two schemas once; [hits] is then pure array/hash
         work per candidate pair. *)
      let covering = spec.equality_only rule in
      let hits =
        if covering then fun _ _ -> true
        else begin
          let applies_lr = spec.compile rule sr ss
          and applies_rl = spec.compile rule ss sr in
          fun i j ->
            applies_lr rt.(i) st.(j) = V.True
            || applies_rl st.(j) rt.(i) = V.True
        end
      in
      (* [scan m row_of candidates] — evaluate the rule over the row set
         [row_of 0 .. row_of (m-1)], where [candidates i k] calls [k j]
         for every j the rule could fire on with row i. Candidate pairs
         proposed (callback invocations) are a pure function of the
         blocking structure, not of the fired set or the scan order, so
         the counter is identical serial vs chunked vs sharded. The
         per-pair cost when the sink is off is one branch on an
         immutable bool — dwarfed by the compiled-rule evaluation it
         sits next to. *)
      let scan m row_of candidates =
        if jobs <= 1 || covering then begin
          (* Serial reference path: record hits as they are found. The
             [mem] check only skips re-evaluating pairs already recorded
             by an earlier rule; within one rule no (i, j) is proposed
             twice (each row probes exactly one bucket of distinct js).
             Covering rules take this path whatever [jobs] is: their
             per-candidate work is a single set insert, so chunking them
             over domains is pure dispatch overhead (the merge repeats
             the same inserts on the calling domain anyway). *)
          let cand = ref 0 in
          for p = 0 to m - 1 do
            let i = row_of p in
            candidates i (fun j ->
                if tele_on then incr cand;
                let id = pair_id set i j in
                if (not (Itbl.mem set.fired id)) && hits i j then
                  Itbl.replace set.fired id ())
          done;
          if tele_on then Telemetry.add telemetry (pfx ^ ".candidates") !cand
        end
        else begin
          (* Parallel path: pool domains scan disjoint row chunks,
             reading the tuple arrays, the frozen fired set, and the
             rule's buckets — all immutable during the scan — and
             accumulate newly fired pair ids (and telemetry) privately.
             The merge happens on the calling domain between scans, so
             the next rule sees exactly the set the serial path would. *)
          if tele_on then chunks := !chunks + Parallel.chunk_count ~jobs m;
          let chunk_hits =
            Parallel.map_chunks ~jobs m (fun ~start ~stop ->
                let lt = Telemetry.local telemetry in
                let cand = ref 0 in
                let acc = ref [] in
                for p = start to stop - 1 do
                  let i = row_of p in
                  candidates i (fun j ->
                      if tele_on then incr cand;
                      let id = pair_id set i j in
                      if (not (Itbl.mem set.fired id)) && hits i j then
                        acc := id :: !acc)
                done;
                if tele_on then
                  Telemetry.local_add lt (pfx ^ ".candidates") !cand;
                (!acc, lt))
          in
          List.iter
            (fun (ids, lt) ->
              List.iter (fun id -> Itbl.replace set.fired id ()) ids;
              Telemetry.merge telemetry lt)
            chunk_hits
        end
      in
      let all_rows = scan nr (fun p -> p) in
      (match spec.blocking_key rule with
      | Some attrs
        when List.for_all (Schema.mem sr) attrs
             && List.for_all (Schema.mem ss) attrs ->
          (* The rule only fires on pairs with identical non-NULL values
             on [attrs] — in either orientation, since the implied
             equality is attribute-to-same-attribute. Probe R buckets
             against S buckets and evaluate only co-bucketed pairs. *)
          (match budget with
          | None ->
            (* Coded buckets: both sides' interned key columns are
               projected once, so bucket keys are small int arrays —
               hashing, equality and the per-candidate probe are pure
               integer work, no per-tuple value projection. Storage
               codes partition values exactly like structural equality
               on the values themselves, so the buckets (and the
               [.buckets] counter) are unchanged. *)
            let r_cols = Columnar.columns (Lazy.force r_coded) attrs
            and s_cols = Columnar.columns (Lazy.force s_coded) attrs in
            let s_buckets = Hashtbl.create (max 16 ns) in
            for j = 0 to ns - 1 do
              match Columnar.key_opt s_cols j with
              | Some k -> (
                  match Hashtbl.find_opt s_buckets k with
                  | Some l -> l := j :: !l
                  | None -> Hashtbl.add s_buckets k (ref [ j ]))
              | None -> ()
            done;
            Telemetry.add telemetry (pfx ^ ".buckets")
              (Hashtbl.length s_buckets);
            all_rows (fun i k ->
                match Columnar.key_opt r_cols i with
                | Some key -> (
                    match Hashtbl.find_opt s_buckets key with
                    | Some js -> List.iter k !js
                    | None -> ())
                | None -> ())
          | Some budget ->
            (* Key-sharded: a pair can only fire when both sides carry
               the same key value, so hashing the key assigns each
               bucket — and every candidate pair — to exactly one shard.
               S-side entries are buffered per shard (spilling to temp
               files above the budget), R rows are routed once, and
               chunks of shards run on the {!Parallel} domain pool: each
               chunk builds and probes its shards one at a time with a
               single bucket table reused across them ([Hashtbl.clear]
               keeps the bucket array grown by earlier shards),
               accumulating newly fired pair ids and counters privately.
               The fired pairset is a set of pair ids and shards own
               disjoint pairs, so the chunk-order merge cannot change
               it, and the bucket/candidate counters sum to exactly the
               unsharded values (each key lives in one shard). Keys are
               the interned storage codes the unsharded buckets use —
               integer hashing, no per-tuple value projection. *)
            let r_cols = Columnar.columns (Lazy.force r_coded) attrs
            and s_cols = Columnar.columns (Lazy.force s_coded) attrs in
            let per_budget = max 1024 (budget / shards) in
            let s_parts =
              Array.init shards (fun _ ->
                  Shard.Spill.create ~budget:per_budget ())
            in
            Fun.protect
              ~finally:(fun () -> Array.iter Shard.Spill.close s_parts)
            @@ fun () ->
            for j = 0 to ns - 1 do
              match Columnar.key_opt s_cols j with
              | Some codes ->
                  Shard.Spill.add
                    s_parts.(Shard.router_codes ~shards codes)
                    ~bytes:(Shard.estimate_codes codes + 16)
                    (codes, j)
              | None -> ()
            done;
            let r_parts = Array.make shards [] in
            for i = nr - 1 downto 0 do
              match Columnar.key_opt r_cols i with
              | Some codes ->
                  let sh = Shard.router_codes ~shards codes in
                  r_parts.(sh) <- i :: r_parts.(sh)
              | None -> ()
            done;
            (* Covering rules' per-candidate work is a set insert —
               pool dispatch is pure overhead for them — and small row
               sets stay below the executor's serial regime. *)
            let chunk_jobs =
              if
                covering
                || nr < Parallel.default_threshold
                   && ns < Parallel.default_threshold
              then 1
              else jobs
            in
            if tele_on && chunk_jobs > 1 then
              chunks :=
                !chunks
                + Parallel.chunk_count ~jobs:chunk_jobs ~threshold:0 shards;
            let results =
              Parallel.map_chunks ~jobs:chunk_jobs ~threshold:0 shards
                (fun ~start ~stop ->
                  let lt = Telemetry.local telemetry in
                  let ids = ref [] in
                  let buckets = ref 0
                  and cand = ref 0
                  and sp = ref 0
                  and sb = ref 0 in
                  let tbl = Hashtbl.create 64 in
                  for sh = start to stop - 1 do
                    let part = s_parts.(sh) in
                    Hashtbl.clear tbl;
                    Shard.Spill.iter part (fun (codes, j) ->
                        match Hashtbl.find_opt tbl codes with
                        | Some l -> l := j :: !l
                        | None -> Hashtbl.add tbl codes (ref [ j ]));
                    Hashtbl.iter (fun _ l -> l := List.rev !l) tbl;
                    if tele_on then begin
                      buckets := !buckets + Hashtbl.length tbl;
                      sp := !sp + Shard.Spill.spills part;
                      sb := !sb + Shard.Spill.spilled_bytes part
                    end;
                    List.iter
                      (fun i ->
                        match Columnar.key_opt r_cols i with
                        | Some codes -> (
                            match Hashtbl.find_opt tbl codes with
                            | Some js ->
                                List.iter
                                  (fun j ->
                                    if tele_on then incr cand;
                                    let id = pair_id set i j in
                                    if
                                      (not (Itbl.mem set.fired id))
                                      && hits i j
                                    then ids := id :: !ids)
                                  !js
                            | None -> ())
                        | None -> ())
                      r_parts.(sh);
                    Shard.Spill.close part
                  done;
                  if tele_on then
                    Telemetry.local_add lt (pfx ^ ".candidates") !cand;
                  (!ids, !buckets, !sp, !sb, lt))
            in
            let buckets = ref 0 in
            List.iter
              (fun (ids, b, sp, sb, lt) ->
                List.iter (fun id -> Itbl.replace set.fired id ()) ids;
                buckets := !buckets + b;
                spill_count := !spill_count + sp;
                spill_bytes := !spill_bytes + sb;
                Telemetry.merge telemetry lt)
              results;
            Telemetry.add telemetry (pfx ^ ".buckets") !buckets)
      | Some _ ->
          (* A blocking attribute is missing from one of the schemas: it
             reads as NULL on every tuple of that side, so the implied
             equality can never hold and the rule never fires — no scan
             at all. *)
          ()
      | None ->
          (* No equality atoms to block on: nested-loop fallback over
             the full S side; key sharding does not apply. *)
          all_rows (fun _ k ->
              for j = 0 to ns - 1 do
                k j
              done));
      if tele_on then
        Telemetry.add telemetry
          (pfx ^ ".rule." ^ spec.rule_name rule ^ ".fired")
          (Itbl.length set.fired - fired_before))
    rules;
  if tele_on then begin
    Telemetry.add telemetry (pfx ^ ".fired") (Itbl.length set.fired);
    if jobs > 1 then Telemetry.add telemetry "parallel.chunks" !chunks;
    if budget <> None then begin
      Telemetry.add telemetry "parallel.shards" shards;
      Telemetry.add telemetry "parallel.shard.spills" !spill_count;
      Telemetry.add telemetry "parallel.shard.spilled_bytes" !spill_bytes
    end
  end;
  set

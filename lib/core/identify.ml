module Relation = Relational.Relation
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Columnar = Relational.Columnar

type outcome = {
  r_extended : Relation.t;
  s_extended : Relation.t;
  matching_table : Matching_table.t;
  violations : Matching_table.violation list;
  pairs : (Tuple.t * Tuple.t) list;
  unmatched_r : Tuple.t list;
  unmatched_s : Tuple.t list;
}

(* Tuples whose K_Ext projection still carries a NULL after extension:
   the K_Ext hash join can never match them (non_null_eq), so they were
   previously dropped without a trace. *)
let null_key_tuples schema relation kext =
  let plan = Tuple.plan schema kext in
  List.filter
    (fun t -> Tuple.has_null (Tuple.project_with plan t))
    (Relation.tuples relation)

let extension_schema relation key =
  let schema = Relation.schema relation in
  let missing =
    List.filter
      (fun a -> not (Schema.mem schema a))
      (Extended_key.attributes key)
  in
  Schema.concat schema (Schema.of_names missing)

(* Both relations ILFD-extended to the K_Ext target schemas — the phase
   shared verbatim by [run], [run_stream] and [run_rules]. *)
let extend_both ?mode ~jobs ~telemetry ~r ~s ~key ilfds =
  let r_target = extension_schema r key
  and s_target = extension_schema s key in
  let r_ext =
    Telemetry.span telemetry "identify.extend_r" (fun () ->
        Ilfd.Apply.extend_relation ?mode ~jobs ~telemetry r ~target:r_target
          ilfds)
  in
  let s_ext =
    Telemetry.span telemetry "identify.extend_s" (fun () ->
        Ilfd.Apply.extend_relation ?mode ~jobs ~telemetry s ~target:s_target
          ilfds)
  in
  (r_target, s_target, r_ext, s_ext)

(* The spill/bucket accounting one shard chunk reports back to the
   calling domain. *)
type chunk_stats = {
  cs_buckets : int;
  cs_spills : int;
  cs_spilled : int;
  cs_actual : int;
}

(* Shard-level parallelism only pays once the row sets outgrow the
   executor's own serial-fallback regime; below that a single chunk
   (and thus a single reused table) is the fast path. *)
let join_jobs ~jobs ~nr ~ns =
  if nr < Parallel.default_threshold && ns < Parallel.default_threshold then 1
  else jobs

(* The unsharded coded hash join: one build table over the S key
   columns, one row-major probe. Bucket keys are small int arrays — the
   relations' interned storage codes — so build and probe are integer
   hashing with no per-tuple value projection (storage codes partition
   cells exactly like structural equality on the values). Tuples with
   any NULL key value never match (non_null_eq). Building in descending
   row order conses each bucket straight into ascending partner order —
   no reversal pass — so [emit i j] observes strictly ascending (i, j),
   the serial row-major order every other configuration is measured
   against. *)
let serial_join ~telemetry ~r_cols ~s_cols ~nr ~ns ~emit =
  let buckets = Hashtbl.create (max 16 ns) in
  for j = ns - 1 downto 0 do
    match Columnar.key_opt s_cols j with
    | Some k -> (
        match Hashtbl.find_opt buckets k with
        | Some partners -> partners := j :: !partners
        | None -> Hashtbl.add buckets k (ref [ j ]))
    | None -> ()
  done;
  Telemetry.add telemetry "identify.join.buckets" (Hashtbl.length buckets);
  for i = 0 to nr - 1 do
    match Columnar.key_opt r_cols i with
    | Some k -> (
        match Hashtbl.find_opt buckets k with
        | Some partners -> List.iter (fun j -> emit i j) !partners
        | None -> ())
    | None -> ()
  done

(* Out-of-core sharded grace join — the budgeted configuration. S rows
   are routed into per-shard spill buffers (budget [b / shards] each,
   overflow to temp files), R row indices into per-shard lists with
   their key codes cached, and chunks of shards run on the domain pool:
   each chunk replays, builds and probes its shards one at a time with
   a single hash table reused across them ([Hashtbl.clear] keeps the
   bucket array, so every shard after the first starts presized from
   the largest shard the chunk has seen). Only the routed partitions
   and one build table per domain are resident — the point of the
   budget.

   [emit sh i js] receives each probing row's ascending partner list.
   Shards own disjoint row sets, so chunks emit concurrently without
   overlap; within one shard, rows arrive in ascending order from a
   single domain. Emitting into per-shard sink parts and merging them
   by row index afterwards therefore reproduces the serial row-major
   output for every shards x jobs configuration. *)
let sharded_join_spilled ~jobs ~shards ~budget ~telemetry ~r_cols ~s_cols ~nr
    ~ns ~emit =
  let tele_on = Telemetry.enabled telemetry in
  (* One key extraction per R row, cached — routing and probing read
     the same codes, filled and routed in one pass. *)
  let r_keys = Array.make nr None in
  let r_parts = Array.make shards [] in
  for i = nr - 1 downto 0 do
    match Columnar.key_opt r_cols i with
    | Some codes as k ->
        r_keys.(i) <- k;
        let sh = Shard.router_codes ~shards codes in
        r_parts.(sh) <- i :: r_parts.(sh)
    | None -> ()
  done;
  let per_budget = max 1024 (budget / shards) in
  let s_parts =
    Array.init shards (fun _ -> Shard.Spill.create ~budget:per_budget ())
  in
  Fun.protect ~finally:(fun () -> Array.iter Shard.Spill.close s_parts)
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
  let join_jobs = join_jobs ~jobs ~nr ~ns in
  if tele_on && join_jobs > 1 then
    Telemetry.add telemetry "parallel.chunks"
      (Parallel.chunk_count ~jobs:join_jobs ~threshold:0 shards);
  let stats =
    Parallel.map_chunks ~jobs:join_jobs ~threshold:0 shards
      (fun ~start ~stop ->
        let tbl = Hashtbl.create 64 in
        let buckets = ref 0
        and spill_count = ref 0
        and spilled = ref 0
        and actual = ref 0 in
        for sh = start to stop - 1 do
          let part = s_parts.(sh) in
          Hashtbl.clear tbl;
          Shard.Spill.iter part (fun (codes, j) ->
              match Hashtbl.find_opt tbl codes with
              | Some l -> l := j :: !l
              | None -> Hashtbl.add tbl codes (ref [ j ]));
          (* Spill replay is ascending, so the consed buckets need the
             one reversal pass to come out ascending. *)
          Hashtbl.iter (fun _ l -> l := List.rev !l) tbl;
          if tele_on then begin
            buckets := !buckets + Hashtbl.length tbl;
            spill_count := !spill_count + Shard.Spill.spills part;
            spilled := !spilled + Shard.Spill.spilled_bytes part;
            actual := !actual + Shard.Spill.actual_spilled_bytes part
          end;
          List.iter
            (fun i ->
              match r_keys.(i) with
              | Some codes -> (
                  match Hashtbl.find_opt tbl codes with
                  | Some l -> emit sh i !l
                  | None -> ())
              | None -> ())
            r_parts.(sh);
          Shard.Spill.close part
        done;
        {
          cs_buckets = !buckets;
          cs_spills = !spill_count;
          cs_spilled = !spilled;
          cs_actual = !actual;
        })
  in
  if tele_on then begin
    let tot f = List.fold_left (fun a c -> a + f c) 0 stats in
    Telemetry.add telemetry "identify.join.buckets"
      (tot (fun c -> c.cs_buckets));
    Telemetry.add telemetry "parallel.shard.spills"
      (tot (fun c -> c.cs_spills));
    Telemetry.add telemetry "parallel.shard.spilled_bytes"
      (tot (fun c -> c.cs_spilled));
    let est = tot (fun c -> c.cs_spilled) in
    if est > 0 then
      Telemetry.add telemetry "parallel.shard.estimate_error_pct"
        (abs (tot (fun c -> c.cs_actual) - est) * 100 / est)
  end

(* The K_Ext join, calling [emit i j] for every matched pair in strict
   row-major order. Without a budget (or with one shard) it is the
   serial coded join: shards only serve to bound memory, and resident
   shard tables measured slower than the one table (EXPERIMENTS.md,
   "Keep/delete record"). With a budget,
   shard chunks of the out-of-core grace join write each row's partners
   into per-shard {!Shard.Sink} parts — one writer per part, overflow
   to temp files — and the calling domain k-way merges the parts by row
   index back into row-major order. *)
let join ~jobs ~shards ~mem_budget ~telemetry ~r_cols ~s_cols ~nr ~ns ~emit =
  match mem_budget with
  | Some budget when shards > 1 ->
      let tele_on = Telemetry.enabled telemetry in
      if tele_on then Telemetry.add telemetry "parallel.shards" shards;
      let sink = Shard.Sink.create ~budget ~parts:shards () in
      Fun.protect ~finally:(fun () -> Shard.Sink.close sink) @@ fun () ->
      sharded_join_spilled ~jobs ~shards ~budget ~telemetry ~r_cols ~s_cols
        ~nr ~ns ~emit:(fun sh i js ->
          List.iter
            (fun j -> Shard.Sink.add sink ~part:sh ~bytes:32 (i, j))
            js);
      if tele_on then begin
        Telemetry.add telemetry "identify.peak_verdict_bytes"
          (Shard.Sink.peak_bytes sink);
        Telemetry.add telemetry "parallel.sink.spills" (Shard.Sink.spills sink);
        Telemetry.add telemetry "parallel.sink.spilled_bytes"
          (Shard.Sink.spilled_bytes sink);
        match Shard.Sink.estimate_error_pct sink with
        | Some pct ->
            Telemetry.add telemetry "parallel.shard.estimate_error_pct" pct
        | None -> ()
      end;
      Shard.Sink.iter_merged ~index:fst sink (fun (i, j) -> emit i j)
  | _ -> serial_join ~telemetry ~r_cols ~s_cols ~nr ~ns ~emit

(* Extension, then the join over the extended tuple arrays; [emit]
   receives each matched pair of extended tuples in row-major order. *)
let extend_and_join ~name ?mode ~jobs ~shards ~mem_budget ~telemetry ~r ~s
    ~key ilfds ~emit =
  if shards <= 0 then invalid_arg (name ^ ": shards must be positive");
  let ((_, _, r_ext, s_ext) as extended) =
    extend_both ?mode ~jobs ~telemetry ~r ~s ~key ilfds
  in
  let kext = Extended_key.attributes key in
  Telemetry.span telemetry "identify.join" (fun () ->
      let s_cols = Columnar.columns (Relation.columnar s_ext) kext
      and r_cols = Columnar.columns (Relation.columnar r_ext) kext in
      let st = Array.of_list (Relation.tuples s_ext)
      and rt = Array.of_list (Relation.tuples r_ext) in
      join ~jobs ~shards ~mem_budget ~telemetry ~r_cols ~s_cols
        ~nr:(Array.length rt) ~ns:(Array.length st) ~emit:(fun i j ->
          emit rt.(i) st.(j)));
  extended

(* The outcome over matched pairs of extended tuples, shared by [run]
   and [run_rules]: the matching table of candidate-key projections,
   its uniqueness violations, and the NULL-keyed tuples. Counter costs
   (List.length) are paid only when the sink is live. *)
let outcome ~telemetry ~r ~s ~key (r_target, s_target, r_ext, s_ext) pairs =
  let r_key = Relation.primary_key r and s_key = Relation.primary_key s in
  let r_key_plan = Tuple.plan r_target r_key
  and s_key_plan = Tuple.plan s_target s_key in
  let entry_of (tr, ts) =
    {
      Matching_table.r_key = Tuple.project_with r_key_plan tr;
      s_key = Tuple.project_with s_key_plan ts;
    }
  in
  let matching_table =
    Matching_table.make ~r_key_attrs:r_key ~s_key_attrs:s_key
      (List.map entry_of pairs)
  in
  let kext = Extended_key.attributes key in
  let o =
    {
      r_extended = r_ext;
      s_extended = s_ext;
      matching_table;
      violations = Matching_table.uniqueness_violations matching_table;
      pairs;
      unmatched_r = null_key_tuples r_target r_ext kext;
      unmatched_s = null_key_tuples s_target s_ext kext;
    }
  in
  if Telemetry.enabled telemetry then begin
    Telemetry.add telemetry "identify.pairs" (List.length o.pairs);
    Telemetry.add telemetry "identify.unmatched_r" (List.length o.unmatched_r);
    Telemetry.add telemetry "identify.unmatched_s" (List.length o.unmatched_s);
    Telemetry.add telemetry "identify.violations" (List.length o.violations)
  end;
  o

let run ?mode ?(jobs = 1) ?(shards = 1) ?mem_budget
    ?(telemetry = Telemetry.off) ~r ~s ~key ilfds =
  let pairs = ref [] in
  let extended =
    extend_and_join ~name:"Identify.run" ?mode ~jobs ~shards ~mem_budget
      ~telemetry ~r ~s ~key ilfds ~emit:(fun tr ts ->
        pairs := (tr, ts) :: !pairs)
  in
  outcome ~telemetry ~r ~s ~key extended (List.rev !pairs)

let run_stream ?mode ?(jobs = 1) ?(shards = 1) ?mem_budget
    ?(telemetry = Telemetry.off) ~r ~s ~key ~init ~f ilfds =
  let acc = ref init in
  ignore
    (extend_and_join ~name:"Identify.run_stream" ?mode ~jobs ~shards
       ~mem_budget ~telemetry ~r ~s ~key ilfds ~emit:(fun tr ts ->
         acc := f !acc tr ts));
  !acc

let is_verified o = o.violations = []

let run_rules ?mode ?(jobs = 1) ?(shards = 1) ?mem_budget
    ?(telemetry = Telemetry.off) ~identity ?(distinctness = []) ~r ~s ~key
    ilfds =
  let ((_, _, r_ext, s_ext) as extended) =
    extend_both ?mode ~jobs ~telemetry ~r ~s ~key ilfds
  in
  let matched, _, _ =
    Decision.partition ~jobs ~shards ?mem_budget ~telemetry ~identity
      ~distinctness r_ext s_ext
  in
  outcome ~telemetry ~r ~s ~key extended matched

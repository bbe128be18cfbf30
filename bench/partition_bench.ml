(* Naive vs blocked partition at increasing scale. The sweep uses a
   single-attribute equality identity rule — the shape the blocking
   engine is built for — over mostly-distinct name pools, checks the two
   engines agree exactly, and writes machine-readable results to
   BENCH_partition.json in the working directory. *)

module R = Relational
module E = Entity_id

let schema = R.Schema.of_names [ "id"; "name"; "cuisine" ]

(* ~half the names overlap between the two sides, so the match set is
   non-trivial at every size; a sprinkle of NULL names exercises the
   NULL-key skip path. *)
let side ~offset n =
  R.Relation.create schema
    (List.init n (fun i ->
         let name =
           if i mod 97 = 0 then R.Value.Null
           else R.Value.string (Workload.Pools.name (offset + i))
         in
         [
           R.Value.int i;
           name;
           R.Value.string Workload.Pools.cuisines.(i mod Array.length Workload.Pools.cuisines);
         ]))

let identity = [ Rules.Identity.of_attribute_equalities ~name:"same-name" [ "name" ] ]
let distinctness = []

let time_ms f =
  let t0 = Sys.time () in
  let result = f () in
  let t1 = Sys.time () in
  (result, (t1 -. t0) *. 1000.)

(* At smoke sizes a run can complete inside one [Sys.time] tick, making
   the denominator 0.0 and the naive quotient inf (or nan for 0/0) —
   which then poisons the JSON table. Clamp to the clock's granularity
   instead; speedups are meaningless below it anyway. *)
let safe_speedup num den = num /. Float.max den 0.001

(* Best of [reps] runs, heap settled before each so neither engine is
   billed for the other's garbage; results are dropped between runs.
   Both engines allocate the same O(|R|×|S|) output, so GC treatment is
   symmetric either way — settling just removes the variance. *)
let best_of reps f =
  let rec go best remaining =
    if remaining = 0 then best
    else begin
      Gc.compact ();
      let result, ms = time_ms f in
      ignore (Sys.opaque_identity result);
      let best = if ms < best then ms else best in
      go best (remaining - 1)
    end
  in
  go infinity reps

type row = {
  n : int;
  naive_ms : float;
  blocked_ms : float;
  speedup : float;
  agree : bool;
}

let measure n =
  let r = side ~offset:0 n and s = side ~offset:(n / 2) n in
  let naive () = E.Decision.partition_naive ~identity ~distinctness r s in
  let blocked () = E.Decision.partition ~identity ~distinctness r s in
  (* The blocked partition's undetermined set is a sequence walked on
     demand; enumerate it for the byte-for-byte comparison. The timings
     below measure building the partition, not enumerating it. *)
  let agree =
    let m, d, u = blocked () in
    naive () = (m, d, List.of_seq u)
  in
  let reps = if n >= 1000 then 3 else 5 in
  let naive_ms = best_of reps naive in
  let blocked_ms = best_of reps blocked in
  { n; naive_ms; blocked_ms; speedup = safe_speedup naive_ms blocked_ms; agree }

(* The extension phase head-to-head: the production semi-naive fixpoint
   vs the per-tuple recursive reference engine, on a restaurant instance
   sized so both sides hold about a thousand tuples (the generator's 0.8
   coverage over n_entities). Exact agreement is asserted on both
   relations before timing. *)
type ext_row = {
  ext_n_r : int;
  ext_n_s : int;
  fixpoint_ms : float;
  recursive_ms : float;
  ext_speedup : float;
  ext_agree : bool;
}

let measure_extension () =
  let n_entities =
    if Sys.getenv_opt "BENCH_SMOKE" <> None then 300 else 1250
  in
  let inst =
    Workload.Restaurant.generate
      { Workload.Restaurant.default with n_entities; seed = 5 }
  in
  let r_target = E.Identify.extension_schema inst.r inst.key
  and s_target = E.Identify.extension_schema inst.s inst.key in
  let fixpoint () =
    ( Ilfd.Apply.extend_relation inst.r ~target:r_target inst.ilfds,
      Ilfd.Apply.extend_relation inst.s ~target:s_target inst.ilfds )
  and recursive () =
    ( Ilfd.Apply.extend_relation_recursive inst.r ~target:r_target inst.ilfds,
      Ilfd.Apply.extend_relation_recursive inst.s ~target:s_target inst.ilfds
    )
  in
  let fr, fs = fixpoint () and rr, rs = recursive () in
  let ext_agree = R.Relation.equal fr rr && R.Relation.equal fs rs in
  let fixpoint_ms = best_of 3 fixpoint in
  let recursive_ms = best_of 3 recursive in
  {
    ext_n_r = R.Relation.cardinality inst.r;
    ext_n_s = R.Relation.cardinality inst.s;
    fixpoint_ms;
    recursive_ms;
    ext_speedup = safe_speedup recursive_ms fixpoint_ms;
    ext_agree;
  }

(* The telemetry story for the JSON artefact: one full [run_rules] pass
   over the restaurant workload (extended-key identity rule over the
   ILFD-extended relations), so the stats block carries blocking,
   partition, ILFD-fixpoint and phase-timing numbers at once. *)
let stats_json () =
  let inst = Workload.Restaurant.generate Workload.Restaurant.default in
  let telemetry = Telemetry.create () in
  ignore
    (E.Identify.run_rules ~telemetry
       ~identity:[ E.Extended_key.equivalence_rule inst.key ]
       ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds);
  Telemetry.to_json telemetry

let json_of_rows rows ext =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"benchmark\": \"partition_naive_vs_blocked\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"host_domains\": %d,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string buf
    "  \"rule\": \"(e1.name = e2.name) -> (e1 == e2)\",\n";
  Buffer.add_string buf "  \"results\": [\n";
  List.iteri
    (fun i { n; naive_ms; blocked_ms; speedup; agree } ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"n_r\": %d, \"n_s\": %d, \"naive_ms\": %.3f, \
            \"blocked_ms\": %.3f, \"speedup\": %.2f, \"agree\": %b}%s\n"
           n n naive_ms blocked_ms speedup agree
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"extension\": {\"n_r\": %d, \"n_s\": %d, \"fixpoint_ms\": %.3f, \
        \"recursive_ms\": %.3f, \"speedup\": %.2f, \"agree\": %b},\n"
       ext.ext_n_r ext.ext_n_s ext.fixpoint_ms ext.recursive_ms
       ext.ext_speedup ext.ext_agree);
  Buffer.add_string buf ("  \"stats\": " ^ stats_json () ^ "\n");
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let all () =
  print_endline "\n================ Partition: naive vs blocked ================";
  (* A minor heap large enough to hold one run's output keeps promotion
     churn (identical for both engines) from drowning the signal. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 32 * 1024 * 1024 };
  (* BENCH_SMOKE shrinks the sweep for CI: the agreement check is the
     point there, not the timings. *)
  let sizes =
    if Sys.getenv_opt "BENCH_SMOKE" <> None then [ 100; 200 ]
    else [ 100; 300; 1000 ]
  in
  let rows = List.map measure sizes in
  print_string
    (R.Pretty.render_rows
       ~header:[ "|R| = |S|"; "naive"; "blocked"; "speedup"; "agree" ]
       (List.map
          (fun { n; naive_ms; blocked_ms; speedup; agree } ->
            [
              string_of_int n;
              Printf.sprintf "%.2f ms" naive_ms;
              Printf.sprintf "%.2f ms" blocked_ms;
              Printf.sprintf "%.1fx" speedup;
              string_of_bool agree;
            ])
          rows));
  let ext = measure_extension () in
  print_string
    (R.Pretty.render_rows
       ~header:[ "extension |R|,|S|"; "recursive"; "fixpoint"; "speedup"; "agree" ]
       [
         [
           Printf.sprintf "%d,%d" ext.ext_n_r ext.ext_n_s;
           Printf.sprintf "%.2f ms" ext.recursive_ms;
           Printf.sprintf "%.2f ms" ext.fixpoint_ms;
           Printf.sprintf "%.1fx" ext.ext_speedup;
           string_of_bool ext.ext_agree;
         ];
       ]);
  let out = open_out "BENCH_partition.json" in
  output_string out (json_of_rows rows ext);
  close_out out;
  print_endline "wrote BENCH_partition.json";
  if List.exists (fun row -> not row.agree) rows then begin
    prerr_endline "partition_bench: blocked partition DISAGREES with naive";
    exit 1
  end;
  if not ext.ext_agree then begin
    prerr_endline
      "partition_bench: fixpoint extension DISAGREES with recursive engine";
    exit 1
  end

(* Serial vs multi-domain partition at scale. Every (size, jobs)
   configuration first asserts that the parallel result equals the
   serial one element-for-element (the executor's contract), then
   measures wall-clock time — [Sys.time] is CPU time and sums across
   domains, which would hide any speedup — and writes the results to
   BENCH_parallel.json in the working directory.

   BENCH_SMOKE=1 shrinks the sweep to CI size: the point of the smoke
   run is executing the agreement assertions, not the timings. *)

module R = Relational
module E = Entity_id

let smoke = Sys.getenv_opt "BENCH_SMOKE" <> None

let schema = R.Schema.of_names [ "id"; "name"; "cuisine" ]

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

let wall_ms f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let t1 = Unix.gettimeofday () in
  (result, (t1 -. t0) *. 1000.)

(* Best-of over *interleaved* rounds: each round times every
   configuration once, in order, heap settled before each run. On a
   shared single-core host the wall clock moves with whatever else the
   machine is doing; timing all 7 reps of one configuration back-to-back
   lets one multi-millisecond load window land entirely on a single
   configuration and skew the serial-vs-parallel ratio the CI gate
   reads. Interleaving makes the noise hit every configuration with
   equal probability, so best-of converges on the code, not the
   scheduler. *)
let best_of_paired reps fs =
  let n = Array.length fs in
  let best = Array.make n infinity in
  for _ = 1 to reps do
    Array.iteri
      (fun i f ->
        Gc.compact ();
        let result, ms = wall_ms f in
        ignore (Sys.opaque_identity result);
        if ms < best.(i) then best.(i) <- ms)
      fs
  done;
  best

(* Wall clocks can't tick to exactly 0 in practice, but guard the
   quotient anyway: a nan/inf in the JSON poisons downstream tooling. *)
let safe_speedup num den = num /. Float.max den 0.001

type row = { n : int; jobs : int; ms : float; speedup : float; agree : bool }

let measure n =
  let r = side ~offset:0 n and s = side ~offset:(n / 2) n in
  let partition jobs () =
    E.Decision.partition ~jobs ~identity ~distinctness r s
  in
  (* Agreement enumerates the undetermined sequence; the timings below
     measure building the partition. *)
  let listed jobs =
    let m, d, u = partition jobs () in
    (m, d, List.of_seq u)
  in
  let reference = listed 1 in
  (* The smoke run gates jobs=2 wall time against serial at 1k, where a
     single noisy reading is ~10% of the measurement — take the best of
     more repetitions there so the gate reflects the code, not the
     scheduler. *)
  let reps = if smoke then 7 else if n >= 5000 then 2 else 3 in
  let job_counts = if smoke then [ 2; 3 ] else [ 2; 4; 8 ] in
  let agrees = List.map (fun jobs -> listed jobs = reference) job_counts in
  let times =
    best_of_paired reps
      (Array.of_list (List.map partition (1 :: job_counts)))
  in
  let serial_ms = times.(0) in
  { n; jobs = 1; ms = serial_ms; speedup = 1.0; agree = true }
  :: List.mapi
       (fun i jobs ->
         let ms = times.(i + 1) in
         { n; jobs; ms; speedup = safe_speedup serial_ms ms;
           agree = List.nth agrees i })
       job_counts

(* One telemetry-enabled pipeline run per job count over the restaurant
   workload. The contract under test: every counter outside the
   [parallel.*] namespace is identical whatever the job count — the
   executor parallelises without changing what the pipeline computes.
   Returns (stats json at jobs=1, invariance verdict). *)
let stats_json () =
  let inst = Workload.Restaurant.generate Workload.Restaurant.default in
  let run jobs =
    let telemetry = Telemetry.create () in
    ignore
      (E.Identify.run_rules ~jobs ~telemetry
         ~identity:[ E.Extended_key.equivalence_rule inst.key ]
         ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds);
    telemetry
  in
  let serial = run 1 and parallel4 = run 4 in
  let invariant =
    Telemetry.counters_stable serial = Telemetry.counters_stable parallel4
  in
  (Telemetry.to_json serial, invariant)

let json_of_rows rows =
  let stats, stats_jobs_invariant = stats_json () in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"benchmark\": \"partition_serial_vs_parallel\",\n";
  Buffer.add_string buf
    "  \"rule\": \"(e1.name = e2.name) -> (e1 == e2)\",\n";
  Buffer.add_string buf "  \"clock\": \"wall\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"host_domains\": %d,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string buf "  \"results\": [\n";
  List.iteri
    (fun i { n; jobs; ms; speedup; agree } ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"n_r\": %d, \"n_s\": %d, \"jobs\": %d, \"ms\": %.3f, \
            \"speedup\": %.2f, \"agree\": %b}%s\n"
           n n jobs ms speedup agree
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"stats_jobs_invariant\": %b,\n" stats_jobs_invariant);
  Buffer.add_string buf ("  \"stats\": " ^ stats ^ "\n");
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let all () =
  print_endline
    "\n================ Partition: serial vs parallel ================";
  Printf.printf "host domains: %d%s\n"
    (Domain.recommended_domain_count ())
    (if smoke then " (smoke mode)" else "");
  Gc.set { (Gc.get ()) with minor_heap_size = 32 * 1024 * 1024 };
  (* The smoke sweep includes 1000 on purpose: that is the size where
     spawn-per-call parallelism was 14x slower than serial, and the CI
     gate holds jobs=2 at 1k to within 15% of serial wall time. *)
  let sizes = if smoke then [ 200; 1000 ] else [ 1000; 5000 ] in
  let rows = List.concat_map measure sizes in
  print_string
    (R.Pretty.render_rows
       ~header:[ "|R| = |S|"; "jobs"; "wall"; "vs serial"; "agree" ]
       (List.map
          (fun { n; jobs; ms; speedup; agree } ->
            [
              string_of_int n;
              string_of_int jobs;
              Printf.sprintf "%.2f ms" ms;
              Printf.sprintf "%.2fx" speedup;
              string_of_bool agree;
            ])
          rows));
  let out = open_out "BENCH_parallel.json" in
  output_string out (json_of_rows rows);
  close_out out;
  print_endline "wrote BENCH_parallel.json";
  if List.exists (fun row -> not row.agree) rows then begin
    prerr_endline
      "parallel_bench: parallel partition DISAGREES with serial";
    exit 1
  end

(* Tests for the sharded-execution substrate: the key router, the
   budgeted spill buffers, the domain pool's reuse/fallback behaviour,
   and the end-to-end invariance of the pipeline in the shard count. *)

module R = Relational
module E = Entity_id
open Helpers

let case name f = Alcotest.test_case name `Quick f

(* ---- router ---- *)

let router_tests =
  [
    case "router lands in [0, shards) and is deterministic" (fun () ->
        let keys =
          [ [ v "a" ]; [ v "a"; vi 3 ]; [ R.Value.null ]; [ vi 42 ] ]
        in
        List.iter
          (fun shards ->
            List.iter
              (fun key ->
                let sh = E.Shard.router ~shards key in
                Alcotest.(check bool) "in range" true (sh >= 0 && sh < shards);
                Alcotest.(check int) "deterministic" sh
                  (E.Shard.router ~shards key))
              keys)
          [ 1; 2; 7 ]);
    case "one shard owns everything" (fun () ->
        Alcotest.(check int) "" 0 (E.Shard.router ~shards:1 [ v "anything" ]));
    check_raises_any "router rejects shards = 0" (fun () ->
        E.Shard.router ~shards:0 [ v "x" ]);
    case "estimate grows with string size" (fun () ->
        let small = E.Shard.estimate_values [ v "ab" ]
        and large = E.Shard.estimate_values [ v (String.make 100 'x') ] in
        Alcotest.(check bool) "positive" true (small > 0);
        Alcotest.(check bool) "monotone" true (large > small));
  ]

(* ---- spill buffers ---- *)

let spill_tests =
  [
    case "unbudgeted buffer keeps insertion order in memory" (fun () ->
        let t = E.Shard.Spill.create () in
        for i = 0 to 99 do
          E.Shard.Spill.add t ~bytes:8 i
        done;
        Alcotest.(check int) "length" 100 (E.Shard.Spill.length t);
        Alcotest.(check int) "no spills" 0 (E.Shard.Spill.spills t);
        let seen = ref [] in
        E.Shard.Spill.iter t (fun i -> seen := i :: !seen);
        Alcotest.(check (list int)) "order" (List.init 100 Fun.id)
          (List.rev !seen);
        E.Shard.Spill.close t);
    case "tight budget spills and replays in insertion order" (fun () ->
        (* 8 bytes per item against a 32-byte budget: a flush every 4
           items, with a 2-item in-memory remainder at the end — both the
           on-disk batches and the tail must replay in order. *)
        let t = E.Shard.Spill.create ~budget:32 () in
        for i = 0 to 29 do
          E.Shard.Spill.add t ~bytes:8 i
        done;
        Alcotest.(check int) "length" 30 (E.Shard.Spill.length t);
        Alcotest.(check bool) "spilled" true (E.Shard.Spill.spills t > 0);
        Alcotest.(check bool) "bytes accounted" true
          (E.Shard.Spill.spilled_bytes t > 0);
        let replay () =
          let seen = ref [] in
          E.Shard.Spill.iter t (fun i -> seen := i :: !seen);
          List.rev !seen
        in
        Alcotest.(check (list int)) "order" (List.init 30 Fun.id) (replay ());
        (* iter is non-destructive: a second pass sees the same stream. *)
        Alcotest.(check (list int)) "re-iterable" (List.init 30 Fun.id)
          (replay ());
        E.Shard.Spill.close t;
        E.Shard.Spill.close t (* idempotent *));
    case "spilled structured values survive the round trip" (fun () ->
        let t = E.Shard.Spill.create ~budget:64 () in
        let items =
          List.init 20 (fun i -> ([ v (Printf.sprintf "k%d" i) ], i))
        in
        List.iter
          (fun ((kv, _) as item) ->
            E.Shard.Spill.add t ~bytes:(E.Shard.estimate_values kv) item)
          items;
        let seen = ref [] in
        E.Shard.Spill.iter t (fun item -> seen := item :: !seen);
        Alcotest.(check bool) "identical" true (List.rev !seen = items);
        E.Shard.Spill.close t);
    check_raises_any "budget must be positive" (fun () ->
        E.Shard.Spill.create ~budget:0 ());
    case "calibration scales the estimate by observed marshal sizes"
      (fun () ->
        (* Deliberately underestimate: 8 claimed bytes per 200-char
           string. After the first flush the error is visible and the
           calibrated accounting (clamped at 2x the raw estimate) flushes
           more eagerly than the raw estimate would. *)
        let t = E.Shard.Spill.create ~budget:64 () in
        for i = 0 to 19 do
          E.Shard.Spill.add t ~bytes:8 (String.make 200 (Char.chr (65 + i)))
        done;
        Alcotest.(check bool) "spilled" true (E.Shard.Spill.spills t > 0);
        (match E.Shard.Spill.estimate_error_pct t with
        | None -> Alcotest.fail "no error observed after a flush"
        | Some pct ->
            Alcotest.(check bool) "gross underestimate detected" true
              (pct > 100));
        Alcotest.(check bool) "actual bytes exceed estimated" true
          (E.Shard.Spill.actual_spilled_bytes t
          > E.Shard.Spill.spilled_bytes t);
        E.Shard.Spill.close t);
    case "close unregisters the temp file from the exit sweep" (fun () ->
        let before = E.Shard.Spill.live_files () in
        let t = E.Shard.Spill.create ~budget:16 () in
        for i = 0 to 9 do
          E.Shard.Spill.add t ~bytes:8 i
        done;
        Alcotest.(check int) "registered while open" (before + 1)
          (E.Shard.Spill.live_files ());
        let path = Option.get (E.Shard.Spill.file_path t) in
        Alcotest.(check bool) "file exists" true (Sys.file_exists path);
        E.Shard.Spill.close t;
        E.Shard.Spill.close t;
        (* double close: idempotent, no raise *)
        Alcotest.(check int) "unregistered" before (E.Shard.Spill.live_files ());
        Alcotest.(check bool) "file removed" true (not (Sys.file_exists path)));
    case "spill honours TMPDIR at file-creation time" (fun () ->
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "shard_tmpdir_%d" (Unix.getpid ()))
        in
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o700;
        let old = Sys.getenv_opt "TMPDIR" in
        Unix.putenv "TMPDIR" dir;
        Fun.protect
          ~finally:(fun () ->
            Unix.putenv "TMPDIR" (Option.value old ~default:"");
            Array.iter
              (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
              (Sys.readdir dir);
            try Sys.rmdir dir with Sys_error _ -> ())
          (fun () ->
            let t = E.Shard.Spill.create ~budget:16 () in
            for i = 0 to 9 do
              E.Shard.Spill.add t ~bytes:8 i
            done;
            (match E.Shard.Spill.file_path t with
            | None -> Alcotest.fail "expected a spill file"
            | Some path ->
                Alcotest.(check bool) "under TMPDIR" true
                  (String.length path > String.length dir
                  && String.sub path 0 (String.length dir) = dir));
            E.Shard.Spill.close t));
  ]

(* ---- the ordered verdict sink ---- *)

let sink_replay sink =
  let seen = ref [] in
  E.Shard.Sink.iter_ordered sink (fun x -> seen := x :: !seen);
  List.rev !seen

let sink_tests =
  let fill ?budget ~parts n =
    (* Item i goes to part (i mod parts); within a part items arrive in
       ascending order, so part-then-insertion order is a fixed, known
       sequence whatever the budget. *)
    let sink = E.Shard.Sink.create ?budget ~parts () in
    for i = 0 to n - 1 do
      E.Shard.Sink.add sink ~part:(i mod parts) ~bytes:16 i
    done;
    sink
  in
  let expected_ordered ~parts n =
    List.concat
      (List.init parts (fun p ->
           List.filter (fun i -> i mod parts = p) (List.init n Fun.id)))
  in
  [
    case "iter_ordered: parts in index order, insertion order within"
      (fun () ->
        let sink = fill ~parts:3 50 in
        Alcotest.(check int) "no spills" 0 (E.Shard.Sink.spills sink);
        Alcotest.(check (list int)) "order" (expected_ordered ~parts:3 50)
          (sink_replay sink);
        Alcotest.(check int) "length" 50 (E.Shard.Sink.length sink);
        E.Shard.Sink.close sink);
    case "iter_ordered: same contract under a forced-spill budget"
      (fun () ->
        (* parts get the 1 KiB floor each; 16 bytes x ~170 items per part
           overflows it several times. *)
        let sink = fill ~budget:3072 ~parts:3 512 in
        Alcotest.(check bool) "spilled" true (E.Shard.Sink.spills sink > 0);
        Alcotest.(check (list int)) "order" (expected_ordered ~parts:3 512)
          (sink_replay sink);
        Alcotest.(check bool) "peak bounded by the budget" true
          (E.Shard.Sink.peak_bytes sink <= 3072 + 3 * 16);
        E.Shard.Sink.close sink);
    case "fold_ordered agrees with iter_ordered" (fun () ->
        let sink = fill ~parts:4 40 in
        let folded =
          List.rev (E.Shard.Sink.fold_ordered sink [] (fun acc x -> x :: acc))
        in
        Alcotest.(check (list int)) "agree" (sink_replay sink) folded;
        E.Shard.Sink.close sink);
    case "iter_merged restores global order from round-robin parts"
      (fun () ->
        List.iter
          (fun budget ->
            let sink = fill ?budget ~parts:3 200 in
            let seen = ref [] in
            E.Shard.Sink.iter_merged ~index:Fun.id sink (fun x ->
                seen := x :: !seen);
            Alcotest.(check (list int))
              (Printf.sprintf "ascending (budget %s)"
                 (match budget with
                 | None -> "none"
                 | Some b -> string_of_int b))
              (List.init 200 Fun.id) (List.rev !seen);
            E.Shard.Sink.close sink)
          [ None; Some 3072 ]);
    case "close is idempotent and removes spill files" (fun () ->
        let before = E.Shard.Spill.live_files () in
        let sink = fill ~budget:3072 ~parts:3 512 in
        Alcotest.(check bool) "registered" true
          (E.Shard.Spill.live_files () > before);
        E.Shard.Sink.close sink;
        E.Shard.Sink.close sink;
        Alcotest.(check int) "all unregistered" before
          (E.Shard.Spill.live_files ()));
    check_raises_any "parts must be positive" (fun () ->
        E.Shard.Sink.create ~parts:0 ());
  ]

(* ---- the domain pool ---- *)

let pool_tests =
  [
    case "resolve rejects non-positive job counts" (fun () ->
        Alcotest.(check int) "passthrough" 3 (Parallel.resolve (Some 3));
        Alcotest.(check bool) "default positive" true
          (Parallel.resolve None > 0);
        let raises j =
          match Parallel.resolve (Some j) with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        Alcotest.(check bool) "jobs = 0" true (raises 0);
        Alcotest.(check bool) "jobs = -4" true (raises (-4)));
    case "small inputs fall back to one serial chunk" (fun () ->
        let before = Parallel.pool_spawned () in
        let chunks =
          Parallel.map_chunks ~jobs:4 100 (fun ~start ~stop -> (start, stop))
        in
        Alcotest.(check (list (pair int int))) "one chunk" [ (0, 100) ] chunks;
        Alcotest.(check int) "chunk_count agrees" 1
          (Parallel.chunk_count ~jobs:4 100);
        Alcotest.(check int) "no domains spawned" before
          (Parallel.pool_spawned ()));
    case "above the threshold the pool engages and is reused" (fun () ->
        (* threshold:1 forces the pool even on a small range; repeated
           batches must not spawn fresh domains — that spawn-per-call
           cost was the 14x small-input regression. *)
        let run () =
          Parallel.map_chunks ~jobs:2 ~threshold:1 64 (fun ~start ~stop ->
              let s = ref 0 in
              for i = start to stop - 1 do
                s := !s + i
              done;
              !s)
        in
        let total l = List.fold_left ( + ) 0 l in
        Alcotest.(check int) "sum" (64 * 63 / 2) (total (run ()));
        let after_first = Parallel.pool_spawned () in
        Alcotest.(check bool) "spawned something" true (after_first > 0);
        for _ = 1 to 10 do
          Alcotest.(check int) "sum" (64 * 63 / 2) (total (run ()))
        done;
        Alcotest.(check int) "no further spawns" after_first
          (Parallel.pool_spawned ()));
    case "chunk exceptions re-raise from the lowest chunk" (fun () ->
        match
          Parallel.map_chunks ~jobs:4 ~threshold:1 16 (fun ~start ~stop:_ ->
              if start >= 0 then failwith (string_of_int start))
        with
        | _ -> Alcotest.fail "expected an exception"
        | exception Failure s -> Alcotest.(check string) "chunk 0" "0" s);
  ]

(* ---- exit ordering: pool shutdown before spill removal ---- *)

let engage_pool () =
  ignore
    (Parallel.map_chunks ~jobs:2 ~threshold:1 64 (fun ~start ~stop ->
         stop - start))

let exit_tests =
  [
    case "sweep drains the pool before removing spill files" (fun () ->
        (* The exit sweep must shut worker domains down first: a live
           worker could still be flushing a sink part into the very
           file the sweep is about to unlink. Pin the ordering by
           observing both effects of one sweep call. *)
        let t = E.Shard.Spill.create ~budget:16 () in
        for i = 0 to 9 do
          E.Shard.Spill.add t ~bytes:8 i
        done;
        let path = Option.get (E.Shard.Spill.file_path t) in
        engage_pool ();
        Alcotest.(check bool) "pool live before sweep" true
          (Parallel.pool_size () > 0);
        E.Shard.Spill.sweep ();
        Alcotest.(check int) "pool drained" 0 (Parallel.pool_size ());
        Alcotest.(check bool) "file removed" true
          (not (Sys.file_exists path));
        Alcotest.(check int) "registry empty" 0 (E.Shard.Spill.live_files ());
        (* A sweep is not a poison pill: the pool regrows on demand. *)
        engage_pool ();
        Alcotest.(check bool) "pool regrows" true (Parallel.pool_size () > 0);
        E.Shard.Spill.close t);
    case "process exit sweeps spills with a live pool (subprocess)" (fun () ->
        (* Re-invoke this test binary in child mode: it leaves a
           spilled buffer open and the pool running, then exits
           normally. A clean status and an empty scratch directory
           prove the at_exit hook ran to completion — no deadlock
           against worker domains, no leaked temp file. *)
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "shard_atexit_%d" (Unix.getpid ()))
        in
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o700;
        let cmd =
          Printf.sprintf "TEST_SHARD_ATEXIT_CHILD=%s %s >/dev/null 2>&1"
            (Filename.quote dir)
            (Filename.quote Sys.executable_name)
        in
        let status = Sys.command cmd in
        let leftovers = Array.to_list (Sys.readdir dir) in
        List.iter (fun f -> Sys.remove (Filename.concat dir f)) leftovers;
        Sys.rmdir dir;
        Alcotest.(check int) "clean exit" 0 status;
        Alcotest.(check (list string)) "no leftover spill files" [] leftovers);
  ]

(* Child mode for the subprocess test above: spill into the given
   scratch directory, engage the pool, and exit without closing
   anything — cleanup is entirely the at_exit sweep's job. *)
let atexit_child dir =
  Unix.putenv "TMPDIR" dir;
  let t = E.Shard.Spill.create ~budget:16 () in
  for i = 0 to 9 do
    E.Shard.Spill.add t ~bytes:8 i
  done;
  assert (E.Shard.Spill.file_path t <> None);
  engage_pool ();
  exit 0

(* ---- shard invariance of the pipeline ---- *)

let instance () =
  Workload.Restaurant.generate
    { Workload.Restaurant.default with n_entities = 60; seed = 11 }

let pair_equal (a1, a2) (b1, b2) = R.Tuple.equal a1 b1 && R.Tuple.equal a2 b2
let pairs = Alcotest.testable (fun ppf _ -> Format.fprintf ppf "<pairs>")
    (List.equal pair_equal)

let invariance_tests =
  [
    case "Identify.run is invariant in the shard count" (fun () ->
        let inst = instance () in
        let run shards mem_budget =
          E.Identify.run ~shards ?mem_budget ~r:inst.r ~s:inst.s ~key:inst.key
            inst.ilfds
        in
        let base = run 1 None in
        List.iter
          (fun shards ->
            (* The 4 KiB budget forces the spill path at 60 entities. *)
            let o = run shards (Some 4096) in
            Alcotest.check pairs
              (Printf.sprintf "pairs shards=%d" shards)
              base.pairs o.pairs;
            Alcotest.(check bool)
              (Printf.sprintf "entries shards=%d" shards)
              true
              (mt_entries_equal base.matching_table o.matching_table);
            Alcotest.(check (list (pair int int))) "extended untouched" []
              [])
          [ 2; 7 ]);
    case "Decision.partition is invariant in the shard count" (fun () ->
        let inst = instance () in
        let identity = [ E.Extended_key.equivalence_rule inst.key ] in
        let r_ext = inst.r and s_ext = inst.s in
        let part shards mem_budget =
          listed
            (E.Decision.partition ~shards ?mem_budget ~identity
               ~distinctness:[] r_ext s_ext)
        in
        let m1, d1, u1 = part 1 None in
        List.iter
          (fun shards ->
            let m, d, u = part shards (Some 2048) in
            Alcotest.check pairs "matched" m1 m;
            Alcotest.check pairs "distinct" d1 d;
            Alcotest.check pairs "undetermined" u1 u)
          [ 2; 7 ]);
    check_raises_any "Identify.run rejects shards = 0" (fun () ->
        let inst = instance () in
        E.Identify.run ~shards:0 ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds);
    check_raises_any "Blocking.fired rejects shards = -1" (fun () ->
        let inst = instance () in
        E.Decision.partition ~shards:(-1)
          ~identity:[ E.Extended_key.equivalence_rule inst.key ]
          ~distinctness:[] inst.r inst.s);
  ]

(* ---- streaming vs materialised ---- *)

let stream_pairs ?jobs ?shards ?mem_budget ?telemetry (inst : Workload.Restaurant.instance) =
  List.rev
    (E.Identify.run_stream ?jobs ?shards ?mem_budget ?telemetry ~r:inst.r
       ~s:inst.s ~key:inst.key ~init:[]
       ~f:(fun acc tr ts -> (tr, ts) :: acc)
       inst.ilfds)

let empty_like rel =
  R.Relation.empty (R.Relation.schema rel)
    ~keys:(R.Relation.declared_keys rel)
    ()

let stream_tests =
  [
    case "run_stream equals run across the shards x jobs matrix" (fun () ->
        let inst = instance () in
        let base =
          E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds
        in
        List.iter
          (fun shards ->
            List.iter
              (fun jobs ->
                (* The 4 KiB budget forces the sink spill path whenever
                   shards > 1. *)
                let streamed =
                  stream_pairs ~jobs ~shards ~mem_budget:4096 inst
                in
                Alcotest.check pairs
                  (Printf.sprintf "shards=%d jobs=%d" shards jobs)
                  base.pairs streamed)
              [ 1; 2; 4 ])
          [ 1; 2; 7 ]);
    case "single-shard short-circuit buffers nothing" (fun () ->
        let inst = instance () in
        let telemetry = Telemetry.create () in
        ignore (stream_pairs ~shards:1 ~mem_budget:1024 ~telemetry inst);
        Alcotest.(check int) "peak_verdict_bytes" 0
          (Telemetry.counter telemetry "identify.peak_verdict_bytes");
        Alcotest.(check int) "no sink spills" 0
          (Telemetry.counter telemetry "parallel.sink.spills"));
    case "budgeted sharded stream spills and stays under budget" (fun () ->
        (* Each sink part gets at least the 1 KiB floor, so the scenario
           must produce enough matches (~32 bytes each) to overflow it. *)
        let inst =
          Workload.Restaurant.generate
            { Workload.Restaurant.default with n_entities = 500; seed = 11 }
        in
        let budget = 4096 in
        let telemetry = Telemetry.create () in
        ignore (stream_pairs ~shards:7 ~mem_budget:budget ~telemetry inst);
        let peak = Telemetry.counter telemetry "identify.peak_verdict_bytes" in
        Alcotest.(check bool) "buffered something" true (peak > 0);
        (* Per-part floor is 1024, so 7 parts may legitimately hold up to
           7 KiB + one item each; the contract is the per-part bound. *)
        Alcotest.(check bool) "peak within the per-part bound" true
          (peak <= 7 * (max 1024 (budget / 7) + 64));
        Alcotest.(check bool) "spilled" true
          (Telemetry.counter telemetry "parallel.sink.spills" > 0);
        (* peak_verdict_bytes is configuration telemetry and must not
           appear in the stable counter set. *)
        Alcotest.(check bool) "excluded from counters_stable" true
          (not
             (List.mem_assoc "identify.peak_verdict_bytes"
                (Telemetry.counters_stable telemetry))));
    case "empty relations stream nothing" (fun () ->
        let inst = instance () in
        let empty_inst = { inst with r = empty_like inst.r } in
        List.iter
          (fun shards ->
            Alcotest.check pairs
              (Printf.sprintf "shards=%d" shards)
              []
              (stream_pairs ~shards ~mem_budget:2048 empty_inst))
          [ 1; 3 ]);
  ]

let () =
  match Sys.getenv_opt "TEST_SHARD_ATEXIT_CHILD" with
  | Some dir -> atexit_child dir
  | None ->
      Alcotest.run "shard"
        [
          ("router", router_tests);
          ("spill", spill_tests);
          ("sink", sink_tests);
          ("pool", pool_tests);
          ("invariance", invariance_tests);
          ("stream", stream_tests);
          ("exit", exit_tests);
        ]

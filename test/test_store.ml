(* Tests for the durable store: WAL framing and torn-tail recovery,
   snapshot bounding and staleness, the lock protocol, the merge/split
   overlay with rollback, and recovery idempotence. Every store runs
   with [sync:false] — crashes are simulated by truncating or
   corrupting files, so fsync latency buys nothing here. *)

module R = Relational
module E = Entity_id
module S = Eid_store.Store
module W = Eid_store.Wal
module F = Eid_store.Fsutil
open Helpers

let case name f = Alcotest.test_case name `Quick f

let cfg =
  {
    S.r_attrs = [ "name"; "cuisine"; "street" ];
    r_key = [ "name"; "cuisine" ];
    s_attrs = [ "name"; "speciality"; "county" ];
    s_key = [ "name"; "speciality" ];
    key = [ "name"; "cuisine"; "speciality" ];
    rules =
      [
        "speciality = Hunan -> cuisine = Chinese";
        "name = TwinCities & street = Co.B2 -> speciality = Hunan";
      ];
    check_conflicts = false;
  }

(* These two rows match through the first rule: the S side derives
   cuisine = Chinese from speciality = Hunan, completing the extended
   key on both sides. *)
let r_match = [| v "TwinCities"; v "Chinese"; v "Co.B2" |]
let s_match = [| v "TwinCities"; v "Hunan"; v "Dakota" |]

(* And these two do not: no rule bridges their keys. *)
let r_lone = [| v "Lone"; v "Thai"; v "Elm" |]
let s_solo = [| v "Solo"; v "Gyros"; v "Kent" |]

let in_dir f =
  let dir = F.fresh_dir "test_store" in
  Fun.protect ~finally:(fun () -> F.remove_tree dir) (fun () -> f dir)

let open_ok ?telemetry ?config dir =
  match S.open_store ?telemetry ~sync:false ?config ~dir () with
  | Ok t -> t
  | Error e -> Alcotest.failf "open_store: %s" e

let ok = function
  | Ok x -> x
  | Error c ->
      Alcotest.failf "unexpected conflict: %s"
        (Format.asprintf "%a" S.pp_conflict c)

let cardinality t = E.Matching_table.cardinality (S.matching_table t)
let wal_file dir = Filename.concat dir "wal.log"
let chop path bytes =
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (size - bytes);
  Unix.close fd

(* ---- WAL framing ---- *)

let wal_tests =
  [
    case "records round-trip with monotone offsets" (fun () ->
        in_dir (fun dir ->
            let path = wal_file dir in
            let w, off0 = W.open_append path in
            Alcotest.(check int) "fresh log is empty" 0 off0;
            let o1 = W.append w "alpha" in
            let o2 = W.append w "beta" in
            Alcotest.(check bool) "monotone" true (o2 > o1 && o1 > 0);
            W.sync w;
            W.close w;
            let rp = W.read path in
            Alcotest.(check (list string)) "payloads" [ "alpha"; "beta" ]
              rp.W.payloads;
            Alcotest.(check int) "valid to the end" o2 rp.W.valid_offset;
            Alcotest.(check bool) "not torn" false rp.W.torn;
            (* replay from an interior offset skips the prefix *)
            let tail = W.read ~from:o1 path in
            Alcotest.(check (list string)) "tail only" [ "beta" ]
              tail.W.payloads));
    case "a torn tail stops replay and truncates cleanly" (fun () ->
        in_dir (fun dir ->
            let path = wal_file dir in
            let w, _ = W.open_append path in
            let o1 = W.append w "alpha" in
            ignore (W.append w "beta" : int);
            W.sync w;
            W.close w;
            chop path 3 (* mid-payload of the second record *);
            let rp = W.read path in
            Alcotest.(check (list string)) "prefix survives" [ "alpha" ]
              rp.W.payloads;
            Alcotest.(check int) "valid offset at the tear" o1
              rp.W.valid_offset;
            Alcotest.(check bool) "torn" true rp.W.torn;
            W.truncate path o1;
            let rp = W.read path in
            Alcotest.(check bool) "clean after truncate" false rp.W.torn;
            Alcotest.(check (list string)) "same prefix" [ "alpha" ]
              rp.W.payloads));
    case "a corrupted payload byte fails its checksum" (fun () ->
        in_dir (fun dir ->
            let path = wal_file dir in
            let w, _ = W.open_append path in
            ignore (W.append w "alpha" : int);
            W.sync w;
            W.close w;
            let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
            ignore (Unix.lseek fd 9 Unix.SEEK_SET : int);
            ignore (Unix.write_substring fd "X" 0 1 : int);
            Unix.close fd;
            let rp = W.read path in
            Alcotest.(check (list string)) "nothing valid" [] rp.W.payloads;
            Alcotest.(check int) "torn from the start" 0 rp.W.valid_offset;
            Alcotest.(check bool) "torn" true rp.W.torn));
    case "a missing log reads as an empty replay" (fun () ->
        in_dir (fun dir ->
            let rp = W.read (wal_file dir) in
            Alcotest.(check (list string)) "no payloads" [] rp.W.payloads;
            Alcotest.(check bool) "not torn" false rp.W.torn));
  ]

(* ---- filesystem plumbing ---- *)

let fsutil_tests =
  [
    case "with_atomic_out leaves nothing behind on failure" (fun () ->
        in_dir (fun dir ->
            let path = Filename.concat dir "out" in
            (match
               F.with_atomic_out path (fun oc ->
                   output_string oc "partial";
                   failwith "boom")
             with
            | _ -> Alcotest.fail "expected the failure to propagate"
            | exception Failure _ -> ());
            Alcotest.(check bool) "no target" true
              (not (Sys.file_exists path));
            Alcotest.(check bool) "no temp file" true
              (not (Sys.file_exists (path ^ ".tmp")))));
    case "a stale lock from a dead process is broken" (fun () ->
        in_dir (fun dir ->
            (* A reaped child's PID is guaranteed dead and (in any
               realistic test run) not yet recycled. *)
            let pid =
              Unix.create_process "true" [| "true" |] Unix.stdin Unix.stdout
                Unix.stderr
            in
            ignore (Unix.waitpid [] pid);
            let lock = Filename.concat dir "lock" in
            let oc = open_out lock in
            output_string oc (string_of_int pid);
            close_out oc;
            (match F.acquire_lock lock with
            | Ok () -> ()
            | Error e -> Alcotest.failf "stale lock not broken: %s" e);
            F.release_lock lock));
    case "a live lock refuses a second open" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            (match S.open_store ~sync:false ~dir () with
            | Error _ -> ()
            | Ok t2 ->
                S.close t2;
                Alcotest.fail "second open should have been refused");
            S.close t;
            (* releasing the lock makes the store reopenable *)
            let t = open_ok dir in
            S.close t));
  ]

(* ---- crash recovery ---- *)

let recovery_tests =
  [
    case "an empty store recovers to an empty store" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            S.close t;
            let t = open_ok dir in
            Alcotest.(check int) "nothing replayed" 0 (S.recovered_records t);
            Alcotest.(check int) "empty table" 0 (cardinality t);
            S.close t));
    case "recovery replays the WAL and is idempotent" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            ignore (ok (S.insert t S.R r_match));
            let entries = ok (S.insert t S.S s_match) in
            Alcotest.(check int) "insert matched" 1 (List.length entries);
            let mt0 = S.matching_table t in
            S.close t;
            let recover () =
              let t = open_ok dir in
              let r =
                (S.recovered_records t, S.wal_offset t, S.matching_table t)
              in
              S.close t;
              r
            in
            let n1, off1, mt1 = recover () in
            let n2, off2, mt2 = recover () in
            Alcotest.(check int) "two ops replayed" 2 n1;
            Alcotest.(check int) "second recovery identical" n1 n2;
            Alcotest.(check int) "offsets stable" off1 off2;
            Alcotest.(check bool) "table restored" true
              (mt_entries_equal mt0 mt1);
            Alcotest.(check bool) "table stable" true
              (mt_entries_equal mt1 mt2)));
    case "a torn final record is truncated, the prefix survives" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            ignore (ok (S.insert t S.R r_match));
            ignore (ok (S.insert t S.S s_match));
            S.close t;
            chop (wal_file dir) 3;
            let telemetry = Telemetry.create () in
            let t = open_ok ~telemetry dir in
            Alcotest.(check int) "tear counted" 1
              (Telemetry.counter telemetry "store.recovery.torn_tail");
            Alcotest.(check int) "only the first op survives" 1
              (S.recovered_records t);
            Alcotest.(check int) "no match yet" 0 (cardinality t);
            (* the store stays writable past the repaired tail *)
            let entries = ok (S.insert t S.S s_match) in
            Alcotest.(check int) "re-insert matches" 1 (List.length entries);
            S.close t;
            let t = open_ok dir in
            Alcotest.(check int) "repair is durable" 1 (cardinality t);
            S.close t));
    case "a snapshot bounds the replay" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            ignore (ok (S.insert t S.R r_match));
            ignore (ok (S.insert t S.S s_match));
            S.snapshot t;
            ignore (ok (S.insert t S.R r_lone));
            S.close t;
            let t = open_ok dir in
            Alcotest.(check int) "only the tail replays" 1
              (S.recovered_records t);
            Alcotest.(check int) "full state restored" 1 (cardinality t);
            S.close t));
    case "a clean EOF under snapshot_every leaves nothing to replay"
      (fun () ->
        in_dir (fun dir ->
            let requests = Filename.concat dir "requests.ndjson" in
            Out_channel.with_open_text requests (fun oc ->
                output_string oc
                  {|{"op":"insert","side":"r","row":{"name":"TwinCities","cuisine":"Chinese","street":"Co.B2"}}
{"op":"insert","side":"s","row":{"name":"TwinCities","speciality":"Hunan","county":"Dakota"}}
|});
            (* One serve session reading [input] to EOF; returns the
               snapshots it wrote. *)
            let session ?config store input =
              let telemetry = Telemetry.create () in
              let t = open_ok ~telemetry ?config store in
              In_channel.with_open_text input (fun ic ->
                  Out_channel.with_open_text (Filename.concat dir "out")
                    (fun oc ->
                      Eid_store.Service.serve ~snapshot_every:100 t ic oc));
              S.close t;
              Telemetry.counter telemetry "store.snapshots"
            in
            let store = Filename.concat dir "store" in
            Alcotest.(check int) "two inserts, then EOF: one snapshot" 1
              (session ~config:cfg store requests);
            let telemetry = Telemetry.create () in
            let t = open_ok ~telemetry store in
            Alcotest.(check int) "nothing replayed" 0
              (Telemetry.counter telemetry "store.recovery.replayed");
            Alcotest.(check int) "match restored" 1 (cardinality t);
            S.close t;
            (* A session without mutations has nothing to snapshot. *)
            let reads = Filename.concat dir "reads.ndjson" in
            Out_channel.with_open_text reads (fun oc ->
                output_string oc "{\"op\":\"stats\"}\n");
            Alcotest.(check int) "read-only session: no snapshot" 0
              (session store reads)));
    case "a stale rules hash forces a full replay" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            ignore (ok (S.insert t S.R r_match));
            ignore (ok (S.insert t S.S s_match));
            S.snapshot t;
            S.close t;
            (* Changing the configuration invalidates the snapshot's
               rules hash; the never-compacted WAL makes the fallback
               complete. A harmless extra rule keeps the data's
               behaviour identical so the tables must still agree. *)
            let cfg' =
              { cfg with S.rules = cfg.S.rules @ [ "street = X -> county = Y" ] }
            in
            Sys.remove (Filename.concat dir "config.json");
            let telemetry = Telemetry.create () in
            let t = open_ok ~telemetry ~config:cfg' dir in
            Alcotest.(check int) "stale snapshot counted" 1
              (Telemetry.counter telemetry "store.recovery.snapshot_stale");
            Alcotest.(check int) "full WAL replayed" 2 (S.recovered_records t);
            Alcotest.(check int) "state rebuilt" 1 (cardinality t);
            S.close t));
    case "a corrupt snapshot forces a full replay" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            ignore (ok (S.insert t S.R r_match));
            ignore (ok (S.insert t S.S s_match));
            S.snapshot t;
            S.close t;
            let snap = Filename.concat dir "snapshot" in
            let fd = Unix.openfile snap [ Unix.O_WRONLY ] 0 in
            ignore (Unix.lseek fd 20 Unix.SEEK_SET : int);
            ignore (Unix.write_substring fd "\xff" 0 1 : int);
            Unix.close fd;
            let telemetry = Telemetry.create () in
            let t = open_ok ~telemetry dir in
            Alcotest.(check int) "corruption counted" 1
              (Telemetry.counter telemetry "store.recovery.snapshot_corrupt");
            Alcotest.(check int) "full WAL replayed" 2 (S.recovered_records t);
            Alcotest.(check int) "state rebuilt" 1 (cardinality t);
            S.close t));
    case "a changed provided configuration is refused" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            S.close t;
            let cfg' = { cfg with S.check_conflicts = true } in
            match S.open_store ~sync:false ~config:cfg' ~dir () with
            | Error _ -> ()
            | Ok t ->
                S.close t;
                Alcotest.fail "config mismatch should refuse to open"));
  ]

(* ---- conflicts and the merge overlay ---- *)

let overlay_tests =
  [
    case "a key violation is recorded and survives recovery" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            ignore (ok (S.insert t S.R r_match));
            (match
               S.insert t S.R [| v "TwinCities"; v "Chinese"; v "Elsewhere" |]
             with
            | Error (S.Key_violation _) -> ()
            | Error c ->
                Alcotest.failf "wrong conflict: %s"
                  (Format.asprintf "%a" S.pp_conflict c)
            | Ok _ -> Alcotest.fail "duplicate key accepted");
            Alcotest.(check int) "recorded" 1 (List.length (S.conflicts t));
            S.close t;
            let t = open_ok dir in
            Alcotest.(check int) "replayed" 1 (List.length (S.conflicts t));
            S.close t));
    case "merge, rollback, re-merge round-trip" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            ignore (ok (S.insert t S.R r_lone));
            ignore (ok (S.insert t S.S s_solo));
            let r_key = [| v "Lone"; v "Thai" |]
            and s_key = [| v "Solo"; v "Gyros" |] in
            let record = ok (S.merge t ~r_key ~s_key) in
            Alcotest.(check bool) "manual inverse" true
              record.S.inverse_manual;
            Alcotest.(check int) "pair asserted" 1 (cardinality t);
            (match S.merge t ~r_key ~s_key with
            | Error (S.Duplicate_merge _) -> ()
            | _ -> Alcotest.fail "re-merging the same pair must conflict");
            (match S.rollback t with
            | Some _ -> ()
            | None -> Alcotest.fail "rollback found nothing");
            Alcotest.(check int) "pair retracted" 0 (cardinality t);
            Alcotest.(check bool) "rollback is exhausted" true
              (S.rollback t = None);
            ignore (ok (S.merge t ~r_key ~s_key));
            Alcotest.(check int) "re-merge sticks" 1 (cardinality t);
            S.close t;
            let t = open_ok dir in
            Alcotest.(check int) "overlay survives recovery" 1 (cardinality t);
            Alcotest.(check int) "full log restored" 2
              (List.length (S.merge_log t));
            S.close t));
    case "split suppresses a derived pair; rollback restores it" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            ignore (ok (S.insert t S.R r_match));
            ignore (ok (S.insert t S.S s_match));
            Alcotest.(check int) "derived match" 1 (cardinality t);
            let r_key = [| v "TwinCities"; v "Chinese" |]
            and s_key = [| v "TwinCities"; v "Hunan" |] in
            let record = ok (S.split t ~r_key ~s_key) in
            Alcotest.(check bool) "suppression inverse" false
              record.S.inverse_manual;
            Alcotest.(check int) "suppressed" 0 (cardinality t);
            (match S.split t ~r_key ~s_key with
            | Error (S.Unknown_pair _) -> ()
            | _ -> Alcotest.fail "splitting a split pair must conflict");
            (match S.rollback t with
            | Some _ -> ()
            | None -> Alcotest.fail "rollback found nothing");
            Alcotest.(check int) "restored" 1 (cardinality t);
            S.close t));
    case "merge validates its keys" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            ignore (ok (S.insert t S.R r_lone));
            ignore (ok (S.insert t S.S s_solo));
            (match
               S.merge t
                 ~r_key:[| v "Ghost"; v "Thai" |]
                 ~s_key:[| v "Solo"; v "Gyros" |]
             with
            | Error (S.Unknown_key { side = S.R; _ }) -> ()
            | _ -> Alcotest.fail "unknown R key accepted");
            ignore
              (ok
                 (S.merge t
                    ~r_key:[| v "Lone"; v "Thai" |]
                    ~s_key:[| v "Solo"; v "Gyros" |]));
            ignore (ok (S.insert t S.S [| v "Other"; v "Hunan"; v "Kent" |]));
            (match
               S.merge t
                 ~r_key:[| v "Lone"; v "Thai" |]
                 ~s_key:[| v "Other"; v "Hunan" |]
             with
            | Error (S.Merge_uniqueness _) -> ()
            | _ -> Alcotest.fail "double-matching merge accepted");
            S.close t));
  ]

let () =
  Alcotest.run "store"
    [
      ("wal", wal_tests);
      ("fsutil", fsutil_tests);
      ("recovery", recovery_tests);
      ("overlay", overlay_tests);
    ]

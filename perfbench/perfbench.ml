(* perfbench — the OCaml half of the end-to-end benchmark; run.py runs
   it.

     perfbench gen --workload W --seed N --dir D
       writes the workload's inputs into D: CSVs, rule files, the serve
       request stream, the expected answers, and the CLI argument lists
       run.py passes to entity_ident. The same seed gives byte-identical
       files.

     perfbench trace --workload W --dir D --out O
       replays the same steps in this process — batch identify, the
       serve stream, and recovery of the store it leaves — timing every
       call into relational / ilfd / entity_id / eid_store and reading
       the program's own Telemetry counters and spans. Outputs go to O
       for run.py to compare byte for byte with the CLI's; the last line
       of stdout is a flat JSON object of per-layer figures for this
       pass.

   Workload shapes, flags and sizes live here and nowhere else. *)

module R = Relational
module V = R.Value
module Tuple = R.Tuple
module Json = Eid_store.Json
module Store = Eid_store.Store
module Service = Eid_store.Service
module Fsutil = Eid_store.Fsutil
module Restaurant = Workload.Restaurant
module Rng = Workload.Rng

(* ---- workloads ---- *)

type batch_output =
  | Show_mt
  | Show_integrated
  | Stream of { shards : int; budget : int }
      (** --stream-out with a budget small enough that the join spills *)

type workload = {
  name : string;
  batch_entities : int;
  homonym_rate : float;
  data_rules : bool;
      (** one (name,street)->speciality and one street->county ILFD per
          entity on top of the 22 speciality->cuisine rules *)
  key : string list;
  output : batch_output;
  serve_entities : int;
  serve_inserts : int;  (** exact stream length; fewer rows is an error *)
  read_every : int;  (** a read after every [read_every]-th insert *)
  explain_every : int;  (** every k-th read is an explain; 0 = none *)
  overlay_every : int;
      (** a merge/split/merge/rollback cycle op after every k-th insert;
          0 = none *)
  snapshot_every : int option;
}

let workloads =
  [
    {
      name = "datarules";
      batch_entities = 5_000;
      homonym_rate = 0.1;
      data_rules = true;
      key = [ "name"; "cuisine"; "speciality" ];
      output = Show_mt;
      serve_entities = 300;
      serve_inserts = 450;
      read_every = 10;
      explain_every = 0;
      overlay_every = 0;
      snapshot_every = None;
    };
    {
      name = "keyjoin";
      batch_entities = 8_000;
      homonym_rate = 0.0;
      data_rules = false;
      key = [ "name"; "cuisine" ];
      output = Show_integrated;
      serve_entities = 800;
      serve_inserts = 1_200;
      read_every = 10;
      explain_every = 0;
      overlay_every = 0;
      snapshot_every = None;
    };
    {
      name = "readmix";
      batch_entities = 15_000;
      homonym_rate = 0.0;
      data_rules = false;
      key = [ "name"; "cuisine" ];
      output = Stream { shards = 4; budget = 65_536 };
      serve_entities = 1_000;
      serve_inserts = 1_500;
      read_every = 2;
      explain_every = 25;
      overlay_every = 33;
      snapshot_every = Some 200;
    };
  ]

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
      Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" name
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2

let r_attrs = [ "name"; "cuisine"; "street" ]
let s_attrs = [ "name"; "speciality"; "county" ]
let r_key = [ "name"; "cuisine" ]
let s_key = [ "name"; "speciality" ]
let mode = Ilfd.Apply.First_rule

(* Distinct seeds per generated artefact, all derived from the one
   workload seed. *)
let batch_seed seed = seed
let serve_seed seed = seed + 1_000_003
let shuffle_seed seed = seed + 2_000_003

let instance w ~entities ~seed =
  let rules = if w.data_rules then 1.0 else 0.0 in
  Restaurant.generate
    {
      Restaurant.default with
      n_entities = entities;
      homonym_rate = w.homonym_rate;
      entity_ilfd_coverage = rules;
      street_ilfd_coverage = rules;
      seed;
    }

(* ---- CLI argument lists (one per line in D/*.args) ---- *)

let csv_list = String.concat ","

let batch_args w =
  [ "identify"; "--left"; "batch_r.csv"; "--right"; "batch_s.csv";
    "--r-key"; csv_list r_key; "--s-key"; csv_list s_key;
    "--key"; csv_list w.key; "--rules"; "batch_rules.ilfd"; "--jobs"; "1" ]
  @
  match w.output with
  | Show_mt -> [ "--show"; "mt" ]
  | Show_integrated -> [ "--show"; "integrated" ]
  | Stream { shards; budget } ->
      [ "--stream-out"; "batch_stream.ndjson"; "--shards";
        string_of_int shards; "--mem-budget"; string_of_int budget ]

(* The store directory is appended by run.py. *)
let serve_args w =
  [ "serve"; "--r-schema"; csv_list r_attrs; "--s-schema"; csv_list s_attrs;
    "--r-key"; csv_list r_key; "--s-key"; csv_list s_key;
    "--key"; csv_list w.key; "--rules"; "serve_rules.ilfd" ]
  @
  match w.snapshot_every with
  | Some n -> [ "--snapshot-every"; string_of_int n ]
  | None -> []

let serve_config w rules =
  {
    Store.r_attrs;
    r_key;
    s_attrs;
    s_key;
    key = w.key;
    rules;
    check_conflicts = false;
  }

(* ---- gen ---- *)

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let write_lines path lines =
  write_file path (String.concat "" (List.map (fun l -> l ^ "\n") lines))

let str v = match v with V.String s -> s | v -> V.to_string v
let key_strings t = List.map str (Tuple.values t)

let truth_line (e : Entity_id.Matching_table.entry) =
  String.concat "\t" (key_strings e.r_key @ key_strings e.s_key)

let jstr s = Json.String s
let obj_of names values = Json.Obj (List.map2 (fun n v -> (n, jstr v)) names values)

type side_row = Row_r of string list | Row_s of string list

(* The serve request stream, with the expected answer to every read:
   the generator's truth restricted to the rows inserted so far, with
   the stream's merges added, splits removed and rollbacks undone. *)
let gen_stream w ~seed dir =
  let inst = instance w ~entities:w.serve_entities ~seed:(serve_seed seed) in
  let rows_of rel wrap =
    List.map (fun t -> wrap (List.map str (Tuple.values t))) (R.Relation.tuples rel)
  in
  let all =
    Rng.shuffle (Rng.create (shuffle_seed seed))
      (rows_of inst.r (fun v -> Row_r v) @ rows_of inst.s (fun v -> Row_s v))
  in
  if List.length all < w.serve_inserts then begin
    Printf.eprintf "perfbench: %s serve instance has %d rows, needs %d\n"
      w.name (List.length all) w.serve_inserts;
    exit 2
  end;
  let stream = List.filteri (fun i _ -> i < w.serve_inserts) all in
  let r_key_of = function [ n; c; _ ] -> [ n; c ] | _ -> assert false in
  let s_key_of = function [ n; sp; _ ] -> [ n; sp ] | _ -> assert false in
  let truth_r = Hashtbl.create 1024 and truth_s = Hashtbl.create 1024 in
  List.iter
    (fun (e : Entity_id.Matching_table.entry) ->
      let rk = key_strings e.r_key and sk = key_strings e.s_key in
      Hashtbl.replace truth_r rk sk;
      Hashtbl.replace truth_s sk rk)
    inst.truth;
  let inserted_r = Hashtbl.create 1024 and inserted_s = Hashtbl.create 1024 in
  (* Effective table = derived \ suppressed ∪ manual, kept as one set
     plus the derived pairs in the order they appeared. *)
  let effective = Hashtbl.create 1024 in
  let derived_order = Queue.create () in
  let free_r = Queue.create () and free_s = Queue.create () in
  let records = ref [] (* active merge/split records, newest first *) in
  let requests = ref [] and meta = ref [] and row_bytes = ref 0 in
  let emit j kind expected =
    requests := Json.to_string j :: !requests;
    meta := Printf.sprintf "%s\t%d" kind expected :: !meta
  in
  let overlay_pair op (rk, sk) =
    Json.Obj
      [ ("op", jstr op); ("r_key", obj_of r_key rk); ("s_key", obj_of s_key sk) ]
  in
  let derive pair =
    Hashtbl.replace effective pair ();
    Queue.push pair derived_order
  in
  let overlays = ref 0 and reads = ref 0 in
  let overlay () =
    let cycle = !overlays mod 4 in
    incr overlays;
    match cycle with
    | 0 | 2 ->
        if (not (Queue.is_empty free_r)) && not (Queue.is_empty free_s) then begin
          let pair = (Queue.pop free_r, Queue.pop free_s) in
          Hashtbl.replace effective pair ();
          records := `Merge pair :: !records;
          emit (overlay_pair "merge" pair) "merge" (-1)
        end
    | 1 ->
        let rec next () =
          match Queue.take_opt derived_order with
          | Some pair when Hashtbl.mem effective pair -> Some pair
          | Some _ -> next ()
          | None -> None
        in
        Option.iter
          (fun pair ->
            Hashtbl.remove effective pair;
            records := `Split pair :: !records;
            emit (overlay_pair "split" pair) "split" (-1))
          (next ())
    | _ ->
        (match !records with
        | `Merge pair :: rest ->
            Hashtbl.remove effective pair;
            records := rest
        | `Split pair :: rest ->
            Hashtbl.replace effective pair ();
            records := rest
        | [] -> ());
        emit (Json.Obj [ ("op", jstr "rollback") ]) "rollback" (-1)
  in
  let read () =
    incr reads;
    if w.explain_every > 0 && !reads mod w.explain_every = 0 then
      emit (Json.Obj [ ("op", jstr "explain") ]) "explain" (-1)
    else
      emit (Json.Obj [ ("op", jstr "identify") ]) "identify"
        (Hashtbl.length effective)
  in
  List.iteri
    (fun i row ->
      let side, names, values =
        match row with Row_r v -> ("r", r_attrs, v) | Row_s v -> ("s", s_attrs, v)
      in
      let row_json = obj_of names values in
      row_bytes := !row_bytes + String.length (Json.to_string row_json);
      emit
        (Json.Obj [ ("op", jstr "insert"); ("side", jstr side); ("row", row_json) ])
        "insert" (-1);
      (match row with
      | Row_r v -> (
          let rk = r_key_of v in
          Hashtbl.replace inserted_r rk ();
          match Hashtbl.find_opt truth_r rk with
          | Some sk -> if Hashtbl.mem inserted_s sk then derive (rk, sk)
          | None -> Queue.push rk free_r)
      | Row_s v -> (
          let sk = s_key_of v in
          Hashtbl.replace inserted_s sk ();
          match Hashtbl.find_opt truth_s sk with
          | Some rk -> if Hashtbl.mem inserted_r rk then derive (rk, sk)
          | None -> Queue.push sk free_s));
      let n = i + 1 in
      if w.overlay_every > 0 && n mod w.overlay_every = 0 then overlay ();
      if n mod w.read_every = 0 then read ())
    stream;
  emit (Json.Obj [ ("op", jstr "identify") ]) "final" (Hashtbl.length effective);
  write_lines (Filename.concat dir "stream.jsonl") (List.rev !requests);
  write_lines (Filename.concat dir "stream_meta.tsv") (List.rev !meta);
  write_lines
    (Filename.concat dir "serve_final.tsv")
    (List.sort compare
       (Hashtbl.fold
          (fun (rk, sk) () acc -> String.concat "\t" (rk @ sk) :: acc)
          effective []));
  write_lines
    (Filename.concat dir "serve_rules.ilfd")
    (List.map Ilfd.to_string inst.ilfds);
  (List.length inst.ilfds, !row_bytes)

let gen w ~seed dir =
  Fsutil.ensure_dir dir;
  let inst = instance w ~entities:w.batch_entities ~seed:(batch_seed seed) in
  let path = Filename.concat dir in
  R.Csv_io.save inst.r (path "batch_r.csv");
  R.Csv_io.save inst.s (path "batch_s.csv");
  write_lines (path "batch_rules.ilfd") (List.map Ilfd.to_string inst.ilfds);
  write_lines (path "batch_truth.tsv")
    (List.sort compare (List.map truth_line inst.truth));
  write_lines (path "batch.args") (batch_args w);
  write_lines (path "serve.args") (serve_args w);
  let serve_rules, row_bytes = gen_stream w ~seed dir in
  write_file (path "meta.json")
    (Json.to_string
       (Json.Obj
          [
            ("workload", jstr w.name);
            ("seed", Json.Int seed);
            ("batch_r_rows", Json.Int (R.Relation.cardinality inst.r));
            ("batch_s_rows", Json.Int (R.Relation.cardinality inst.s));
            ("batch_rules", Json.Int (List.length inst.ilfds));
            ("serve_rules", Json.Int serve_rules);
            ("row_bytes", Json.Int row_bytes);
            ("host_domains", Json.Int (Domain.recommended_domain_count ()));
          ])
    ^ "\n")

(* ---- trace ---- *)

let now = Unix.gettimeofday

(* Durations (seconds) per span name. Probes are timed like spans but
   their time is also summed so it can be taken out of a part's wall. *)
type acc = { spans : (string, float list) Hashtbl.t; mutable probe_s : float }

let new_acc () = { spans = Hashtbl.create 32; probe_s = 0. }

let record acc name dt =
  Hashtbl.replace acc.spans name
    (dt :: Option.value (Hashtbl.find_opt acc.spans name) ~default:[])

(* Off for the untraced pass, which measures only each part's wall:
   layer calls run bare, probes are skipped and Telemetry is off. *)
let tracing = ref true
let sink () = if !tracing then Telemetry.create () else Telemetry.off

let timed acc name f =
  if not !tracing then f () else
  let t0 = now () in
  let x = f () in
  record acc name (now () -. t0);
  x

let probe acc name f =
  if !tracing then
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  let dt = now () -. t0 in
  record acc name dt;
  acc.probe_s <- acc.probe_s +. dt

let durations acc name = Option.value (Hashtbl.find_opt acc.spans name) ~default:[]
let total acc name = List.fold_left ( +. ) 0. (durations acc name)

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let find_span tele name =
  List.find_opt
    (fun (s : Telemetry.span_stat) -> s.span_name = name)
    (Telemetry.spans tele)

let span_ms tele name =
  match find_span tele name with Some s -> s.total_ms | None -> 0.

let span_mean_ms tele name =
  match find_span tele name with
  | Some s when s.calls > 0 -> s.total_ms /. float_of_int s.calls
  | _ -> 0.

let counter tele name = float_of_int (Telemetry.counter tele name)

(* A part's figures: wall without probes, and how much of it the
   top-level layer calls explain. *)
let coverage part acc ~wall ~top =
  let covered = List.fold_left (fun s n -> s +. total acc n) 0. top in
  if !tracing then
    prerr_endline
      (part ^ " shares: "
      ^ String.concat ", "
          (List.filter_map
             (fun n ->
               let t = total acc n in
               if t > 0. then Some (Printf.sprintf "%s %.1f%%" n (100. *. t /. wall))
               else None)
             top));
  [
    (part ^ ".wall_ms", wall *. 1e3);
    (part ^ ".unattributed_ms", (wall -. covered) *. 1e3);
    (part ^ ".coverage_pct", if wall > 0. then 100. *. covered /. wall else 0.);
  ]

let read_lines path = In_channel.with_open_bin path In_channel.input_lines

(* The CLI's rules-file reader: blank and # lines skipped. *)
let rule_lines path =
  List.filter
    (fun line ->
      let t = String.trim line in
      t <> "" && t.[0] <> '#')
    (read_lines path)

(* The CLI's --stream-format ndjson record writer. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_of_value = function
  | V.Null -> "null"
  | V.Int i -> string_of_int i
  | V.Bool b -> if b then "true" else "false"
  | V.Float f ->
      if Float.is_finite f then Printf.sprintf "%.12g" f
      else "\"" ^ Float.to_string f ^ "\""
  | V.String s -> "\"" ^ json_escape s ^ "\""

let ndjson_record ~r_names ~s_names tr ts =
  let side names t =
    String.concat ","
      (List.mapi
         (fun k name ->
           Printf.sprintf "\"%s\":%s" (json_escape name)
             (json_of_value (Tuple.nth t k)))
         names)
  in
  Printf.sprintf "{\"r\":{%s},\"s\":{%s}}\n" (side r_names tr) (side s_names ts)

let batch_top =
  [ "relational.csv_load"; "io.read_rules"; "ilfd.parse"; "identify.run";
    "identify.stream"; "matching_table.to_relation"; "integrate.table";
    "relational.render"; "verify.check"; "io.write" ]

let batch_pass w dir out =
  let acc = new_acc () and tele = sink () in
  let t0 = now () in
  let load file key =
    timed acc "relational.csv_load" (fun () ->
        R.Csv_io.load ~keys:[ key ] (Filename.concat dir file))
  in
  let r = load "batch_r.csv" r_key in
  let s = load "batch_s.csv" s_key in
  let lines =
    timed acc "io.read_rules" (fun () ->
        rule_lines (Filename.concat dir "batch_rules.ilfd"))
  in
  let ilfds = timed acc "ilfd.parse" (fun () -> List.map Ilfd.parse lines) in
  let key = Entity_id.Extended_key.make w.key in
  (match w.output with
  | Stream { shards; budget } ->
      let names rel =
        R.Schema.names (Entity_id.Identify.extension_schema rel key)
      in
      let r_names = names r and s_names = names s in
      ignore
        (timed acc "identify.stream" (fun () ->
             Fsutil.with_atomic_out
               (Filename.concat out "batch_stream.ndjson")
               (fun oc ->
                 Entity_id.Identify.run_stream ~mode ~jobs:1 ~shards
                   ~mem_budget:budget ~telemetry:tele ~r ~s ~key ~init:0
                   ~f:(fun n tr ts ->
                     output_string oc (ndjson_record ~r_names ~s_names tr ts);
                     n + 1)
                   ilfds)))
  | Show_mt | Show_integrated ->
      let o =
        timed acc "identify.run" (fun () ->
            Entity_id.Identify.run ~mode ~jobs:1 ~telemetry:tele ~r ~s ~key
              ilfds)
      in
      let buf = Buffer.create (1 lsl 20) in
      let table =
        match w.output with
        | Show_mt ->
            let rel =
              timed acc "matching_table.to_relation" (fun () ->
                  Entity_id.Matching_table.to_relation o.matching_table)
            in
            timed acc "relational.render" (fun () ->
                R.Pretty.render ~title:"matching table" rel)
        | _ ->
            let rel =
              timed acc "integrate.table" (fun () ->
                  Entity_id.Integrate.integrated_table ~key o)
            in
            timed acc "relational.render" (fun () ->
                R.Pretty.render ~title:"integrated table" rel)
      in
      Buffer.add_string buf table;
      Buffer.add_char buf '\n';
      let report =
        timed acc "verify.check" (fun () ->
            Entity_id.Verify.check o.matching_table)
      in
      Buffer.add_string buf
        (Format.asprintf "%a@." Entity_id.Verify.pp_report report);
      timed acc "io.write" (fun () ->
          write_file (Filename.concat out "batch.out") (Buffer.contents buf)));
  let wall = now () -. t0 in
  probe acc "ilfd.compile" (fun () -> Ilfd.Apply.compile ilfds);
  let extend_r = span_ms tele "identify.extend_r"
  and extend_s = span_ms tele "identify.extend_s"
  and ilfd_extend = span_ms tele "ilfd.extend" in
  coverage "batch" acc ~wall ~top:batch_top
  @ [
      ("relational.csv_load_ms", total acc "relational.csv_load" *. 1e3);
      ("relational.render_ms", total acc "relational.render" *. 1e3);
      ("ilfd.parse_ms", total acc "ilfd.parse" *. 1e3);
      ("ilfd.compile_ms", total acc "ilfd.compile" *. 1e3);
      ("ilfd.extend_ms", ilfd_extend);
      ("ilfd.rules", float_of_int (List.length ilfds));
      ("ilfd.derivations", counter tele "ilfd.derivations");
      ("ilfd.fixpoint.rounds", counter tele "ilfd.fixpoint.rounds");
      ( "identify.run_ms",
        (total acc "identify.run" +. total acc "identify.stream") *. 1e3 );
      ("identify.extend.self_ms", extend_r +. extend_s -. ilfd_extend);
      ("identify.join_ms", span_ms tele "identify.join");
      ("identify.stream_ms", total acc "identify.stream" *. 1e3);
      ("integrate.table_ms", total acc "integrate.table" *. 1e3);
      ( "matching_table.to_relation_ms",
        total acc "matching_table.to_relation" *. 1e3 );
      ("verify.check_ms", total acc "verify.check" *. 1e3);
      ("identify.pairs", counter tele "identify.pairs");
      ("identify.join.buckets", counter tele "identify.join.buckets");
      ("parallel.sink.spills", counter tele "parallel.sink.spills");
      ( "parallel.shard.spilled_bytes",
        counter tele "parallel.shard.spilled_bytes" );
      ("identify.peak_verdict_bytes", counter tele "identify.peak_verdict_bytes");
    ]

let mutating op = List.mem op [ "insert"; "merge"; "split"; "rollback" ]

let serve_top =
  [ "service.parse"; "service.insert"; "service.identify"; "service.explain";
    "service.overlay"; "store.snapshot"; "service.render";
    "service.render.identify"; "io.write" ]

let handle_name = function
  | "insert" -> "service.insert"
  | "identify" -> "service.identify"
  | "explain" -> "service.explain"
  | "merge" | "split" | "rollback" -> "service.overlay"
  | op -> "service." ^ op

let op_of req = Option.value (Json.string_member "op" req) ~default:""

let parse_request acc line =
  match timed acc "service.parse" (fun () -> Json.parse line) with
  | Ok req -> req
  | Error m -> failwith ("unparsable request: " ^ m)

let open_or_die ?config tele dir =
  match Store.open_store ~telemetry:tele ~sync:true ?config ~dir () with
  | Ok st -> st
  | Error m -> failwith ("open_store: " ^ m)

let serve_pass w dir out =
  let rules = rule_lines (Filename.concat dir "serve_rules.ilfd") in
  let ilfds = List.map Ilfd.parse rules in
  let store_dir = Filename.concat out "store" in
  Fsutil.remove_tree store_dir;
  let acc = new_acc () and tele = sink () in
  let st =
    timed acc "store.create" (fun () ->
        open_or_die ~config:(serve_config w rules) tele store_dir)
  in
  let requests = read_lines (Filename.concat dir "stream.jsonl") in
  let buf = Buffer.create (1 lsl 20) in
  let key = Entity_id.Extended_key.make w.key in
  let since_snapshot = ref 0 and inserts = ref 0 and mutations = ref 0 in
  let t0 = now () in
  List.iteri
    (fun i line ->
      let req = parse_request acc line in
      let op = op_of req in
      if op = "identify" then
        probe acc "store.matching_table" (fun () -> Store.matching_table st);
      let resp = timed acc (handle_name op) (fun () -> Service.handle st req) in
      if mutating op then begin
        incr mutations;
        match w.snapshot_every with
        | Some n ->
            incr since_snapshot;
            if !since_snapshot >= n then begin
              timed acc "store.snapshot" (fun () -> Store.snapshot st);
              since_snapshot := 0
            end
        | None -> ()
      end;
      let render = if op = "identify" then "service.render.identify" else "service.render" in
      let text = timed acc render (fun () -> Json.to_string resp) in
      timed acc "io.write" (fun () ->
          Buffer.add_string buf text;
          Buffer.add_char buf '\n');
      if op = "insert" then begin
        incr inserts;
        if !inserts mod 100 = 0 then begin
          let rel = Entity_id.Incremental.r (Store.incremental st) in
          let schema = R.Relation.schema rel in
          let row =
            Tuple.of_array schema
              [| V.String (Printf.sprintf "probe%d" i); V.String "probe";
                 V.String "probe" |]
          in
          probe acc "relational.add" (fun () -> R.Relation.add rel row);
          let target = Entity_id.Identify.extension_schema rel key in
          let sample = List.hd (R.Relation.tuples rel) in
          probe acc "ilfd.extend_tuple" (fun () ->
              Ilfd.Apply.extend_tuple ~mode schema sample ~target ilfds)
        end
      end)
    requests;
  let wall = now () -. t0 -. acc.probe_s in
  Store.close st;
  write_file (Filename.concat out "stream.out") (Buffer.contents buf);
  let med name = median (durations acc name) in
  let ratio a b = if b > 0. then a /. b else 0. in
  coverage "serve" acc ~wall ~top:serve_top
  @ [
      ("store.create_ms", total acc "store.create" *. 1e3);
      ("service.parse_us", med "service.parse" *. 1e6);
      ("service.insert_us", med "service.insert" *. 1e6);
      ("service.identify_ms", med "service.identify" *. 1e3);
      ("service.explain_ms", med "service.explain" *. 1e3);
      ("service.overlay_us", med "service.overlay" *. 1e6);
      ("service.render_us", med "service.render.identify" *. 1e6);
      ("store.matching_table_ms", med "store.matching_table" *. 1e3);
      ("store.snapshot_ms", med "store.snapshot" *. 1e3);
      ("store.snapshots", counter tele "store.snapshots");
      ( "store.wal.fsyncs_per_op",
        ratio (counter tele "store.wal.fsyncs") (float_of_int !mutations) );
      ( "store.wal.bytes_per_insert",
        ratio (counter tele "store.wal.bytes") (float_of_int !inserts) );
      ("incremental.insert_ms", span_mean_ms tele "incremental.insert");
      ("relational.add_us", med "relational.add" *. 1e6);
      ("ilfd.extend_tuple_us", med "ilfd.extend_tuple" *. 1e6);
    ]

let recovery_top = [ "store.open"; "service.parse"; "service.identify"; "service.render" ]

let recovery_pass out =
  let acc = new_acc () and tele = sink () in
  let t0 = now () in
  let st = timed acc "store.open" (fun () -> open_or_die tele (Filename.concat out "store")) in
  let req = parse_request acc {|{"op":"identify"}|} in
  let resp = timed acc "service.identify" (fun () -> Service.handle st req) in
  let text = timed acc "service.render" (fun () -> Json.to_string resp) in
  let wall = now () -. t0 in
  Store.close st;
  write_file (Filename.concat out "recovery.out") (text ^ "\n");
  coverage "recovery" acc ~wall ~top:recovery_top
  @ [
      ("store.open_ms", total acc "store.open" *. 1e3);
      ("store.recovery.replayed", counter tele "store.recovery.replayed");
    ]

let trace w dir out =
  Fsutil.ensure_dir out;
  let batch = batch_pass w dir out in
  let serve = serve_pass w dir out in
  let metrics = batch @ serve @ recovery_pass out in
  print_endline
    (Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics)))

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref (-1) and dir = ref "" and out = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N workload seed (gen)");
      ("--dir", Arg.Set_string dir, "DIR generated inputs");
      ("--out", Arg.Set_string out, "DIR traced outputs (trace)");
      ( "--untraced",
        Arg.Clear tracing,
        " time only each part's wall (trace), for the tracing overhead" );
    ]
  in
  let cmd = ref "" in
  Arg.parse specs (fun a -> cmd := a) "perfbench (gen|trace) --workload W ...";
  let need name v = if v = "" then (Printf.eprintf "perfbench: %s is required\n" name; exit 2) in
  need "--workload" !workload;
  need "--dir" !dir;
  let w = find_workload !workload in
  match !cmd with
  | "gen" ->
      if !seed < 0 then (prerr_endline "perfbench: gen needs --seed N >= 0"; exit 2);
      gen w ~seed:!seed !dir
  | "trace" ->
      need "--out" !out;
      trace w !dir !out
  | c ->
      Printf.eprintf "perfbench: unknown command %S (gen or trace)\n" c;
      exit 2

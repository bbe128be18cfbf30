module Relation = Relational.Relation
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Value = Relational.Value
module Incremental = Entity_id.Incremental
module Matching_table = Entity_id.Matching_table
module Extended_key = Entity_id.Extended_key
module Explain = Entity_id.Explain

let json_of_value = function
  | Value.Null -> Json.Null
  | Value.Int i -> Json.Int i
  | Value.Float f -> Json.Float f
  | Value.Bool b -> Json.Bool b
  | Value.String s -> Json.String s

let value_of_json = function
  | Json.Null -> Value.Null
  | Json.Bool b -> Value.Bool b
  | Json.Int i -> Value.Int i
  | Json.Float f -> Value.Float f
  | Json.String s -> Value.String s
  | Json.List _ | Json.Obj _ -> Value.Null

(* ---- responses ---- *)

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)

let error kind detail =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ("error", Json.String kind);
      ("detail", Json.String detail);
    ]

exception Bad_request of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_request m)) fmt

(* ---- request field extraction ---- *)

let side_of req =
  match Json.string_member "side" req with
  | Some "r" -> Store.R
  | Some "s" -> Store.S
  | Some other -> bad "side must be \"r\" or \"s\", not %S" other
  | None -> bad "missing \"side\""

(* A row object, laid out positionally against [schema]; absent
   attributes become NULL, unknown attributes are an error (a typo'd
   attribute silently dropped would be a silent data loss). *)
let row_of_json schema j =
  match j with
  | Json.Obj members ->
      let names = Schema.names schema in
      List.iter
        (fun (name, _) ->
          if not (List.mem name names) then
            bad "row attribute %S is not in the schema {%s}" name
              (String.concat ", " names))
        members;
      Array.of_list
        (List.map
           (fun name ->
             match List.assoc_opt name members with
             | Some v -> value_of_json v
             | None -> Value.Null)
           names)
  | _ -> bad "expected an object of attribute values"

let key_of_json attrs field req =
  match Json.member field req with
  | None -> bad "missing %S" field
  | Some (Json.Obj _ as j) ->
      let arr =
        Array.of_list
          (List.map
             (fun name ->
               match Json.member name j with
               | Some v -> value_of_json v
               | None -> bad "%S is missing key attribute %S" field name)
             attrs)
      in
      arr
  | Some _ -> bad "%S must be an object of key attribute values" field

(* ---- rendering store values ---- *)

let obj_of_key attrs arr =
  Json.Obj (List.mapi (fun i name -> (name, json_of_value arr.(i))) attrs)

let json_of_entry ~r_attrs ~s_attrs (e : Matching_table.entry) =
  Json.Obj
    [
      ("r_key", obj_of_key r_attrs (Tuple.to_array e.r_key));
      ("s_key", obj_of_key s_attrs (Tuple.to_array e.s_key));
    ]

let values_list arr = Json.List (Array.to_list (Array.map json_of_value arr))
let strings l = Json.List (List.map (fun s -> Json.String s) l)
let side_str = function Store.R -> "r" | Store.S -> "s"

let json_of_conflict = function
  | Store.Key_violation { side; row; key } ->
      Json.Obj
        [
          ("type", Json.String "key_violation");
          ("side", Json.String (side_str side));
          ("row", values_list row);
          ("key", strings key);
        ]
  | Store.Derivation_conflict { side; row; attribute; first; second; rule } ->
      Json.Obj
        [
          ("type", Json.String "derivation_conflict");
          ("side", Json.String (side_str side));
          ("row", values_list row);
          ("attribute", Json.String attribute);
          ("first", json_of_value first);
          ("second", json_of_value second);
          ("rule", Json.String rule);
        ]
  | Store.Arity_mismatch { side; expected; got } ->
      Json.Obj
        [
          ("type", Json.String "arity_mismatch");
          ("side", Json.String (side_str side));
          ("expected", Json.Int expected);
          ("got", Json.Int got);
        ]
  | Store.Unknown_key { side; key } ->
      Json.Obj
        [
          ("type", Json.String "unknown_key");
          ("side", Json.String (side_str side));
          ("key", values_list key);
        ]
  | Store.Duplicate_merge { r_key; s_key } ->
      Json.Obj
        [
          ("type", Json.String "duplicate_merge");
          ("r_key", values_list r_key);
          ("s_key", values_list s_key);
        ]
  | Store.Merge_uniqueness { r_key; s_key; existing_r; existing_s } ->
      Json.Obj
        [
          ("type", Json.String "merge_uniqueness");
          ("r_key", values_list r_key);
          ("s_key", values_list s_key);
          ("existing_r", values_list existing_r);
          ("existing_s", values_list existing_s);
        ]
  | Store.Unknown_pair { r_key; s_key } ->
      Json.Obj
        [
          ("type", Json.String "unknown_pair");
          ("r_key", values_list r_key);
          ("s_key", values_list s_key);
        ]

let json_of_record (m : Store.merge_record) =
  Json.Obj
    [
      ( "action",
        Json.String
          (match m.action with
          | Store.Merge_pair -> "merge"
          | Store.Split_pair -> "split") );
      ("r_key", values_list m.m_r_key);
      ("s_key", values_list m.m_s_key);
      ("primary", Json.String (side_str m.primary));
      ("rolled_back", Json.Bool m.rolled_back);
    ]

let conflict_response c =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ("error", Json.String "conflict");
      ("conflict", json_of_conflict c);
      ("detail", Json.String (Format.asprintf "%a" Store.pp_conflict c));
    ]

(* ---- the ops ---- *)

let store_keys st =
  let cfg = Store.config st in
  (cfg.Store.r_key, cfg.Store.s_key)

let handle_insert st req =
  let side = side_of req in
  let rel =
    let inc = Store.incremental st in
    match side with
    | Store.R -> Incremental.r inc
    | Store.S -> Incremental.s inc
  in
  let row =
    match Json.member "row" req with
    | Some j -> row_of_json (Relation.schema rel) j
    | None -> bad "missing \"row\""
  in
  match Store.insert st side row with
  | Ok entries ->
      let r_attrs, s_attrs = store_keys st in
      ok [ ("matches", Json.List (List.map (json_of_entry ~r_attrs ~s_attrs) entries)) ]
  | Error c -> conflict_response c

let sorted_entries mt =
  List.sort
    (fun (a : Matching_table.entry) (b : Matching_table.entry) ->
      match Tuple.compare a.r_key b.r_key with
      | 0 -> Tuple.compare a.s_key b.s_key
      | c -> c)
    (Matching_table.entries mt)

let handle_identify st =
  let r_attrs, s_attrs = store_keys st in
  ok
    [
      ( "entries",
        Json.List
          (List.map
             (json_of_entry ~r_attrs ~s_attrs)
             (sorted_entries (Store.matching_table st))) );
    ]

let handle_explain st =
  let cfg = Store.config st in
  let inc = Store.incremental st in
  let mode =
    if cfg.Store.check_conflicts then Ilfd.Apply.Check_conflicts
    else Ilfd.Apply.First_rule
  in
  let explanations =
    Explain.matches ~mode ~r:(Incremental.r inc) ~s:(Incremental.s inc)
      ~key:(Extended_key.make cfg.Store.key)
      (List.map Ilfd.parse cfg.Store.rules)
  in
  ok [ ("report", Json.String (Explain.render explanations)) ]

let handle_merge st req ~op =
  let r_key_attrs, s_key_attrs = store_keys st in
  let r_key = key_of_json r_key_attrs "r_key" req in
  let s_key = key_of_json s_key_attrs "s_key" req in
  let result =
    match op with
    | `Merge -> Store.merge st ~r_key ~s_key
    | `Split -> Store.split st ~r_key ~s_key
  in
  match result with
  | Ok record -> ok [ ("record", json_of_record record) ]
  | Error c -> conflict_response c

let handle_rollback st =
  match Store.rollback st with
  | Some record -> ok [ ("record", json_of_record record) ]
  | None -> ok [ ("record", Json.Null) ]

let handle_stats st =
  let inc = Store.incremental st in
  let telemetry_json =
    (* Telemetry renders itself; re-parse so stats stays one JSON tree. *)
    match Json.parse (Telemetry.to_json (Store.telemetry st)) with
    | Ok j -> j
    | Error _ -> Json.Null
  in
  ok
    [
      ("wal_offset", Json.Int (Store.wal_offset st));
      ("recovered_records", Json.Int (Store.recovered_records st));
      ("r_cardinality", Json.Int (Relation.cardinality (Incremental.r inc)));
      ("s_cardinality", Json.Int (Relation.cardinality (Incremental.s inc)));
      ( "matches",
        Json.Int (Matching_table.cardinality (Store.matching_table st)) );
      ("conflicts", Json.Int (List.length (Store.conflicts st)));
      ("merge_log", Json.Int (List.length (Store.merge_log st)));
      ("telemetry", telemetry_json);
    ]

let handle st req =
  match Json.string_member "op" req with
  | None -> error "bad_request" "missing \"op\""
  | Some op -> (
      try
        match op with
        | "insert" -> handle_insert st req
        | "identify" -> handle_identify st
        | "explain" -> handle_explain st
        | "merge" -> handle_merge st req ~op:`Merge
        | "split" -> handle_merge st req ~op:`Split
        | "rollback" -> handle_rollback st
        | "snapshot" ->
            Store.snapshot st;
            ok []
        | "conflicts" ->
            ok
              [
                ( "conflicts",
                  Json.List (List.map json_of_conflict (Store.conflicts st))
                );
              ]
        | "stats" -> handle_stats st
        | other -> error "unknown_op" (Printf.sprintf "unknown op %S" other)
      with
      | Bad_request m -> error "bad_request" m
      | Ilfd.Apply.Conflict_found c ->
          error "conflict" (Format.asprintf "%a" Ilfd.Apply.pp_conflict c))

let handle_line st line =
  match Json.parse line with
  | Error m -> Json.to_string (error "parse" m)
  | Ok req -> Json.to_string (handle st req)

let serve ?snapshot_every st ic oc =
  (match snapshot_every with
  | Some n when n <= 0 ->
      invalid_arg "Service.serve: snapshot_every must be positive"
  | _ -> ());
  (* Mutating requests since the last snapshot, periodic or explicit. *)
  let since_snapshot = ref 0 in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> (
        (* Clean shutdown: leave nothing for the next open to replay. *)
        match snapshot_every with
        | Some _ when !since_snapshot > 0 -> Store.snapshot st
        | _ -> ())
    | line when String.trim line = "" -> loop ()
    | line ->
        let response =
          match Json.parse line with
          | Error m -> error "parse" m
          | Ok req ->
              let resp = handle st req in
              (match Json.string_member "op" req with
              | Some "snapshot" -> since_snapshot := 0
              | Some ("insert" | "merge" | "split" | "rollback") -> (
                  incr since_snapshot;
                  match snapshot_every with
                  | Some n when !since_snapshot >= n ->
                      Store.snapshot st;
                      since_snapshot := 0
                  | _ -> ())
              | _ -> ());
              resp
        in
        output_string oc (Json.to_string response);
        output_char oc '\n';
        flush oc;
        loop ()
  in
  loop ()

(* Tests for the paper's core contribution: extended keys, the
   three-valued decision function, matching/negative tables with their
   uniqueness and consistency constraints, the Identify pipeline against
   the paper's own tables (2, 3, 4, 5, 6, 7), the integrated table, the
   monotonic engine (Figure 3), the algebraic construction (Section 4.2),
   and the Figure 2 soundness scenario. *)

module R = Relational
module V = R.Value
module E = Entity_id
module PD = Workload.Paper_data
open Helpers

let case name f = Alcotest.test_case name `Quick f

let get schema t a = V.to_string (R.Tuple.get schema t a)

(* ---- Match_result ---- *)

let match_result_tests =
  [
    case "refines lattice" (fun () ->
        let open E.Match_result in
        Alcotest.(check bool) "" true (refines Undetermined Match);
        Alcotest.(check bool) "" true (refines Undetermined No_match);
        Alcotest.(check bool) "" true (refines Match Match);
        Alcotest.(check bool) "" false (refines Match No_match);
        Alcotest.(check bool) "" false (refines No_match Undetermined));
    case "of_truth" (fun () ->
        let open E.Match_result in
        Alcotest.(check bool) "" true (equal (of_truth V.True) Match);
        Alcotest.(check bool) "" true (equal (of_truth V.False) No_match);
        Alcotest.(check bool) "" true
          (equal (of_truth V.Unknown) Undetermined));
  ]

(* ---- Extended_key ---- *)

let extended_key_tests =
  [
    check_raises_any "empty key rejected" (fun () -> E.Extended_key.make []);
    check_raises_any "duplicate attrs rejected" (fun () ->
        E.Extended_key.make [ "a"; "a" ]);
    case "equivalence rule is a valid identity rule" (fun () ->
        let rule =
          E.Extended_key.equivalence_rule (E.Extended_key.make [ "a"; "b" ])
        in
        Alcotest.(check int) "" 2 (List.length rule.Rules.Identity.atoms));
    case "candidate attributes include derivable" (fun () ->
        let cands =
          E.Extended_key.candidate_attributes PD.table5_r PD.table5_s
            PD.ilfds_i1_i8
        in
        Alcotest.(check bool) "name" true (List.mem "name" cands);
        Alcotest.(check bool) "cuisine (derived in S)" true
          (List.mem "cuisine" cands);
        Alcotest.(check bool) "speciality (derived in R)" true
          (List.mem "speciality" cands);
        Alcotest.(check bool) "street is R-only" false
          (List.mem "street" cands));
    case "covers_keys" (fun () ->
        let k = E.Extended_key.make [ "name"; "cuisine"; "speciality" ] in
        Alcotest.(check bool) "" true
          (E.Extended_key.covers_keys k ~r_key:[ "name"; "cuisine" ]
             ~s_key:[ "name"; "speciality" ]);
        Alcotest.(check bool) "" false
          (E.Extended_key.covers_keys k ~r_key:[ "street" ] ~s_key:[]));
    case "is_minimal_for instance" (fun () ->
        let world =
          relation [ "a"; "b"; "c" ] []
            [ [ "1"; "x"; "p" ]; [ "1"; "y"; "q" ]; [ "2"; "x"; "q" ] ]
        in
        Alcotest.(check bool) "ab minimal" true
          (E.Extended_key.is_minimal_for (E.Extended_key.make [ "a"; "b" ])
             world);
        Alcotest.(check bool) "abc not minimal" false
          (E.Extended_key.is_minimal_for
             (E.Extended_key.make [ "a"; "b"; "c" ])
             world));
  ]

(* ---- Decision ---- *)

let decision_tests =
  let schema = R.Schema.of_names [ "name"; "cuisine"; "speciality" ] in
  let tup vals = R.Tuple.make schema (List.map v vals) in
  let ek = E.Extended_key.make [ "name"; "cuisine" ] in
  let identity = [ E.Extended_key.equivalence_rule ek ] in
  let distinctness =
    Ilfd.Props.distinctness_rules_of_ilfd
      (Ilfd.parse "speciality = Mughalai -> cuisine = Indian")
  in
  [
    case "match via identity rule" (fun () ->
        let verdict =
          E.Decision.decide ~identity ~distinctness schema
            (tup [ "A"; "Chinese"; "Hunan" ])
            schema
            (tup [ "A"; "Chinese"; "Hunan" ])
        in
        Alcotest.(check bool) "" true
          (E.Match_result.equal verdict.result E.Match_result.Match);
        Alcotest.(check bool) "witness rule" true
          (Option.is_some verdict.identity));
    case "no-match via distinctness rule" (fun () ->
        let verdict =
          E.Decision.decide ~identity ~distinctness schema
            (tup [ "A"; "Indian"; "Mughalai" ])
            schema
            (tup [ "B"; "Greek"; "Gyros" ])
        in
        Alcotest.(check bool) "" true
          (E.Match_result.equal verdict.result E.Match_result.No_match));
    case "distinctness applies in swapped orientation" (fun () ->
        let verdict =
          E.Decision.decide ~identity ~distinctness schema
            (tup [ "B"; "Greek"; "Gyros" ])
            schema
            (tup [ "A"; "Indian"; "Mughalai" ])
        in
        Alcotest.(check bool) "" true
          (E.Match_result.equal verdict.result E.Match_result.No_match));
    case "undetermined without applicable rule" (fun () ->
        let verdict =
          E.Decision.decide ~identity ~distinctness schema
            (tup [ "A"; "Chinese"; "Hunan" ])
            schema
            (tup [ "B"; "Greek"; "Gyros" ])
        in
        Alcotest.(check bool) "" true
          (E.Match_result.equal verdict.result E.Match_result.Undetermined));
    case "inconsistent rules raise" (fun () ->
        (* An identity rule and a distinctness rule both firing. *)
        let bad_distinct =
          Rules.Distinctness.make ~name:"bad"
            [
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Left "name")
                R.Predicate.Eq
                (Rules.Atom.attr Rules.Atom.Right "name");
            ]
        in
        Alcotest.(check bool) "" true
          (match
             E.Decision.decide ~identity ~distinctness:[ bad_distinct ]
               schema
               (tup [ "A"; "Chinese"; "Hunan" ])
               schema
               (tup [ "A"; "Chinese"; "Hunan" ])
           with
          | _ -> false
          | exception E.Decision.Inconsistent _ -> true));
    case "partition is a partition" (fun () ->
        let r =
          relation [ "name"; "cuisine"; "speciality" ] []
            [ [ "A"; "Chinese"; "Hunan" ]; [ "B"; "Indian"; "Mughalai" ] ]
        in
        let s =
          relation [ "name"; "cuisine"; "speciality" ] []
            [ [ "A"; "Chinese"; "Hunan" ]; [ "C"; "Greek"; "Gyros" ] ]
        in
        let m, d, u =
          listed (E.Decision.partition ~identity ~distinctness r s)
        in
        Alcotest.(check int) "total" 4
          (List.length m + List.length d + List.length u);
        Alcotest.(check int) "matched" 1 (List.length m);
        (* B(Mughalai) is provably distinct from both Chinese A and
           Greek C. *)
        Alcotest.(check int) "distinct" 2 (List.length d));
    case "blocked partition raises Inconsistent like naive" (fun () ->
        let bad_distinct =
          Rules.Distinctness.make ~name:"bad"
            [
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Left "name")
                R.Predicate.Eq
                (Rules.Atom.attr Rules.Atom.Right "name");
            ]
        in
        let rel =
          relation [ "name"; "cuisine"; "speciality" ] []
            [ [ "A"; "Chinese"; "Hunan" ] ]
        in
        let attempt f =
          match f ~identity ~distinctness:[ bad_distinct ] rel rel with
          | _ -> None
          | exception
              E.Decision.Inconsistent { identity = i; distinctness = d } ->
              Some (i.name, d.name)
        in
        let blocked =
          attempt (fun ~identity ~distinctness r s ->
              E.Decision.partition ~identity ~distinctness r s)
        in
        Alcotest.(check bool) "raises" true (Option.is_some blocked);
        Alcotest.(check bool) "same witnesses as naive" true
          (blocked = attempt E.Decision.partition_naive));
    case "no-equality rules fall back to nested loop" (fun () ->
        (* A pure-≠ distinctness rule has no blocking key; the engine
           must still agree with the naive partition on it. *)
        let neq =
          Rules.Distinctness.make ~name:"different-cuisine"
            [
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Left "cuisine")
                R.Predicate.Ne
                (Rules.Atom.attr Rules.Atom.Right "cuisine");
            ]
        in
        Alcotest.(check bool) "blocking key is None" true
          (Rules.Distinctness.blocking_key neq = None);
        let r =
          relation [ "name"; "cuisine"; "speciality" ] []
            [ [ "A"; "Chinese"; "Hunan" ]; [ "B"; "Indian"; "Mughalai" ] ]
        in
        let s =
          relation [ "name"; "cuisine"; "speciality" ] []
            [ [ "A"; "Chinese"; "Hunan" ]; [ "C"; "Greek"; "Gyros" ] ]
        in
        Alcotest.(check bool) "" true
          (listed (E.Decision.partition ~identity ~distinctness:[ neq ] r s)
          = E.Decision.partition_naive ~identity ~distinctness:[ neq ] r s));
    qtest ~count:20 "blocked partition equals naive on random instances"
      (restaurant_gen ())
      (fun inst ->
        (* Randomized extended relations (including NULL keys and
           homonyms) partitioned under both the extended-key identity
           rule and ILFD-induced distinctness rules: all three lists
           must agree element-for-element, in order. *)
        let o = E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds in
        let identity = [ E.Extended_key.equivalence_rule inst.key ] in
        let distinctness =
          E.Negative.distinctness_rules_of_ilfds inst.ilfds
        in
        listed
          (E.Decision.partition ~identity ~distinctness o.r_extended
             o.s_extended)
        = E.Decision.partition_naive ~identity ~distinctness o.r_extended
            o.s_extended);
    qtest ~count:15 "parallel partition equals serial for any jobs"
      (restaurant_gen ())
      (fun inst ->
        (* The executor's contract: identical lists, identical order, for
           every jobs value — including a count that does not divide the
           row count. *)
        let o = E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds in
        let identity = [ E.Extended_key.equivalence_rule inst.key ] in
        let distinctness =
          E.Negative.distinctness_rules_of_ilfds inst.ilfds
        in
        let run jobs =
          listed
            (E.Decision.partition ~jobs ~identity ~distinctness o.r_extended
               o.s_extended)
        in
        let reference = run 1 in
        List.for_all (fun jobs -> run jobs = reference) [ 2; 4; 7 ]);
    qtest ~count:20
      "undetermined is a re-iterable complement with unchanged witnesses"
      QCheck2.Gen.(pair (restaurant_gen ()) bool)
      (fun (inst, conflicting) ->
        (* With [conflicting], a name-equality distinctness rule fires on
           every matched pair, so the partition must raise — from the
           same pair, with the same rules, as the naive scan. Otherwise
           the undetermined sequence must be the naive list, enumerable
           twice, with the complement's length. *)
        let o = E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds in
        let r = o.r_extended and s = o.s_extended in
        let identity = [ E.Extended_key.equivalence_rule inst.key ] in
        let distinctness =
          E.Negative.distinctness_rules_of_ilfds inst.ilfds
          @
          if conflicting then
            [
              Rules.Distinctness.make ~name:"same-name"
                [
                  Rules.Atom.make
                    (Rules.Atom.attr Rules.Atom.Left "name")
                    R.Predicate.Eq
                    (Rules.Atom.attr Rules.Atom.Right "name");
                ];
            ]
          else []
        in
        let attempt f =
          match f () with
          | parts -> Ok parts
          | exception
              E.Decision.Inconsistent { identity = i; distinctness = d } ->
              Error (i.name, d.name)
        in
        (* The Blocking_desync witness under a decision function that
           never raises: the row-major-first pair on which the real
           decision function raises. *)
        let quiet _ _ _ _ =
          {
            E.Decision.result = E.Match_result.Undetermined;
            identity = None;
            distinctness = None;
          }
        in
        let sr = R.Relation.schema r and ss = R.Relation.schema s in
        let first_conflict =
          List.find_map
            (fun tr ->
              List.find_map
                (fun ts ->
                  match
                    E.Decision.decide ~identity ~distinctness sr tr ss ts
                  with
                  | _ -> None
                  | exception E.Decision.Inconsistent _ -> Some (tr, ts))
                (R.Relation.tuples s))
            (R.Relation.tuples r)
        in
        let desync =
          match
            E.Decision.partition ~decide:quiet ~identity ~distinctness r s
          with
          | _ -> None
          | exception E.Decision.Blocking_desync { r_tuple; s_tuple } ->
              Some (r_tuple, s_tuple)
        in
        desync = first_conflict
        &&
        match
          ( attempt (fun () ->
                E.Decision.partition ~identity ~distinctness r s),
            attempt (fun () ->
                E.Decision.partition_naive ~identity ~distinctness r s) )
        with
        | Ok (m, d, u), Ok naive ->
            let pairs =
              R.Relation.cardinality r * R.Relation.cardinality s
            in
            List.of_seq u = List.of_seq u
            && Seq.length u = pairs - List.length m - List.length d
            && (m, d, List.of_seq u) = naive
        | Error w, Error w' -> w = w'
        | _ -> false);
    case "parallel Inconsistent raises from the row-major-first pair"
      (fun () ->
        (* Two conflicting pairs witnessed by different rules: (r0, s0)
           agrees on name only, (r1, s1) on street only. The serial scan
           hits (r0, s0) first, so every jobs value must report the
           name rules — even though with jobs >= 2 another domain owns
           that chunk. *)
        let eq_rule make name attr =
          make ~name
            [
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Left attr)
                R.Predicate.Eq
                (Rules.Atom.attr Rules.Atom.Right attr);
            ]
        in
        let identity =
          [
            eq_rule Rules.Identity.make "i-street" "street";
            eq_rule Rules.Identity.make "i-name" "name";
          ]
        and distinctness =
          [
            eq_rule Rules.Distinctness.make "d-street" "street";
            eq_rule Rules.Distinctness.make "d-name" "name";
          ]
        in
        let r =
          relation [ "name"; "street" ] []
            [ [ "A"; "S1" ]; [ "B"; "S2" ] ]
        and s =
          relation [ "name"; "street" ] []
            [ [ "A"; "X" ]; [ "C"; "S2" ] ]
        in
        let witness jobs =
          match
            E.Decision.partition ~jobs ~identity ~distinctness r s
          with
          | _ -> None
          | exception
              E.Decision.Inconsistent { identity = i; distinctness = d } ->
              Some (i.name, d.name)
        in
        Alcotest.(check (option (pair string string)))
          "serial witness"
          (Some ("i-name", "d-name"))
          (witness 1);
        List.iter
          (fun jobs ->
            Alcotest.(check (option (pair string string)))
              (Printf.sprintf "jobs=%d witness" jobs)
              (witness 1) (witness jobs))
          [ 2; 4; 7 ]);
    case "desynchronised decide raises Blocking_desync (serial arm)"
      (fun () ->
        (* The blocking index says an identity and a distinctness rule
           both fire on the only pair, but the injected decision function
           disagrees and returns Undetermined instead of raising
           Inconsistent — the serial merge must surface the offending
           pair as a Blocking_desync witness rather than die on an
           assertion. *)
        let eq_rule make name attr =
          make ~name
            [
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Left attr)
                R.Predicate.Eq
                (Rules.Atom.attr Rules.Atom.Right attr);
            ]
        in
        let identity = [ eq_rule Rules.Identity.make "i-name" "name" ]
        and distinctness =
          [ eq_rule Rules.Distinctness.make "d-name" "name" ]
        in
        let rel = relation [ "name"; "street" ] [] [ [ "A"; "S1" ] ] in
        let quiet _ _ _ _ =
          {
            E.Decision.result = E.Match_result.Undetermined;
            identity = None;
            distinctness = None;
          }
        in
        let witness = List.hd (R.Relation.tuples rel) in
        match
          E.Decision.partition ~decide:quiet ~identity ~distinctness rel
            rel
        with
        | _ -> Alcotest.fail "Blocking_desync expected"
        | exception E.Decision.Blocking_desync { r_tuple; s_tuple } ->
            Alcotest.(check bool) "r witness" true
              (R.Tuple.equal r_tuple witness);
            Alcotest.(check bool) "s witness" true
              (R.Tuple.equal s_tuple witness));
    case "desynchronised decide raises Blocking_desync (parallel arm)"
      (fun () ->
        (* Same desynchronisation under jobs > 1: the min_conflict
           pre-scan owns the both-fired arm there, and must report the
           row-major-minimal conflicting pair — (r0, s0) on name — for
           every jobs value, with the same witness the serial arm
           reports. *)
        let eq_rule make name attr =
          make ~name
            [
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Left attr)
                R.Predicate.Eq
                (Rules.Atom.attr Rules.Atom.Right attr);
            ]
        in
        let identity =
          [
            eq_rule Rules.Identity.make "i-street" "street";
            eq_rule Rules.Identity.make "i-name" "name";
          ]
        and distinctness =
          [
            eq_rule Rules.Distinctness.make "d-street" "street";
            eq_rule Rules.Distinctness.make "d-name" "name";
          ]
        in
        let r =
          relation [ "name"; "street" ] []
            [ [ "A"; "S1" ]; [ "B"; "S2" ] ]
        and s =
          relation [ "name"; "street" ] []
            [ [ "A"; "X" ]; [ "C"; "S2" ] ]
        in
        let quiet _ _ _ _ =
          {
            E.Decision.result = E.Match_result.Undetermined;
            identity = None;
            distinctness = None;
          }
        in
        let witness jobs =
          match
            E.Decision.partition ~jobs ~decide:quiet ~identity
              ~distinctness r s
          with
          | _ -> None
          | exception E.Decision.Blocking_desync { r_tuple; s_tuple } ->
              Some
                ( R.Tuple.equal r_tuple (List.nth (R.Relation.tuples r) 0),
                  R.Tuple.equal s_tuple (List.nth (R.Relation.tuples s) 0)
                )
        in
        List.iter
          (fun jobs ->
            Alcotest.(check (option (pair bool bool)))
              (Printf.sprintf "jobs=%d row-major-first witness" jobs)
              (Some (true, true))
              (witness jobs))
          [ 1; 2; 4; 7 ]);
  ]

(* ---- Matching_table ---- *)

let ktup names vals =
  R.Tuple.make (R.Schema.of_names names) (List.map v vals)

let entry r s =
  {
    E.Matching_table.r_key = ktup [ "rk" ] [ r ];
    s_key = ktup [ "sk" ] [ s ];
  }

let matching_table_tests =
  [
    case "duplicates collapse" (fun () ->
        let mt =
          E.Matching_table.make ~r_key_attrs:[ "rk" ] ~s_key_attrs:[ "sk" ]
            [ entry "1" "a"; entry "1" "a"; entry "2" "b" ]
        in
        Alcotest.(check int) "" 2 (E.Matching_table.cardinality mt));
    case "add is idempotent" (fun () ->
        let mt =
          E.Matching_table.make ~r_key_attrs:[ "rk" ] ~s_key_attrs:[ "sk" ] []
        in
        let mt = E.Matching_table.add mt (entry "1" "a") in
        let mt = E.Matching_table.add mt (entry "1" "a") in
        Alcotest.(check int) "" 1 (E.Matching_table.cardinality mt));
    case "uniqueness violations on both sides" (fun () ->
        let mt =
          E.Matching_table.make ~r_key_attrs:[ "rk" ] ~s_key_attrs:[ "sk" ]
            [ entry "1" "a"; entry "1" "b"; entry "2" "b" ]
        in
        let vs = E.Matching_table.uniqueness_violations mt in
        Alcotest.(check int) "one per side" 2 (List.length vs);
        Alcotest.(check bool) "" false (E.Matching_table.satisfies_uniqueness mt));
    case "consistency constraint" (fun () ->
        let mt =
          E.Matching_table.make ~r_key_attrs:[ "rk" ] ~s_key_attrs:[ "sk" ]
            [ entry "1" "a" ]
        in
        let nmt_ok =
          E.Matching_table.make ~r_key_attrs:[ "rk" ] ~s_key_attrs:[ "sk" ]
            [ entry "1" "b" ]
        in
        let nmt_bad =
          E.Matching_table.make ~r_key_attrs:[ "rk" ] ~s_key_attrs:[ "sk" ]
            [ entry "1" "a" ]
        in
        Alcotest.(check bool) "" true (E.Matching_table.consistent mt nmt_ok);
        Alcotest.(check bool) "" false (E.Matching_table.consistent mt nmt_bad));
    case "to_relation prefixes and sorts" (fun () ->
        let mt =
          E.Matching_table.make ~r_key_attrs:[ "rk" ] ~s_key_attrs:[ "sk" ]
            [ entry "2" "b"; entry "1" "a" ]
        in
        let rel = E.Matching_table.to_relation mt in
        Alcotest.(check (list string)) "" [ "r_rk"; "s_sk" ]
          (R.Schema.names (R.Relation.schema rel));
        match R.Relation.tuples rel with
        | [ first; _ ] ->
            Alcotest.(check string) "sorted" "1"
              (V.to_string (R.Tuple.nth first 0))
        | _ -> Alcotest.fail "two rows expected");
  ]

(* ---- Identify on the paper's tables ---- *)

let identify_tests =
  [
    qtest ~count:10 "run and run_rules are jobs-invariant"
      (restaurant_gen ~n_entities:12 ())
      (fun inst ->
        let same o (o' : E.Identify.outcome) =
          o.E.Identify.pairs = o'.pairs
          && R.Relation.tuples o.r_extended = R.Relation.tuples o'.r_extended
          && R.Relation.tuples o.s_extended = R.Relation.tuples o'.s_extended
          && E.Matching_table.entries o.matching_table
             = E.Matching_table.entries o'.matching_table
          && o.unmatched_r = o'.unmatched_r
          && o.unmatched_s = o'.unmatched_s
        in
        let run jobs =
          E.Identify.run ~jobs ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds
        in
        let identity = [ E.Extended_key.equivalence_rule inst.key ] in
        let run_rules jobs =
          E.Identify.run_rules ~jobs ~identity ~r:inst.r ~s:inst.s
            ~key:inst.key inst.ilfds
        in
        same (run 1) (run 3)
        && same (run 1) (run 8)
        && same (run_rules 1) (run_rules 3));
    case "Example 2 / Table 3: the TwinCities pair" (fun () ->
        let o =
          E.Identify.run ~r:PD.table2_r ~s:PD.table2_s ~key:PD.example2_key
            [ PD.example2_ilfd ]
        in
        Alcotest.(check int) "" 1
          (E.Matching_table.cardinality o.matching_table);
        match E.Matching_table.entries o.matching_table with
        | [ e ] ->
            Alcotest.(check string) "r name" "TwinCities"
              (V.to_string (R.Tuple.nth e.r_key 0));
            Alcotest.(check string) "r cuisine" "Indian"
              (V.to_string (R.Tuple.nth e.r_key 1))
        | _ -> Alcotest.fail "one entry");
    case "Example 3 / Table 7: three pairs" (fun () ->
        let o =
          E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
            PD.ilfds_i1_i8
        in
        Alcotest.(check int) "" 3
          (E.Matching_table.cardinality o.matching_table);
        Alcotest.(check bool) "verified" true (E.Identify.is_verified o);
        (* Two R tuples keep a NULL speciality (no ILFD derives it for
           TwinCities/Indian or VillageWok/Chinese), so they are excluded
           from K_Ext matching; every S cuisine derives, so S has no
           NULL-key tuples. The other three R tuples all match:
           |MT| = |R| − |unmatched_r|. *)
        Alcotest.(check int) "NULL-key R tuples" 2
          (List.length o.unmatched_r);
        Alcotest.(check int) "NULL-key S tuples" 0
          (List.length o.unmatched_s));
    case "Table 6: extended relations carry derived values" (fun () ->
        let o =
          E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
            PD.ilfds_i1_i8
        in
        let rs = R.Relation.schema o.r_extended in
        let row name cuisine =
          Option.get
            (R.Relation.find_opt
               (fun t ->
                 get rs t "name" = name && get rs t "cuisine" = cuisine)
               o.r_extended)
        in
        Alcotest.(check string) "TwinCities Chinese -> Hunan" "Hunan"
          (get rs (row "TwinCities" "Chinese") "speciality");
        Alcotest.(check string) "It'sGreek -> Gyros via chain" "Gyros"
          (get rs (row "It'sGreek" "Greek") "speciality");
        Alcotest.(check string) "TwinCities Indian stays null" "null"
          (get rs (row "TwinCities" "Indian") "speciality");
        let ss = R.Relation.schema o.s_extended in
        Alcotest.(check bool) "every S cuisine derived" true
          (R.Relation.for_all
             (fun t -> not (V.is_null (R.Tuple.get ss t "cuisine")))
             o.s_extended));
    case "no ILFDs: nothing matches (missing key attrs stay null)" (fun () ->
        let o =
          E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key []
        in
        Alcotest.(check int) "" 0
          (E.Matching_table.cardinality o.matching_table);
        (* With nothing derivable, every tuple misses an extended-key
           attribute, and the outcome accounts for all of them. *)
        Alcotest.(check int) "all R tuples NULL-key"
          (R.Relation.cardinality PD.table5_r)
          (List.length o.unmatched_r);
        Alcotest.(check int) "all S tuples NULL-key"
          (R.Relation.cardinality PD.table5_s)
          (List.length o.unmatched_s));
    case "name-only extended key is unsound on Table 5" (fun () ->
        let o =
          E.Identify.run ~r:PD.table5_r ~s:PD.table5_s
            ~key:(E.Extended_key.make [ "name" ])
            PD.ilfds_i1_i8
        in
        Alcotest.(check bool) "" false (E.Identify.is_verified o);
        Alcotest.(check bool) "" (true)
          (List.length o.violations > 0));
    case "empty relations yield empty table" (fun () ->
        let empty_r =
          R.Relation.empty (R.Schema.of_names [ "name"; "cuisine" ]) ()
        in
        let empty_s =
          R.Relation.empty (R.Schema.of_names [ "name"; "speciality" ]) ()
        in
        let o =
          E.Identify.run ~r:empty_r ~s:empty_s ~key:PD.example3_key
            PD.ilfds_i1_i8
        in
        Alcotest.(check int) "" 0
          (E.Matching_table.cardinality o.matching_table));
    case "extension_schema appends missing key attrs in order" (fun () ->
        let s = E.Identify.extension_schema PD.table5_r PD.example3_key in
        Alcotest.(check (list string)) ""
          [ "name"; "cuisine"; "street"; "speciality" ]
          (R.Schema.names s));
    case "run_rules with extended-key rule equals run" (fun () ->
        let rule = E.Extended_key.equivalence_rule PD.example3_key in
        let via_rules =
          E.Identify.run_rules ~identity:[ rule ] ~r:PD.table5_r
            ~s:PD.table5_s ~key:PD.example3_key PD.ilfds_i1_i8
        in
        let direct =
          E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
            PD.ilfds_i1_i8
        in
        Alcotest.(check bool) "" true
          (mt_entries_equal via_rules.matching_table direct.matching_table));
    case "run_rules accepts extra identity rules (paper's r1 shape)" (fun () ->
        (* A one-Chinese-restaurant-per-database world: cuisine equality
           alone identifies. *)
        let r =
          relation [ "name"; "cuisine" ] [ [ "name" ] ]
            [ [ "WokA"; "Chinese" ] ]
        in
        let s =
          relation [ "name"; "cuisine" ] [ [ "name" ] ]
            [ [ "WokB"; "Chinese" ] ]
        in
        let r1 =
          Rules.Identity.make ~name:"r1"
            [
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Left "cuisine")
                R.Predicate.Eq
                (Rules.Atom.const (v "Chinese"));
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Right "cuisine")
                R.Predicate.Eq
                (Rules.Atom.const (v "Chinese"));
            ]
        in
        let o =
          E.Identify.run_rules ~identity:[ r1 ] ~r ~s
            ~key:(E.Extended_key.make [ "cuisine" ]) []
        in
        Alcotest.(check int) "" 1
          (E.Matching_table.cardinality o.matching_table));
    case "pairs agree with matching table" (fun () ->
        let o =
          E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
            PD.ilfds_i1_i8
        in
        Alcotest.(check int) "" (List.length o.pairs)
          (E.Matching_table.cardinality o.matching_table));
  ]

(* ---- Negative ---- *)

let negative_tests =
  [
    case "Table 4: Example 2's provably-distinct pair" (fun () ->
        (* (TwinCities, Chinese) in R vs (TwinCities, Mughalai) in S:
           Mughalai implies Indian, and Chinese ≠ Indian. *)
        let nmt =
          E.Negative.of_ilfds ~r:PD.table2_r ~s:PD.table2_s
            [ PD.example2_ilfd ]
        in
        Alcotest.(check int) "" 1 (E.Matching_table.cardinality nmt);
        match E.Matching_table.entries nmt with
        | [ e ] ->
            Alcotest.(check string) "" "Chinese"
              (V.to_string (R.Tuple.nth e.r_key 1))
        | _ -> Alcotest.fail "one entry");
    case "MT and NMT are consistent on Example 3" (fun () ->
        let o =
          E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
            PD.ilfds_i1_i8
        in
        let nmt =
          E.Negative.of_ilfds ~r:o.r_extended ~s:o.s_extended PD.ilfds_i1_i8
        in
        Alcotest.(check bool) "" true
          (E.Matching_table.consistent o.matching_table nmt));
    case "prop-1 rules from ilfds skip empty antecedents" (fun () ->
        let rules =
          E.Negative.distinctness_rules_of_ilfds
            [ Ilfd.make [] [ Ilfd.condition "a" (v "x") ] ]
        in
        Alcotest.(check int) "" 0 (List.length rules));
  ]

(* ---- Integrate ---- *)

let integrate_tests =
  [
    case "row count = matches + unmatched both sides" (fun () ->
        let o =
          E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
            PD.ilfds_i1_i8
        in
        let t = E.Integrate.integrated_table ~key:PD.example3_key o in
        (* 3 merged + 2 R-only + 1 S-only = 6 rows, as in the session. *)
        Alcotest.(check int) "" 6 (R.Relation.cardinality t);
        Alcotest.(check int) "unmatched R" 2
          (List.length (E.Integrate.unmatched_r o));
        Alcotest.(check int) "unmatched S" 1
          (List.length (E.Integrate.unmatched_s o)));
    case "column layout: kext blocks first" (fun () ->
        let o =
          E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
            PD.ilfds_i1_i8
        in
        let t = E.Integrate.integrated_table ~key:PD.example3_key o in
        Alcotest.(check (list string)) ""
          [ "r_name"; "r_cuisine"; "r_speciality"; "s_name"; "s_cuisine";
            "s_speciality"; "r_street"; "s_county" ]
          (R.Schema.names (R.Relation.schema t)));
    case "merged rows agree on extended key" (fun () ->
        let o =
          E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
            PD.ilfds_i1_i8
        in
        let t = E.Integrate.integrated_table ~key:PD.example3_key o in
        let schema = R.Relation.schema t in
        R.Relation.iter
          (fun row ->
            let merged =
              (not (V.is_null (R.Tuple.get schema row "r_name")))
              && not (V.is_null (R.Tuple.get schema row "s_name"))
            in
            if merged then
              List.iter
                (fun a ->
                  Alcotest.(check string)
                    a
                    (get schema row ("r_" ^ a))
                    (get schema row ("s_" ^ a)))
                (E.Extended_key.attributes PD.example3_key))
          t);
    case "possibly_same respects non-null conflicts" (fun () ->
        let o =
          E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
            PD.ilfds_i1_i8
        in
        let t = E.Integrate.integrated_table ~key:PD.example3_key o in
        let schema = R.Relation.schema t in
        let rows = R.Relation.tuples t in
        let sichuan =
          List.find (fun r -> get schema r "s_speciality" = "Sichuan") rows
        in
        let twincities_indian =
          List.find
            (fun r ->
              get schema r "r_name" = "TwinCities"
              && get schema r "r_cuisine" = "Indian")
            rows
        in
        let anjuman =
          List.find (fun r -> get schema r "r_name" = "Anjuman") rows
        in
        Alcotest.(check bool) "row compatible with itself" true
          (E.Integrate.possibly_same ~key:PD.example3_key schema sichuan
             sichuan);
        Alcotest.(check bool) "TwinCities-Indian vs Sichuan: cuisines clash"
          false
          (E.Integrate.possibly_same ~key:PD.example3_key schema
             twincities_indian sichuan);
        Alcotest.(check bool) "Anjuman/Sichuan conflict" false
          (E.Integrate.possibly_same ~key:PD.example3_key schema anjuman
             sichuan));
  ]

(* ---- Monotonic (Figure 3) ---- *)

let monotonic_tests =
  [
    case "adding ILFDs is monotone on Example 3" (fun () ->
        let state =
          E.Monotonic.create ~r:PD.table5_r ~s:PD.table5_s
            ~key:PD.example3_key ()
        in
        let rec feed state previous = function
          | [] -> ()
          | ilfd :: rest ->
              let state = E.Monotonic.add_ilfd state ilfd in
              let current = E.Monotonic.snapshot state in
              Alcotest.(check bool) "monotone" true
                (E.Monotonic.monotone_step previous current);
              feed state current rest
        in
        let initial =
          E.Monotonic.snapshot
            (E.Monotonic.create ~r:PD.table5_r ~s:PD.table5_s
               ~key:PD.example3_key ())
        in
        feed state initial PD.ilfds_i1_i8);
    case "snapshot partition sums to total" (fun () ->
        let state =
          E.Monotonic.add_ilfds
            (E.Monotonic.create ~r:PD.table5_r ~s:PD.table5_s
               ~key:PD.example3_key ())
            PD.ilfds_i1_i8
        in
        let snap = E.Monotonic.snapshot state in
        Alcotest.(check int) "" snap.total_pairs
          (E.Matching_table.cardinality snap.matched
          + E.Matching_table.cardinality snap.not_matched
          + snap.undetermined_count);
        Alcotest.(check int) "20 pairs" 20 snap.total_pairs;
        Alcotest.(check int) "3 matched" 3
          (E.Matching_table.cardinality snap.matched));
    qtest ~count:8 "any ILFD prefix chain is monotone (random instances)"
      (restaurant_gen ~n_entities:12 ~null_street_rate:0.0 ())
      (fun inst ->
        let state =
          E.Monotonic.create ~r:inst.r ~s:inst.s ~key:inst.key ()
        in
        let rec monotone state previous = function
          | [] -> true
          | ilfd :: rest ->
              let state = E.Monotonic.add_ilfd state ilfd in
              let snap = E.Monotonic.snapshot state in
              E.Monotonic.monotone_step previous snap
              && monotone state snap rest
        in
        (* A prefix of the rule set, in generation order. *)
        let prefix =
          List.filteri (fun i _ -> i mod 2 = 0) inst.ilfds
        in
        monotone state (E.Monotonic.snapshot state) prefix);
    case "user distinctness rules join the negative side" (fun () ->
        let rule =
          Rules.Distinctness.make ~name:"never"
            [
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Left "name")
                R.Predicate.Eq
                (Rules.Atom.const (v "VillageWok"));
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Right "name")
                R.Predicate.Ne
                (Rules.Atom.const (v "VillageWok"));
            ]
        in
        let state =
          E.Monotonic.add_distinctness
            (E.Monotonic.create ~r:PD.table5_r ~s:PD.table5_s
               ~key:PD.example3_key ())
            rule
        in
        let snap = E.Monotonic.snapshot state in
        (* VillageWok in R vs all 4 S tuples (none named VillageWok). *)
        Alcotest.(check int) "" 4
          (E.Matching_table.cardinality snap.not_matched));
  ]

(* ---- Algebraic (Section 4.2 / Figure 4) ---- *)

let algebraic_tests =
  [
    case "agrees with engine on Example 2" (fun () ->
        let o =
          E.Identify.run ~r:PD.table2_r ~s:PD.table2_s ~key:PD.example2_key
            [ PD.example2_ilfd ]
        in
        let plan =
          E.Algebraic.run ~r:PD.table2_r ~s:PD.table2_s ~key:PD.example2_key
            [ PD.example2_ilfd ]
        in
        Alcotest.(check bool) "" true (E.Algebraic.agrees plan o));
    case "agrees with engine on Example 3 (needs saturation)" (fun () ->
        let o =
          E.Identify.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
            PD.ilfds_i1_i8
        in
        let plan =
          E.Algebraic.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
            PD.ilfds_i1_i8
        in
        Alcotest.(check bool) "" true (E.Algebraic.agrees plan o));
    case "r_prime matches Table 6 contents" (fun () ->
        let plan =
          E.Algebraic.run ~r:PD.table5_r ~s:PD.table5_s ~key:PD.example3_key
            PD.ilfds_i1_i8
        in
        let schema = R.Relation.schema plan.r_prime in
        let gyros =
          R.Relation.find_opt
            (fun t -> get schema t "name" = "It'sGreek")
            plan.r_prime
        in
        match gyros with
        | Some t ->
            Alcotest.(check string) "" "Gyros" (get schema t "speciality")
        | None -> Alcotest.fail "It'sGreek row missing");
    case "agrees on chain workloads (depth 3)" (fun () ->
        let inst =
          Workload.Chain.generate
            { Workload.Chain.default with n_entities = 12; depth = 3 }
        in
        let o =
          E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds
        in
        let plan =
          E.Algebraic.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds
        in
        Alcotest.(check bool) "" true (E.Algebraic.agrees plan o));
    qtest ~count:10 "agrees on random restaurant instances"
      (restaurant_gen ~n_entities:25 ~null_street_rate:0.0 ())
      (fun inst ->
        let o =
          E.Identify.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds
        in
        let plan =
          E.Algebraic.run ~r:inst.r ~s:inst.s ~key:inst.key inst.ilfds
        in
        E.Algebraic.agrees plan o);
  ]

(* ---- Verify & Figure 2 ---- *)

let verify_tests =
  [
    case "check flags unsound tables" (fun () ->
        let mt =
          E.Matching_table.make ~r_key_attrs:[ "rk" ] ~s_key_attrs:[ "sk" ]
            [ entry "1" "a"; entry "1" "b" ]
        in
        let report = E.Verify.check mt in
        Alcotest.(check bool) "" false
          (E.Verify.is_sound_wrt_constraints report));
    case "against_truth counts" (fun () ->
        let mt =
          E.Matching_table.make ~r_key_attrs:[ "rk" ] ~s_key_attrs:[ "sk" ]
            [ entry "1" "a"; entry "2" "wrong" ]
        in
        let truth = [ entry "1" "a"; entry "3" "missed" ] in
        let c = E.Verify.against_truth ~truth mt in
        Alcotest.(check int) "tm" 1 c.true_matches;
        Alcotest.(check int) "fm" 1 c.false_matches;
        Alcotest.(check int) "miss" 1 c.missed_matches;
        Alcotest.(check bool) "" false (E.Verify.sound_wrt_truth c));
    case "Figure 2: identical attributes, different entities" (fun () ->
        (* Without a domain attribute, attribute-value equivalence
           declares r1 ≡ s1 — unsound w.r.t. the integrated world where
           they are different restaurants (different streets). *)
        let naive =
          Baselines.Key_equiv.run_on_attributes ~attrs:[ "name"; "cuisine" ]
            PD.figure2_r PD.figure2_s
        in
        Alcotest.(check int) "naive matches the pair" 1
          (E.Matching_table.cardinality naive);
        let truth = [] in
        let c = E.Verify.against_truth ~truth naive in
        Alcotest.(check bool) "soundness violated" false
          (E.Verify.sound_wrt_truth c);
        (* With the domain attribute the pair becomes distinguishable:
           a distinctness rule on the domains blocks the match. *)
        let r_tagged =
          E.Verify.add_domain_attribute "domain" (v "DB1") PD.figure2_r
        in
        let s_tagged =
          E.Verify.add_domain_attribute "domain" (v "DB2") PD.figure2_s
        in
        let domain_rule =
          Rules.Distinctness.make ~name:"different subsets"
            [
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Left "domain")
                R.Predicate.Eq
                (Rules.Atom.const (v "DB1"));
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Right "domain")
                R.Predicate.Eq
                (Rules.Atom.const (v "DB2"));
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Left "name")
                R.Predicate.Eq
                (Rules.Atom.attr Rules.Atom.Right "name");
            ]
        in
        let nmt = E.Negative.of_rules ~r:r_tagged ~s:s_tagged [ domain_rule ] in
        Alcotest.(check int) "pair now provably distinct" 1
          (E.Matching_table.cardinality nmt));
    case "add_domain_attribute widens schema" (fun () ->
        let tagged =
          E.Verify.add_domain_attribute "domain" (v "DB1") PD.figure2_r
        in
        Alcotest.(check bool) "" true
          (R.Schema.mem (R.Relation.schema tagged) "domain"));
  ]

let () =
  Alcotest.run "entity_id"
    [
      ("match-result", match_result_tests);
      ("extended-key", extended_key_tests);
      ("decision", decision_tests);
      ("matching-table", matching_table_tests);
      ("identify", identify_tests);
      ("negative", negative_tests);
      ("integrate", integrate_tests);
      ("monotonic", monotonic_tests);
      ("algebraic", algebraic_tests);
      ("verify", verify_tests);
    ]

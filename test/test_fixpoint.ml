(* Tests for the compiled semi-naive ILFD fixpoint: byte-identical
   agreement with the per-tuple recursive engine across generated
   scenarios (including conflicting-rule corruptions), exactness of
   First_rule semantics under stratification, the recursive fallback on
   cyclic families, the intern pool's match-class contract, and the
   covering-bucket blocking short-cut. *)

module R = Relational
module V = R.Value
module E = Entity_id
open Helpers

let case name f = Alcotest.test_case name `Quick f

let extension_agrees (sc : Checker.Scenario.t) rel =
  let target = E.Identify.extension_schema rel sc.key in
  let fixpoint = Ilfd.Apply.extend_relation rel ~target sc.ilfds in
  let recursive = Ilfd.Apply.extend_relation_recursive rel ~target sc.ilfds in
  R.Relation.equal fixpoint recursive

let agreement_tests =
  [
    case "fixpoint = recursive on generated scenarios" (fun () ->
        (* The scenario generator covers the interesting terrain: NULLed
           attributes, typos, homonyms, duplicate injection, swapped
           fields and — crucially — appended conflicting ILFDs, where
           naive round-based chasing diverges from first-rule-wins
           unless stratification restores the recursive order. *)
        for seed = 1 to 40 do
          let sc = Checker.Scenario.generate ~seed in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d R agrees" seed)
            true (extension_agrees sc sc.r);
          Alcotest.(check bool)
            (Printf.sprintf "seed %d S agrees" seed)
            true (extension_agrees sc sc.s)
        done);
    case "first-rule wins across strata under conflicting rules" (fun () ->
        (* a has two rules that disagree when both fire: b=1 -> a=1
           (needs derived b) and c=1 -> a=2 (fires on a base fact). A
           naive chase assigns a=2 in round one, before b exists; the
           recursive engine derives b first and takes a=1. The evaluator
           must reproduce the recursive answer. *)
        let ilfds =
          [
            Ilfd.make1 [ Ilfd.condition "b" (vi 1) ] "a" (vi 1);
            Ilfd.make1 [ Ilfd.condition "c" (vi 1) ] "a" (vi 2);
            Ilfd.make1 [ Ilfd.condition "c" (vi 1) ] "b" (vi 1);
          ]
        in
        let r =
          R.Relation.create (R.Schema.of_names [ "id"; "c" ]) ~keys:[ [ "id" ] ]
            [ [ vi 7; vi 1 ] ]
        in
        let target =
          R.Schema.concat (R.Relation.schema r) (R.Schema.of_names [ "a"; "b" ])
        in
        Alcotest.(check bool)
          "family compiles" true
          (Ilfd.Fixpoint.supported ~source:(R.Relation.schema r) ~target ilfds);
        let out = Ilfd.Apply.extend_relation r ~target ilfds in
        let a = R.Tuple.get target (List.hd (R.Relation.tuples out)) "a" in
        Alcotest.(check bool) "a = 1 (recursive answer)" true
          (V.equal a (vi 1));
        Alcotest.(check bool) "byte-identical to recursive" true
          (R.Relation.equal out
             (Ilfd.Apply.extend_relation_recursive r ~target ilfds)));
    case "cyclic families fall back and still agree" (fun () ->
        let ilfds =
          [
            Ilfd.make1 [ Ilfd.condition "a" (vi 1) ] "b" (vi 1);
            Ilfd.make1 [ Ilfd.condition "b" (vi 1) ] "a" (vi 1);
          ]
        in
        let r =
          R.Relation.create (R.Schema.of_names [ "id"; "a" ]) ~keys:[ [ "id" ] ]
            [ [ vi 1; vi 1 ]; [ vi 2; V.null ] ]
        in
        let target =
          R.Schema.concat (R.Relation.schema r) (R.Schema.of_names [ "b" ])
        in
        Alcotest.(check bool)
          "not supported" false
          (Ilfd.Fixpoint.supported ~source:(R.Relation.schema r) ~target ilfds);
        Alcotest.(check bool) "fallback agrees" true
          (R.Relation.equal
             (Ilfd.Apply.extend_relation r ~target ilfds)
             (Ilfd.Apply.extend_relation_recursive r ~target ilfds)));
    case "ambiguous numeric rule values disqualify the plan" (fun () ->
        (* 2^53 + 1 has no exact float partner: hash matching on a
           canonical representative is unsound there, so the family
           must take the recursive path (and still agree). *)
        let big = 9007199254740993 in
        let ilfds =
          [ Ilfd.make1 [ Ilfd.condition "n" (vi big) ] "flag" (v "big") ]
        in
        let r =
          R.Relation.create (R.Schema.of_names [ "id"; "n" ]) ~keys:[ [ "id" ] ]
            [ [ vi 1; vi big ]; [ vi 2; vi 3 ] ]
        in
        let target =
          R.Schema.concat (R.Relation.schema r) (R.Schema.of_names [ "flag" ])
        in
        Alcotest.(check bool)
          "not supported" false
          (Ilfd.Fixpoint.supported ~source:(R.Relation.schema r) ~target ilfds);
        Alcotest.(check bool) "fallback agrees" true
          (R.Relation.equal
             (Ilfd.Apply.extend_relation r ~target ilfds)
             (Ilfd.Apply.extend_relation_recursive r ~target ilfds)));
  ]

let intern_tests =
  [
    case "codes round-trip and share structure" (fun () ->
        let vs =
          [
            v "Hunan";
            vi 42;
            V.null;
            V.bool true;
            V.float 2.5;
            v "";
          ]
        in
        List.iter
          (fun x ->
            let c = R.Intern.code x in
            Alcotest.(check bool) "round-trip" true
              (V.equal (R.Intern.value c) x);
            Alcotest.(check int) "stable code" c (R.Intern.code x);
            Alcotest.(check bool) "share is equal" true
              (V.equal (R.Intern.share x) x))
          vs;
        Alcotest.(check int) "NULL is code 0" R.Intern.null_code
          (R.Intern.code V.null));
    case "match codes equate cross-type numeric identity" (fun () ->
        let i = R.Intern.code (vi 3) and f = R.Intern.code (V.float 3.0) in
        Alcotest.(check bool) "distinct storage" true (i <> f);
        Alcotest.(check int) "one match class" (R.Intern.match_code i)
          (R.Intern.match_code f);
        Alcotest.(check bool) "codes_match" true (R.Intern.codes_match i f);
        let g = R.Intern.code (V.float 3.5) in
        Alcotest.(check bool) "3 <> 3.5" false (R.Intern.codes_match i g);
        Alcotest.(check bool) "NULL never matches" false
          (R.Intern.codes_match R.Intern.null_code R.Intern.null_code));
    case "ambiguous magnitudes carry the unsafe sentinel" (fun () ->
        let big = R.Intern.code (vi 9007199254740993) in
        Alcotest.(check int) "unsafe" R.Intern.unsafe_match
          (R.Intern.match_code big);
        (* codes_match must then defer to non_null_eq, which is exact. *)
        Alcotest.(check bool) "still equal to itself" true
          (R.Intern.codes_match big big);
        let bigf = R.Intern.code (V.float 9007199254740994.0) in
        Alcotest.(check bool) "9007199254740993 <> 9007199254740994." false
          (R.Intern.codes_match big bigf));
  ]

(* ---- covering buckets ---- *)

let pair_equal (a1, b1) (a2, b2) = R.Tuple.equal a1 a2 && R.Tuple.equal b1 b2
let pairs_equal = List.equal pair_equal

let covering_tests =
  [
    case "equality-only rules are their own blocking key" (fun () ->
        let rule = Rules.Identity.of_attribute_equalities ~name:"ek" [ "n"; "c" ] in
        Alcotest.(check bool) "equality_only" true
          (Rules.Identity.equality_only rule);
        let mixed =
          Rules.Identity.make ~name:"mixed"
            [
              Rules.Atom.eq_attrs "n";
              Rules.Atom.make
                (Rules.Atom.attr Rules.Atom.Left "n")
                R.Predicate.Eq (Rules.Atom.const (v "x"));
            ]
        in
        Alcotest.(check bool) "constant atom disqualifies" false
          (Rules.Identity.equality_only mixed));
    case "covering partition = naive partition on dirty data" (fun () ->
        (* Duplicates share buckets; NULLs never bucket; the covering
           short-cut must reproduce the nested loop exactly on both. *)
        let rows =
          [
            [ "a"; "1" ]; [ "a"; "1" ]; [ "b"; "2" ]; [ "c"; "1" ];
          ]
        in
        let with_null schema rows =
          R.Relation.of_tuples schema
            (R.Tuple.make schema [ v "a"; V.null ]
            :: List.map (fun cells -> R.Tuple.make schema (List.map v cells))
                 rows)
        in
        let schema = R.Schema.of_names [ "n"; "c" ] in
        let r = with_null schema rows
        and s = with_null schema (List.tl rows) in
        let identity =
          [ Rules.Identity.of_attribute_equalities ~name:"ek" [ "n"; "c" ] ]
        in
        let fast =
          listed (E.Decision.partition ~identity ~distinctness:[] r s)
        and naive = E.Decision.partition_naive ~identity ~distinctness:[] r s in
        let (m1, d1, u1) = fast and (m2, d2, u2) = naive in
        Alcotest.(check bool) "matched" true (pairs_equal m1 m2);
        Alcotest.(check bool) "distinct" true (pairs_equal d1 d2);
        Alcotest.(check bool) "undetermined" true (pairs_equal u1 u2));
  ]

(* ---- per-class fallback and its desync witness ---- *)

(* A plan the compiler supports (safe rule values), over data whose base
   cells carry an integer above 2^53 — the cross-type identity of such
   numerics is ambiguous under interning, so the class holding that row
   must take the per-tuple recursive fallback rather than the compiled
   chase. *)
let fallback_scenario () =
  let huge = 9007199254740993 (* 2^53 + 1 *) in
  let ilfds = [ Ilfd.make1 [ Ilfd.condition "n" (vi 1) ] "flag" (v "one") ] in
  let schema = R.Schema.of_names [ "id"; "n" ] in
  let r =
    R.Relation.of_tuples schema
      [
        R.Tuple.make schema [ vi 1; vi 1 ];
        R.Tuple.make schema [ vi 2; vi huge ];
      ]
  in
  let target = R.Schema.of_names [ "id"; "n"; "flag" ] in
  (huge, ilfds, r, target)

let fallback_tests =
  [
    case "ambiguous base cells take the per-class fallback" (fun () ->
        let _, ilfds, r, target = fallback_scenario () in
        Alcotest.(check bool) "plan supported" true
          (Ilfd.Fixpoint.supported ~source:(R.Relation.schema r) ~target
             ilfds);
        let telemetry = Telemetry.create () in
        let out = Ilfd.Apply.extend_relation ~telemetry r ~target ilfds in
        Alcotest.(check bool) "fallback classes counted" true
          (Telemetry.counter telemetry "ilfd.fixpoint.fallback_classes" > 0);
        let recursive =
          Ilfd.Apply.extend_relation_recursive r ~target ilfds
        in
        Alcotest.(check bool) "agrees with recursive" true
          (R.Relation.equal out recursive));
    case "fallback conflict raises a typed desync witness" (fun () ->
        (* The fallback runs in First_rule mode, where conflicts are
           impossible; if one ever surfaces it must arrive as
           Fallback_desync with the offending tuple inside, not as an
           anonymous assertion failure. Exercised via the injection
           hook. *)
        let huge, ilfds, r, target = fallback_scenario () in
        let injected =
          {
            Ilfd.Apply.attribute = "flag";
            first = v "one";
            second = v "two";
            rule = List.hd ilfds;
          }
        in
        Fun.protect
          ~finally:(fun () ->
            Ilfd.Fixpoint.inject_fallback_conflict := fun _ -> None)
          (fun () ->
            (Ilfd.Fixpoint.inject_fallback_conflict :=
               fun t ->
                 if V.equal (R.Tuple.nth t 1) (vi huge) then Some injected
                 else None);
            match Ilfd.Apply.extend_relation r ~target ilfds with
            | _ -> Alcotest.fail "expected Fallback_desync"
            | exception Ilfd.Fixpoint.Fallback_desync { tuple; conflict } ->
                Alcotest.(check bool) "witness tuple" true
                  (V.equal (R.Tuple.nth tuple 1) (vi huge));
                Alcotest.(check string) "witness attribute" "flag"
                  conflict.attribute);
        (* The hook is restored: the same evaluation succeeds again. *)
        ignore (Ilfd.Apply.extend_relation r ~target ilfds));
  ]

(* ---- telemetry contract ---- *)

let counter_tests =
  [
    case "restaurant family chases in two rounds" (fun () ->
        (* speciality <- (name, street) and county <- street sit in
           stratum 1; cuisine <- speciality in stratum 2. *)
        let inst =
          Workload.Restaurant.generate
            { Workload.Restaurant.default with n_entities = 30; seed = 11 }
        in
        let target = E.Identify.extension_schema inst.r inst.key in
        let telemetry = Telemetry.create () in
        ignore
          (Ilfd.Apply.extend_relation ~telemetry inst.r ~target inst.ilfds);
        let c = Telemetry.counter telemetry in
        Alcotest.(check int) "rounds" 2 (c "ilfd.fixpoint.rounds");
        Alcotest.(check bool) "classes <= tuples" true
          (c "ilfd.fixpoint.classes" <= c "ilfd.tuples");
        Alcotest.(check int) "no fallback classes" 0
          (c "ilfd.fixpoint.fallback_classes"));
    case "fixpoint counters are jobs-invariant" (fun () ->
        let inst =
          Workload.Restaurant.generate
            { Workload.Restaurant.default with n_entities = 30; seed = 11 }
        in
        let target = E.Identify.extension_schema inst.r inst.key in
        let run jobs =
          let telemetry = Telemetry.create () in
          let out =
            Ilfd.Apply.extend_relation ~jobs ~telemetry inst.r ~target
              inst.ilfds
          in
          (Telemetry.counters_stable telemetry, out)
        in
        let c1, o1 = run 1 and c3, o3 = run 3 in
        Alcotest.(check (list (pair string int))) "jobs 1 = jobs 3" c1 c3;
        Alcotest.(check bool) "same rows" true (R.Relation.equal o1 o3));
  ]

let () =
  Alcotest.run "fixpoint"
    [
      ("agreement", agreement_tests);
      ("intern", intern_tests);
      ("covering", covering_tests);
      ("fallback", fallback_tests);
      ("counters", counter_tests);
    ]

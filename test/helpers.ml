(* Shared test utilities: generators, relation builders, comparators. *)

module R = Relational

let v = R.Value.string
let vi = R.Value.int

let relation names keys rows =
  R.Relation.create (R.Schema.of_names names) ~keys
    (List.map (List.map v) rows)

(* A tiny pool of symbols for random propositional/ILFD structures; small
   alphabets make collisions (the interesting cases) likely. *)
let symbol_gen = QCheck2.Gen.oneofl [ "p"; "q"; "r"; "s"; "t"; "u" ]

let symbol_set_gen =
  QCheck2.Gen.(map Proplogic.Symbol.set_of_list (list_size (1 -- 3) symbol_gen))

let clause_gen =
  QCheck2.Gen.(
    map2
      (fun a c -> Proplogic.Clause.of_sets a c)
      symbol_set_gen symbol_set_gen)

let clauses_gen = QCheck2.Gen.(list_size (0 -- 6) clause_gen)

(* Random ILFDs over a small attribute/value alphabet. *)
let attr_gen = QCheck2.Gen.oneofl [ "a"; "b"; "c"; "d" ]
let value_gen = QCheck2.Gen.oneofl [ "x"; "y"; "z" ]

let condition_gen =
  QCheck2.Gen.(
    map2 (fun a w -> Ilfd.condition a (v w)) attr_gen value_gen)

(* Conditions with distinct attributes (Ilfd.make rejects conflicts). *)
let conditions_gen n =
  QCheck2.Gen.(
    let* conds = list_size (1 -- n) condition_gen in
    let distinct =
      List.fold_left
        (fun acc (c : Ilfd.condition) ->
          if
            List.exists
              (fun (d : Ilfd.condition) ->
                String.equal d.attribute c.attribute)
              acc
          then acc
          else c :: acc)
        [] conds
    in
    return (List.rev distinct))

let ilfd_gen =
  QCheck2.Gen.(
    let* ante = conditions_gen 2 in
    let* cons = conditions_gen 1 in
    (* Avoid ante/cons clashing on an attribute with different values. *)
    let cons =
      List.filter
        (fun (c : Ilfd.condition) ->
          not
            (List.exists
               (fun (a : Ilfd.condition) ->
                 String.equal a.attribute c.attribute
                 && not (R.Value.equal a.value c.value))
               ante))
        cons
    in
    match cons with
    | [] -> return (Ilfd.make ante [ Ilfd.condition "e" (v "x") ])
    | _ -> return (Ilfd.make ante cons))

let ilfds_gen = QCheck2.Gen.(list_size (0 -- 6) ilfd_gen)

(* ---- shared workload / relational generators ----

   QCheck2 generators carry integrated shrinking, so properties built on
   these report reduced counterexamples for free: instance generators
   shrink the seed toward 0 (a smaller, still-replayable instance
   parameter), and tuple/relation/entry generators shrink structurally
   (shorter row lists, earlier alphabet values). *)

(* Scenario seeds for deterministic random-instance properties. *)
let seed_gen = QCheck2.Gen.int_range 0 10_000

(* A bounded restaurant instance — the workhorse of the randomized
   engine-agreement properties that used to inline this expression. *)
let restaurant_gen ?(n_entities = 15) ?(homonym_rate = 0.2)
    ?(null_street_rate = 0.2) ?(typo_rate = 0.0) () =
  QCheck2.Gen.map
    (fun seed ->
      Workload.Restaurant.generate
        {
          Workload.Restaurant.default with
          n_entities;
          homonym_rate;
          null_street_rate;
          typo_rate;
          seed;
        })
    seed_gen

(* Random tuples over a small named schema; NULL appears at a 1-in-5
   rate (the interesting case for key projection and non_null_eq). *)
let tuple_gen names =
  let schema = R.Schema.of_names names in
  let cell =
    QCheck2.Gen.(
      frequency
        [ (4, map v (oneofl [ "x"; "y"; "z" ])); (1, return R.Value.null) ])
  in
  QCheck2.Gen.(
    map
      (fun vs -> R.Tuple.make schema vs)
      (flatten_l (List.map (fun _ -> cell) names)))

(* Random relations with no declared key: set semantics make any row
   list valid, so list shrinking applies directly. *)
let relation_gen ?(max_rows = 8) names =
  let schema = R.Schema.of_names names in
  QCheck2.Gen.(
    map
      (fun rows -> R.Relation.of_tuples schema rows)
      (list_size (0 -- max_rows) (tuple_gen names)))

(* Matching-table entries over one-attribute keys, small alphabets on
   both sides so uniqueness collisions are likely. *)
let entry_gen =
  let key_schema = R.Schema.of_names [ "k" ] in
  QCheck2.Gen.(
    map2
      (fun a b ->
        {
          Entity_id.Matching_table.r_key = R.Tuple.make key_schema [ v a ];
          s_key = R.Tuple.make key_schema [ v b ];
        })
      (oneofl [ "a"; "b"; "c"; "d" ])
      (oneofl [ "1"; "2"; "3"; "4" ]))

let entries_gen = QCheck2.Gen.(list_size (0 -- 10) entry_gen)

let mt_entries_equal a b =
  Entity_id.Matching_table.cardinality a
  = Entity_id.Matching_table.cardinality b
  && List.for_all
       (Entity_id.Matching_table.mem a)
       (Entity_id.Matching_table.entries b)

(* A {!Entity_id.Decision.partition} result with its undetermined
   sequence enumerated — comparable with [=] and with
   [partition_naive]'s lists. *)
let listed (m, d, u) = (m, d, List.of_seq u)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

let check_raises_any name f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with
      | _ -> Alcotest.fail "expected an exception"
      | exception _ -> ())

(* Differential and determinism tests for the morsel-driven parallel engine
   (Gopt_exec.Parallel, reached through [Engine.run ~workers]).

   The core claims under test:

   1. Worker-count invisibility — for any plan, [run ~workers:1] and
      [run ~workers:4] produce BYTE-IDENTICAL output (same rows, same
      order, same float bit patterns), because morsel partitioning depends
      only on (plan, graph, morsel_size) and every merge point folds
      partials in morsel-index order.

   2. Agreement with the sequential engines — the parallel result is the
      same bag of rows as [Engine.run_materialized] (and hence the
      pipelined sequential engine, which test_exec already checks against
      it). Plans that cut at possibly-tied boundaries (LIMIT / SKIP /
      fused top-k) may legitimately keep a different subset of tied rows,
      so those queries compare by cardinality instead.

   Claims are exercised on ~220 randomly generated Cypher queries
   (see [Gen_query]; failures print the seed and the query so runs can be
   replayed), on the full LDBC workload suite, and on a repeated-run
   determinism check cycling through worker counts. *)

module Engine = Gopt_exec.Engine
module Batch = Gopt_exec.Batch
module Rval = Gopt_exec.Rval
module Op_trace = Gopt_exec.Op_trace
module G = Gopt_graph.Property_graph
module Value = Gopt_graph.Value
module Prng = Gopt_util.Prng
open Fixtures

let session = lazy (Gopt.Session.create big_graph)

(* One differential check: workers:1 vs workers:4 byte-identical (at the
   given pipelined chunk granularity), the row-interpreter path
   byte-identical to the kernels, then all against the materialized oracle
   (bag equality, or cardinality when the plan cuts on possibly-tied
   boundaries). *)
let check_one ?chunk_size ~name ~g physical =
  let b1, _ = Engine.run ?chunk_size ~workers:1 ~morsel_size:16 g physical in
  let b4, s4 = Engine.run ?chunk_size ~workers:4 ~morsel_size:16 g physical in
  Alcotest.(check string) (name ^ ": workers 1 = workers 4") (render g b1) (render g b4);
  Alcotest.(check bool) (name ^ ": parallel trace present") true (s4.Engine.op_trace <> None);
  let b_nv, _ =
    Engine.run ?chunk_size ~workers:4 ~morsel_size:16 ~vectorize:false g physical
  in
  Alcotest.(check string) (name ^ ": vectorize off = on") (render g b4) (render g b_nv);
  let b_mat, _ = Engine.run_materialized g physical in
  Alcotest.(check (list string))
    (name ^ ": fields vs oracle") (Batch.fields b_mat) (Batch.fields b4);
  if plan_has_tie_cut physical then
    Alcotest.(check int) (name ^ ": rows vs oracle") (Batch.n_rows b_mat) (Batch.n_rows b4)
  else
    Alcotest.(check bool)
      (name ^ ": same bag as oracle")
      true
      (List.equal (List.equal Rval.equal) (canon_rows b_mat) (canon_rows b4))

(* satellite 1: ~220 random queries through the full pipeline *)
let n_random = 220

let test_random_differential () =
  let s = Lazy.force session in
  (* cycle the pipelined chunk granularity across seeds: every third query
     runs at a pathological chunk size (1 or 7) instead of the default *)
  let chunk_sizes = [| 1; 7; 1024 |] in
  for seed = 0 to n_random - 1 do
    let q = Gen_query.generate seed in
    let chunk_size = chunk_sizes.(seed mod 3) in
    match Gopt.plan_cypher s q with
    | physical, _ -> (
      try
        check_one ~chunk_size
          ~name:(Printf.sprintf "seed %d (chunk=%d)" seed chunk_size)
          ~g:big_graph physical
      with e ->
        (* attach the reproduction recipe: the seed and the exact query *)
        Alcotest.failf "seed %d: %s\nquery:\n  %s" seed (Printexc.to_string e) q)
    | exception e ->
      Alcotest.failf "seed %d failed to plan (%s); query:\n  %s" seed
        (Printexc.to_string e) q
  done

(* satellite 1 (workload half): the full LDBC workload suite at workers=4
   matches workers=1 exactly, and the oracle up to tie cuts *)
module Queries = Gopt_workloads.Queries

let test_workload_differential () =
  let g = Gopt_workloads.Ldbc.generate ~persons:60 () in
  let s = Gopt.Session.create g in
  List.iter
    (fun (q : Queries.query) ->
      let physical, _ = Gopt.plan_cypher s q.Queries.cypher in
      let b_mat, _ = Engine.run_materialized g physical in
      List.iter
        (fun chunk_size ->
          let name = Printf.sprintf "%s (chunk=%d)" q.Queries.name chunk_size in
          let b1, _ = Engine.run ~chunk_size ~workers:1 ~morsel_size:32 g physical in
          let b4, _ = Engine.run ~chunk_size ~workers:4 ~morsel_size:32 g physical in
          Alcotest.(check string)
            (name ^ ": workers 1 = workers 4")
            (render g b1) (render g b4);
          let b_nv, _ =
            Engine.run ~chunk_size ~workers:4 ~morsel_size:32 ~vectorize:false g
              physical
          in
          Alcotest.(check string) (name ^ ": vectorize off = on") (render g b4)
            (render g b_nv);
          Alcotest.(check (list string))
            (name ^ ": fields vs oracle")
            (Batch.fields b_mat) (Batch.fields b4);
          if plan_has_tie_cut physical then
            Alcotest.(check int)
              (name ^ ": rows vs oracle")
              (Batch.n_rows b_mat) (Batch.n_rows b4)
          else
            Alcotest.(check bool)
              (name ^ ": same bag as oracle")
              true
              (List.equal (List.equal Rval.equal) (canon_rows b_mat) (canon_rows b4)))
        [ 1; 7; 1024 ])
    (Queries.comprehensive @ Queries.qr @ Queries.qt @ Queries.qc)

(* satellite 4: repeated runs with different worker counts are byte-identical —
   including LIMIT + ORDER BY (tie-cutting top-k) and top-level aggregation
   (float-summing merge), the two places nondeterminism would show first *)
let determinism_queries =
  [
    "MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN q.name AS n, count(*) AS c \
     ORDER BY c DESC, n ASC LIMIT 8";
    "MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN count(*) AS c, sum(p.age) AS s, \
     avg(q.age) AS a";
    "MATCH (p:Person) RETURN p.age AS a, collect(p.name) AS ns ORDER BY a ASC LIMIT 5";
  ]

let test_determinism () =
  let s = Lazy.force session in
  List.iter
    (fun q ->
      let physical, _ = Gopt.plan_cypher s q in
      let reference =
        render big_graph (fst (Engine.run ~workers:1 ~morsel_size:16 big_graph physical))
      in
      List.iteri
        (fun i w ->
          let out =
            render big_graph
              (fst (Engine.run ~workers:w ~morsel_size:16 big_graph physical))
          in
          Alcotest.(check string) (Printf.sprintf "%s: run %d (workers=%d)" q i w)
            reference out)
        [ 1; 2; 3; 4; 8; 2; 4; 8; 3; 1 ])
    determinism_queries

(* exchange accounting: workers_used is recorded, exchange rows are counted,
   and they feed comm_rows only under a parallel profile *)
let test_parallel_accounting () =
  let s = Lazy.force session in
  let physical, _ =
    Gopt.plan_cypher s "MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN count(*) AS c"
  in
  let _, gs =
    Engine.run ~profile:Engine.graphscope_profile ~workers:3 ~morsel_size:16 big_graph
      physical
  in
  Alcotest.(check int) "workers_used" 3 gs.Engine.workers_used;
  Alcotest.(check bool) "exchange rows counted" true (gs.Engine.exchange_rows > 0);
  Alcotest.(check bool)
    (Printf.sprintf "exchange (%d rows) charged to comm (%d rows)"
       gs.Engine.exchange_rows gs.Engine.comm_rows)
    true
    (gs.Engine.comm_rows >= gs.Engine.exchange_rows);
  (match gs.Engine.op_trace with
  | None -> Alcotest.fail "no trace on parallel run"
  | Some tr ->
    let txt = Op_trace.to_string tr in
    let contains needle hay =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "trace has exchange node" true (contains "exchange[" txt);
    Alcotest.(check bool) "trace has worker rollups" true (contains "worker " txt));
  let _, n4 =
    Engine.run ~profile:Engine.neo4j_profile ~workers:3 ~morsel_size:16 big_graph
      physical
  in
  Alcotest.(check bool) "neo4j profile still records exchange" true
    (n4.Engine.exchange_rows > 0);
  Alcotest.(check int) "neo4j profile charges no comm" 0 n4.Engine.comm_rows

(* the generator itself: deterministic in the seed, and every query it emits
   is clean under the static checker *)
let test_generator_deterministic () =
  for seed = 0 to 49 do
    Alcotest.(check string)
      (Printf.sprintf "seed %d stable" seed)
      (Gen_query.generate seed) (Gen_query.generate seed)
  done

let test_generator_clean () =
  let s = Lazy.force session in
  for seed = 0 to n_random - 1 do
    let q = Gen_query.generate seed in
    (* unused-binding warnings are expected — random projections rarely touch
       every pattern variable — but any static ERROR means the generator
       emitted an ill-formed query *)
    match Gopt_check.Diagnostic.errors (Gopt.check_cypher s q) with
    | [] -> ()
    | errs ->
      Alcotest.failf "seed %d: generator emitted an erroneous query:\n  %s\n%s" seed q
        (Gopt.render_diagnostics errs)
  done

(* --- PatternProbe: adjacency probes vs the semi/anti hash join ----------- *)

module Planner = Gopt_opt.Planner
module Physical = Gopt_opt.Physical

let without_probe =
  let c = Planner.default_config () in
  {
    c with
    Planner.rules = List.filter (fun r -> r.Gopt_opt.Rule.name <> "PatternProbe") c.Planner.rules;
  }

let rec has_pattern_join (p : Physical.t) =
  match p with
  | Physical.Hash_join { kind = Gopt_gir.Logical.(Semi | Anti); _ } -> true
  | Physical.Scan _ | Physical.Common_ref _ | Physical.Empty _ -> false
  | Physical.Expand_all (x, _)
  | Physical.Expand_into (x, _)
  | Physical.Expand_intersect (x, _)
  | Physical.Path_expand (x, _)
  | Physical.Select (x, _)
  | Physical.Project (x, _)
  | Physical.Group (x, _, _)
  | Physical.Order (x, _, _)
  | Physical.Limit (x, _)
  | Physical.Skip (x, _)
  | Physical.Unfold (x, _, _)
  | Physical.Dedup (x, _)
  | Physical.All_distinct (x, _) -> has_pattern_join x
  | Physical.Hash_join { left; right; _ } | Physical.Union (left, right) ->
    has_pattern_join left || has_pattern_join right
  | Physical.With_common { common; left; right; _ } ->
    has_pattern_join common || has_pattern_join left || has_pattern_join right

(* The query planned with and without PatternProbe; the probe plan, at
   workers 1 and 4 and chunk sizes 1, 7 and 1024, must give the bag of rows
   the hash-join plan gives on the materialized oracle (the row count only
   when a plan cuts at a possibly-tied LIMIT). Returns whether the rule
   fired. *)
let check_probe ~name s q =
  let g = Gopt.Session.graph s in
  let probe, _ = Gopt.plan_cypher s q in
  let join, _ = Gopt.plan_cypher ~config:without_probe s q in
  let oracle, _ = Engine.run_materialized g join in
  let tie_cut = plan_has_tie_cut probe || plan_has_tie_cut join in
  let agree what b =
    Alcotest.(check (list string))
      (name ^ ": fields, " ^ what)
      (Batch.fields oracle) (Batch.fields b);
    if tie_cut then
      Alcotest.(check int) (name ^ ": rows, " ^ what) (Batch.n_rows oracle) (Batch.n_rows b)
    else
      Alcotest.(check bool) (name ^ ": same bag, " ^ what) true
        (List.equal (List.equal Rval.equal) (canon_rows oracle) (canon_rows b))
  in
  agree "probe plan on the oracle" (fst (Engine.run_materialized g probe));
  List.iter
    (fun chunk_size ->
      List.iter
        (fun workers ->
          agree
            (Printf.sprintf "workers=%d chunk=%d" workers chunk_size)
            (fst (Engine.run ~chunk_size ~workers ~morsel_size:16 g probe)))
        [ 1; 4 ])
    [ 1; 7; 1024 ];
  not (has_pattern_join probe)

let test_probe_named () =
  let fixture = Lazy.force session in
  let ldbc = Gopt.Session.create (Gopt_workloads.Ldbc.generate ~persons:60 ()) in
  let workload name = (Queries.find Queries.comprehensive name).Queries.cypher in
  List.iter
    (fun (name, s, q) ->
      Alcotest.(check bool) (name ^ ": rule fired") true (check_probe ~name s q))
    [
      ("IC10", ldbc, workload "IC10");
      ("BI11", ldbc, workload "BI11");
      ( "anti, directed",
        fixture,
        "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE NOT (b)-[:KNOWS]->(a) RETURN count(*) AS c" );
      ( "semi, undirected",
        fixture,
        "MATCH (a:Person)-[:LIVES_IN]->(c:City)<-[:LIVES_IN]-(b:Person) WHERE (a)-[:KNOWS]-(b) \
         RETURN a.name AS x, b.name AS y" );
      ( "multi-type, undirected",
        ldbc,
        "MATCH (p:Person)-[:KNOWS]-(f:Person)<-[:HAS_CREATOR]-(m:Post) \
         WHERE NOT (p)-[:LIKES|HAS_CREATOR]-(m) RETURN p.id AS pid, count(m) AS c" );
      ( "optional endpoint",
        fixture,
        "MATCH (a:Person) OPTIONAL MATCH (a)-[:KNOWS]->(b:Person) \
         WHERE NOT (b)-[:KNOWS]->(a) RETURN a.name AS x, b.name AS y" );
      ( "optional endpoint, semi",
        fixture,
        "MATCH (a:Person) OPTIONAL MATCH (a)-[:PURCHASED]->(g:Product) \
         WHERE (a)-[:PURCHASED|KNOWS]-(g) RETURN a.name AS x, g.name AS y" );
    ]

(* the seeded pattern-predicate batch; the rule must fire on a fair share *)
let n_pattern_predicates = 60

let test_probe_random () =
  let s = Lazy.force session in
  let fired = ref 0 in
  for seed = 0 to n_pattern_predicates - 1 do
    let q = Gen_query.generate_pattern_predicate seed in
    match check_probe ~name:(Printf.sprintf "seed %d" seed) s q with
    | true -> incr fired
    | false -> ()
    | exception e -> Alcotest.failf "seed %d: %s\nquery:\n  %s" seed (Printexc.to_string e) q
  done;
  Alcotest.(check bool)
    (Printf.sprintf "rule fired on %d of %d" !fired n_pattern_predicates)
    true
    (!fired >= n_pattern_predicates / 3)

let test_probe_generator_clean () =
  let s = Lazy.force session in
  for seed = 0 to n_pattern_predicates - 1 do
    let q = Gen_query.generate_pattern_predicate seed in
    Alcotest.(check string) (Printf.sprintf "seed %d stable" seed) q
      (Gen_query.generate_pattern_predicate seed);
    match Gopt_check.Diagnostic.errors (Gopt.check_cypher s q) with
    | [] -> ()
    | errs ->
      Alcotest.failf "seed %d: generator emitted an erroneous query:\n  %s\n%s" seed q
        (Gopt.render_diagnostics errs)
  done

let () =
  Alcotest.run "parallel"
    [
      ( "differential",
        [
          Alcotest.test_case "random queries (220 seeds)" `Quick test_random_differential;
          Alcotest.test_case "workload suite" `Quick test_workload_differential;
        ] );
      ( "determinism",
        [ Alcotest.test_case "10 runs, varying workers" `Quick test_determinism ] );
      ( "accounting",
        [ Alcotest.test_case "exchange stats and trace" `Quick test_parallel_accounting ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "statically clean" `Quick test_generator_clean;
        ] );
      ( "pattern probe",
        [
          Alcotest.test_case "named pattern predicates" `Quick test_probe_named;
          Alcotest.test_case "random pattern predicates (60 seeds)" `Quick test_probe_random;
          Alcotest.test_case "generator: stable and clean" `Quick test_probe_generator_clean;
        ] );
    ]

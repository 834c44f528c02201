(* The experiment harness: regenerates every table and figure of the paper's
   evaluation (Section 8). See DESIGN.md for the experiment index and
   EXPERIMENTS.md for recorded paper-vs-measured outcomes.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig8a fig11  # selected experiments
   Scale knobs: GOPT_BENCH_PERSONS (default 1200), GOPT_BENCH_BUDGET (10s). *)

module H = Harness
module Engine = Gopt_exec.Engine
module Batch = Gopt_exec.Batch
module Planner = Gopt_opt.Planner
module Physical = Gopt_opt.Physical
module Spec = Gopt_opt.Physical_spec
module Baselines = Gopt_opt.Baselines
module Cbo = Gopt_opt.Cbo
module Path_planner = Gopt_opt.Path_planner
module Queries = Gopt_workloads.Queries
module Ldbc = Gopt_workloads.Ldbc
module Tg = Gopt_workloads.Transfer_graph
module Pattern = Gopt_pattern.Pattern
module Tc = Gopt_pattern.Type_constraint
module Expr = Gopt_pattern.Expr
module Value = Gopt_graph.Value
module Gq = Gopt_glogue.Glogue_query
module Ti = Gopt_typeinf.Type_inference

(* ------------------------------------------------------------- Table 1 -- *)

let table1 () =
  H.print_table ~title:"Table 1: capabilities of the implemented planners"
    ~header:[ "Planner"; "Lang."; "Opt."; "WcoJoin"; "H.Stats"; "T.Infer" ]
    [
      [ "Neo4j (CypherPlanner baseline)"; "Cypher"; "RBO/CBO"; "no"; "no"; "no" ];
      [ "GraphScope (native RBO baseline)"; "Gremlin"; "RBO"; "yes"; "no"; "no" ];
      [ "GOpt"; "Cypher+Gremlin"; "RBO/CBO"; "yes"; "yes"; "yes" ];
    ];
  print_endline
    "(The rows reproduce the paper's Table 1 for the three planner behaviours\n\
     implemented in this repository; GLogS is subsumed by GOpt's CBO.)"

(* ------------------------------------------------------------- Table 3 -- *)

let table3 () =
  let rows =
    List.map
      (fun (name, persons) ->
        let g = Ldbc.generate ~persons () in
        let v = Gopt_graph.Property_graph.n_vertices g in
        let e = Gopt_graph.Property_graph.n_edges g in
        (* rough in-memory footprint: ids + CSR + property cells *)
        let bytes = (v * 48) + (e * 72) in
        [
          name;
          string_of_int persons;
          string_of_int v;
          string_of_int e;
          Printf.sprintf "%.1f MB" (float_of_int bytes /. 1048576.0);
        ])
      Ldbc.scale_ladder
  in
  H.print_table ~title:"Table 3: the generated dataset ladder (stands in for G30..G1000)"
    ~header:[ "Graph"; "persons"; "|V|"; "|E|"; "approx size" ]
    rows

(* -------------------------------------------------------------- Fig 8a -- *)

(* Heuristic rules on/off. Following the paper, CBO and type inference are
   disabled so only the rule under test varies; queries carry explicit
   types. *)
let fig8a_config ~field_trim ~rules =
  {
    Planner.spec = Spec.graphscope;
    enable_rbo = true;
    rules;
    enable_field_trim = field_trim;
    enable_type_inference = false;
    inference_schema = None;
    enable_cbo = false;
    cbo_options = Cbo.default_options;
    check_plans = false;
  }

let fig8a () =
  let session = H.ldbc_session H.bench_persons in
  let base_rules = Gopt_opt.Rules_relational.all in
  let all_pattern = Gopt_opt.Rules_pattern.all in
  let without name = List.filter (fun r -> r.Gopt_opt.Rule.name <> name) all_pattern in
  let rows =
    List.map
      (fun (q : Queries.query) ->
        let rule = Option.get q.Queries.rule in
        let with_c, without_c =
          if rule = "FieldTrim" then
            ( fig8a_config ~field_trim:true ~rules:(all_pattern @ base_rules),
              fig8a_config ~field_trim:false ~rules:(all_pattern @ base_rules) )
          else
            ( fig8a_config ~field_trim:false ~rules:(all_pattern @ base_rules),
              fig8a_config ~field_trim:false ~rules:(without rule @ base_rules) )
        in
        let on = H.run_cypher session with_c q.Queries.cypher in
        let off = H.run_cypher session without_c q.Queries.cypher in
        ( (off, on),
          [
            q.Queries.name;
            rule;
            H.fmt_time off;
            H.fmt_time on;
            H.fmt_speedup ~base:off ~opt:on;
          ] ))
      Queries.qr
  in
  H.print_table ~title:"Fig 8(a): heuristic rules on/off (GraphScope profile, CBO disabled)"
    ~header:[ "query"; "rule"; "without (s)"; "with (s)"; "speedup" ]
    (List.map snd rows);
  H.summarize_speedups "heuristic rules" (List.map fst rows)

(* -------------------------------------------------------------- Fig 8b -- *)

let fig8b () =
  let session = H.ldbc_session H.bench_persons in
  (* isolate the technique: rule-based execution in the user-given order,
     with and without the type checker (the paper's controlled setup) *)
  let on_c =
    { (Baselines.gopt_config Spec.graphscope) with Planner.enable_cbo = false }
  in
  let off_c = { on_c with Planner.enable_type_inference = false } in
  let rows =
    List.map
      (fun (q : Queries.query) ->
        let on = H.run_cypher session on_c q.Queries.cypher in
        let off = H.run_cypher session off_c q.Queries.cypher in
        ( (off, on),
          [
            q.Queries.name;
            H.fmt_time off;
            H.fmt_time on;
            H.fmt_speedup ~base:off ~opt:on;
            (match off.H.stats, on.H.stats with
            | Some o, Some n ->
              Printf.sprintf "%d -> %d" o.Engine.intermediate_rows n.Engine.intermediate_rows
            | _ -> "-");
          ] ))
      Queries.qt
  in
  H.print_table
    ~title:"Fig 8(b): type inference on/off (queries without explicit types)"
    ~header:[ "query"; "off (s)"; "on (s)"; "speedup"; "intermediate rows" ]
    (List.map snd rows);
  H.summarize_speedups "type inference" (List.map fst rows)

(* -------------------------------------------------------------- Fig 8c -- *)

let qc_pattern session name =
  let q = Queries.find Queries.qc name in
  Queries.pattern_of_cypher (Gopt.Session.schema session) q.Queries.cypher

let count_plan phys =
  Physical.Group
    ( phys,
      [],
      [ { Gopt_gir.Logical.agg_fn = Gopt_gir.Logical.Count; agg_arg = None; agg_alias = "c" } ] )

let fig8c () =
  let session = H.ldbc_session H.bench_persons in
  let graph = Gopt.Session.graph session in
  let gq = Gopt.Session.estimator session in
  let rows = ref [] in
  let all_pairs = ref [] in
  List.iter
    (fun name ->
      let p = qc_pattern session name in
      let gopt_plan, _ = Cbo.optimize gq Spec.graphscope p in
      let gopt = H.run_phys graph (count_plan (Cbo.to_physical Spec.graphscope gopt_plan)) in
      let neo_cost_spec = Baselines.gopt_neo_cost_config.Planner.spec in
      let neo_plan, _ = Cbo.optimize gq neo_cost_spec p in
      let gopt_neo = H.run_phys graph (count_plan (Cbo.to_physical neo_cost_spec neo_plan)) in
      let rng = Gopt_util.Prng.create 1234 in
      let randoms =
        List.init 10 (fun _ ->
            let phys, _ = Baselines.random_plan rng Spec.graphscope p in
            H.run_phys graph (count_plan phys))
      in
      let finite = List.filter (fun r -> not (H.is_ot r)) randoms in
      let rand_ot = List.length randoms - List.length finite in
      let rand_avg =
        if finite = [] then H.ot
        else
          {
            H.rows = 0;
            cpu =
              List.fold_left (fun a r -> a +. r.H.cpu) 0.0 finite
              /. float_of_int (List.length finite);
            sim =
              List.fold_left (fun a r -> a +. r.H.sim) 0.0 finite
              /. float_of_int (List.length finite);
            stats = None;
          }
      in
      let rand_best =
        List.fold_left
          (fun acc r -> if r.H.sim < acc.H.sim then r else acc)
          (match finite with x :: _ -> x | [] -> H.ot)
          finite
      in
      all_pairs := (gopt_neo, gopt) :: !all_pairs;
      rows :=
        [
          name;
          H.fmt_time gopt;
          H.fmt_time gopt_neo;
          H.fmt_time rand_best;
          H.fmt_time rand_avg;
          string_of_int rand_ot;
          H.fmt_speedup ~base:gopt_neo ~opt:gopt;
          H.fmt_speedup ~base:rand_avg ~opt:gopt;
        ]
        :: !rows)
    [ "QC1a"; "QC1b"; "QC2a"; "QC2b"; "QC3a"; "QC3b"; "QC4a"; "QC4b" ];
  H.print_table
    ~title:"Fig 8(c): CBO plan quality — GOpt vs GOpt-Neo-cost vs 10 random plans"
    ~header:
      [
        "query"; "GOpt (s)"; "GOpt-Neo (s)"; "rand best"; "rand avg"; "rand OT"; "vs Neo-cost";
        "vs rand avg";
      ]
    (List.rev !rows);
  H.summarize_speedups "backend-specific cost model (vs mismatched)" !all_pairs

(* -------------------------------------------------------------- Fig 8d -- *)

let fig8d () =
  let session = H.ldbc_session H.bench_persons in
  let graph = Gopt.Session.graph session in
  let hi = Gopt.Session.estimator session in
  let lo = Gopt.Session.low_order_estimator session in
  let rows = ref [] and pairs = ref [] in
  List.iter
    (fun name ->
      let p = qc_pattern session name in
      let hi_plan, _ = Cbo.optimize hi Spec.graphscope p in
      let lo_plan, _ = Cbo.optimize lo Spec.graphscope p in
      let hi_run = H.run_phys graph (count_plan (Cbo.to_physical Spec.graphscope hi_plan)) in
      let lo_run = H.run_phys graph (count_plan (Cbo.to_physical Spec.graphscope lo_plan)) in
      let same_order = Cbo.plan_order hi_plan = Cbo.plan_order lo_plan in
      pairs := (lo_run, hi_run) :: !pairs;
      rows :=
        [
          name;
          H.fmt_time lo_run;
          H.fmt_time hi_run;
          H.fmt_speedup ~base:lo_run ~opt:hi_run;
          (if same_order then "same" else "different");
        ]
        :: !rows)
    [ "QC1a"; "QC1b"; "QC2a"; "QC2b"; "QC3a"; "QC3b"; "QC4a"; "QC4b" ];
  H.print_table
    ~title:"Fig 8(d): high-order vs low-order statistics for CBO"
    ~header:[ "query"; "low-order (s)"; "high-order (s)"; "speedup"; "plan order" ]
    (List.rev !rows);
  H.summarize_speedups "high-order statistics" !pairs

(* -------------------------------------------------------------- Fig 8e -- *)

let fig8e () =
  let session = H.ldbc_session H.bench_persons in
  let gs_plan = Baselines.gs_rbo_config in
  let gopt = Baselines.gopt_config Spec.graphscope in
  let queries =
    List.filter (fun (q : Queries.query) -> q.Queries.gremlin <> None) (Queries.qr @ Queries.qc)
  in
  let rows =
    List.map
      (fun (q : Queries.query) ->
        let src = Option.get q.Queries.gremlin in
        let base = H.run_gremlin session gs_plan src in
        let opt = H.run_gremlin session gopt src in
        ( (base, opt),
          [ q.Queries.name; H.fmt_time base; H.fmt_time opt; H.fmt_speedup ~base ~opt ] ))
      queries
  in
  H.print_table
    ~title:"Fig 8(e): Gremlin queries — GS-plan (native RBO) vs GOpt-plan"
    ~header:[ "query"; "GS-plan (s)"; "GOpt-plan (s)"; "speedup" ]
    (List.map snd rows);
  H.summarize_speedups "GOpt over GraphScope's native RBO" (List.map fst rows)

(* ------------------------------------------------------------ Fig 9a/b -- *)

let fig9 ~spec ~profile ~title () =
  let session = H.ldbc_session H.bench_persons in
  (* the CypherPlanner baseline plans with low-order statistics only *)
  let neo_plan_of query =
    Planner.plan Baselines.cypher_planner_config
      (Gopt.Session.low_order_estimator session)
      (Gopt.cypher_to_gir session query)
  in
  (* GOpt registers the executing backend's PhysicalSpec (the plans for the
     two backends differ, paper Section 8.1) *)
  let gopt_config = Baselines.gopt_config spec in
  let graph = Gopt.Session.graph session in
  let rows =
    List.map
      (fun (q : Queries.query) ->
        let neo_phys, _ = neo_plan_of q.Queries.cypher in
        let base = H.run_phys ~profile graph neo_phys in
        let gopt_phys, _ = Gopt.plan_cypher ~config:gopt_config session q.Queries.cypher in
        let opt = H.run_phys ~profile graph gopt_phys in
        ( (base, opt),
          [ q.Queries.name; H.fmt_time base; H.fmt_time opt; H.fmt_speedup ~base ~opt ] ))
      Queries.comprehensive
  in
  H.print_table ~title ~header:[ "query"; "Neo4j-plan (s)"; "GOpt-plan (s)"; "speedup" ]
    (List.map snd rows);
  H.summarize_speedups "GOpt over CypherPlanner" (List.map fst rows)

let fig9a =
  fig9 ~spec:Spec.neo4j ~profile:Engine.neo4j_profile
    ~title:"Fig 9(a): Neo4j-plan vs GOpt-plan, executed on the Neo4j profile"

let fig9b =
  fig9 ~spec:Spec.graphscope ~profile:Engine.graphscope_profile
    ~title:"Fig 9(b): Neo4j-plan vs GOpt-plan, executed on the GraphScope profile"

(* ------------------------------------------------------------- Fig 10 -- *)

let fig10 ~queries ~title () =
  let sessions =
    List.map (fun (name, persons) -> (name, H.ldbc_session persons)) Ldbc.scale_ladder
  in
  let config = Baselines.gopt_config Spec.graphscope in
  let per_query =
    List.map
      (fun (q : Queries.query) ->
        let times = List.map (fun (_, s) -> H.run_cypher s config q.Queries.cypher) sessions in
        (q.Queries.name, times))
      queries
  in
  let header = ("query" :: List.map fst sessions) @ [ "S4/S1" ] in
  let rows =
    List.map
      (fun (name, times) ->
        let first = List.hd times and last = List.nth times (List.length times - 1) in
        let degradation =
          if H.is_ot first || H.is_ot last || first.H.sim <= 0.0 then "-"
          else Printf.sprintf "%.1fx" (last.H.sim /. first.H.sim)
        in
        (name :: List.map H.fmt_time times) @ [ degradation ])
      per_query
  in
  H.print_table ~title ~header rows;
  let degradations =
    List.filter_map
      (fun (_, times) ->
        let first = List.hd times and last = List.nth times (List.length times - 1) in
        if H.is_ot first || H.is_ot last || first.H.sim <= 0.0 then None
        else Some (last.H.sim /. first.H.sim))
      per_query
  in
  if degradations <> [] then
    Printf.printf "average degradation S1 -> S4 (30x data): %.1fx (geo)\n"
      (H.geomean degradations)

let fig10a = fig10 ~queries:Queries.ic ~title:"Fig 10(a): data-scale experiment, IC queries"
let fig10b = fig10 ~queries:Queries.bi ~title:"Fig 10(b): data-scale experiment, BI queries"

(* ------------------------------------------------------------- Fig 11 -- *)

let st_sets = [ ("ST1", 2, 80); ("ST2", 8, 60); ("ST3", 80, 2); ("ST4", 15, 40); ("ST5", 25, 25) ]

let st_pattern schema ~srcs ~dsts ~k =
  let account = Gopt_graph.Schema.vtype_id schema "Account" in
  let transfer = Gopt_graph.Schema.etype_id schema "TRANSFER" in
  let in_list tag ids =
    Expr.In_list (Expr.Prop (tag, "id"), List.map (fun i -> Value.Int i) ids)
  in
  Pattern.create
    [|
      Pattern.mk_vertex ~pred:(in_list "s" srcs) ~alias:"s" (Tc.Basic account);
      Pattern.mk_vertex ~pred:(in_list "t" dsts) ~alias:"t" (Tc.Basic account);
    |]
    [| Pattern.mk_edge ~hops:(k, k) ~alias:"p" ~src:0 ~dst:1 (Tc.Basic transfer) |]

let fig11 () =
  let accounts = H.env_int "GOPT_BENCH_ACCOUNTS" 20000 in
  let k = 6 in
  let session = H.transfer_session accounts in
  let graph = Gopt.Session.graph session in
  let gq = Gopt.Session.estimator session in
  let rows = ref [] and pairs = ref [] in
  List.iter
    (fun (name, n_src, n_dst) ->
      let srcs, dsts = Tg.pick_endpoints graph ~seed:(Hashtbl.hash name) ~n_src ~n_dst in
      let p = st_pattern Tg.schema ~srcs ~dsts ~k in
      let result = Path_planner.optimize gq Spec.graphscope p in
      let split_str = function
        | None -> "1-dir"
        | Some (a, b) -> Printf.sprintf "(%d,%d)" a b
      in
      let gopt = H.run_phys graph (count_plan result.Path_planner.phys) in
      (* two alternative split positions around the chosen one *)
      let alt_positions =
        match result.Path_planner.split with
        | Some (a, _) -> List.filter (fun x -> x >= 1 && x < k && x <> a) [ a - 1; a + 1 ]
        | None -> [ 2; 3 ]
      in
      let alts =
        List.map
          (fun at ->
            let phys, _ = Path_planner.forced_split gq Spec.graphscope p ~at in
            (at, H.run_phys graph (count_plan phys)))
          alt_positions
      in
      (* Neo4j-plan: single-direction expansion from the S1 side *)
      let neo = H.run_phys graph (count_plan (Planner.compile_user_order Spec.graphscope p)) in
      pairs := (neo, gopt) :: !pairs;
      let alt_cells =
        match alts with
        | [ (a1, r1); (a2, r2) ] ->
          [
            Printf.sprintf "(%d,%d): %s" a1 (k - a1) (H.fmt_time r1);
            Printf.sprintf "(%d,%d): %s" a2 (k - a2) (H.fmt_time r2);
          ]
        | [ (a1, r1) ] -> [ Printf.sprintf "(%d,%d): %s" a1 (k - a1) (H.fmt_time r1); "-" ]
        | _ -> [ "-"; "-" ]
      in
      rows :=
        ([
           name;
           Printf.sprintf "%d/%d" n_src n_dst;
           split_str result.Path_planner.split;
           H.fmt_time gopt;
         ]
        @ alt_cells
        @ [ H.fmt_time neo; H.fmt_speedup ~base:neo ~opt:gopt ])
        :: !rows)
    st_sets;
  H.print_table
    ~title:
      (Printf.sprintf "Fig 11: S-T paths (k=%d) — GOpt split vs alternatives vs single-direction"
         k)
    ~header:
      [ "query"; "|S1|/|S2|"; "GOpt split"; "GOpt (s)"; "alt 1"; "alt 2"; "1-dir (s)"; "vs 1-dir" ]
    (List.rev !rows);
  H.summarize_speedups "bidirectional S-T planning" !pairs

(* ----------------------------------------------------------- ablations -- *)

let ablation_cbo () =
  let session = H.ldbc_session H.bench_persons in
  let gq = Gopt.Session.estimator session in
  let rows = ref [] in
  List.iter
    (fun name ->
      let p = qc_pattern session name in
      let run options =
        let t0 = Sys.time () in
        let plan, stats = Cbo.optimize ~options gq Spec.graphscope p in
        (plan, stats, Sys.time () -. t0)
      in
      let full = Cbo.default_options in
      let plan1, s1, t1 = run full in
      let _, s2, t2 = run { full with Cbo.use_pruning = false } in
      let _, s3, t3 = run { full with Cbo.use_greedy_init = false } in
      rows :=
        [
          name;
          Printf.sprintf "%.4f / %d / %d" t1 s1.Cbo.nodes_searched s1.Cbo.candidates_pruned;
          Printf.sprintf "%.4f / %d / %d" t2 s2.Cbo.nodes_searched s2.Cbo.candidates_pruned;
          Printf.sprintf "%.4f / %d / %d" t3 s3.Cbo.nodes_searched s3.Cbo.candidates_pruned;
          Printf.sprintf "%.3e" plan1.Cbo.cost;
        ]
        :: !rows)
    [ "QC2a"; "QC3a"; "QC4a"; "QC4b" ];
  H.print_table
    ~title:
      "Ablation A1/A2: CBO search — full vs no-pruning vs no-greedy-bound (time / nodes / pruned)"
    ~header:[ "pattern"; "full"; "no pruning"; "no greedy init"; "plan cost" ]
    (List.rev !rows)

let ablation_typeinf () =
  let session = H.ldbc_session H.bench_persons in
  let schema = Gopt.Session.schema session in
  let rows =
    List.map
      (fun (q : Queries.query) ->
        let p = Queries.pattern_of_cypher schema q.Queries.cypher in
        let iters prioritized =
          match Ti.infer ~prioritized schema p with
          | Ti.Inferred (_, n) -> string_of_int n
          | Ti.Invalid -> "invalid"
        in
        [ q.Queries.name; iters true; iters false ])
      Queries.qt
  in
  H.print_table
    ~title:"Ablation A3: type-inference worklist iterations — prioritized vs insertion order"
    ~header:[ "query"; "prioritized"; "unordered" ]
    rows

let ablation_intersect () =
  let rows =
    List.map
      (fun (name, persons) ->
        let session = H.ldbc_session persons in
        let graph = Gopt.Session.graph session in
        let gq = Gopt.Session.estimator session in
        let p = qc_pattern session "QC1a" in
        let plan, _ = Cbo.optimize gq Spec.graphscope p in
        let inter = H.run_phys graph (count_plan (Cbo.to_physical Spec.graphscope plan)) in
        let flat = H.run_phys graph (count_plan (Cbo.to_physical Spec.neo4j plan)) in
        [ name; H.fmt_time flat; H.fmt_time inter; H.fmt_speedup ~base:flat ~opt:inter ])
      Ldbc.scale_ladder
  in
  H.print_table
    ~title:
      "Ablation A4: ExpandInto (flatten) vs ExpandIntersect on the QC1a triangle, same join order"
    ~header:[ "scale"; "flatten (s)"; "intersect (s)"; "speedup" ]
    rows

let ablation_selectivity () =
  (* histogram-based selectivity (the paper's Remark 7.1 future work,
     implemented here) vs the constant 0.1 default: the estimators disagree
     most on weakly-selective range filters, which can flip the scan side *)
  let session = H.ldbc_session H.bench_persons in
  let graph = Gopt.Session.graph session in
  let glogue = Gopt.Session.glogue session in
  let with_hist = Gopt.Session.estimator session in
  let without_hist = Gq.create glogue in
  let queries =
    [
      ( "SEL1",
        "MATCH (m:Post)-[:HAS_CREATOR]->(p:Person) WHERE m.length > 50 RETURN count(*) AS c" );
      ( "SEL2",
        "MATCH (m:Comment)-[:REPLY_OF]->(po:Post) WHERE m.length < 15 RETURN count(*) AS c" );
      ( "SEL3",
        "MATCH (p:Person)-[:LIKES]->(m:Post)-[:HAS_TAG]->(t:Tag) WHERE m.length > 480 \
         RETURN count(*) AS c" );
    ]
  in
  let rows =
    List.map
      (fun (name, cypher) ->
        let gir = Gopt.cypher_to_gir session cypher in
        let run gq =
          let phys, _ = Planner.plan (Planner.default_config ()) gq gir in
          H.run_phys graph phys
        in
        let hist = run with_hist and const = run without_hist in
        ( name :: H.fmt_time const :: H.fmt_time hist
          :: [ H.fmt_speedup ~base:const ~opt:hist ] ))
      queries
  in
  H.print_table
    ~title:"Ablation A5: histogram selectivity vs constant default (0.1)"
    ~header:[ "query"; "constant (s)"; "histograms (s)"; "speedup" ]
    rows

(* --------------------------------------------------------------- micro -- *)

let micro () =
  let open Bechamel in
  let session = H.ldbc_session 400 in
  let schema = Gopt.Session.schema session in
  let glogue = Gopt.Session.glogue session in
  let qc4 = qc_pattern session "QC4a" in
  let qt2_pattern =
    Queries.pattern_of_cypher schema (Queries.find Queries.qt "QT2").Queries.cypher
  in
  let ic6 = (Queries.find Queries.ic "IC6").Queries.cypher in
  let ic6_gir = Gopt.cypher_to_gir session ic6 in
  let tests =
    [
      Test.make ~name:"type-inference(QT2)"
        (Staged.stage (fun () -> ignore (Ti.infer schema qt2_pattern)));
      Test.make ~name:"cardinality(QC4a, cold cache)"
        (Staged.stage (fun () -> ignore (Gq.get_freq (Gq.create glogue) qc4)));
      Test.make ~name:"cbo-optimize(QC4a)"
        (Staged.stage (fun () -> ignore (Cbo.optimize (Gq.create glogue) Spec.graphscope qc4)));
      Test.make ~name:"rbo-fixpoint(IC6)"
        (Staged.stage (fun () ->
             ignore
               (Gopt_opt.Rule.fixpoint
                  (Gopt_opt.Rules_pattern.all @ Gopt_opt.Rules_relational.all)
                  ic6_gir)));
      Test.make ~name:"cypher-parse(IC6)"
        (Staged.stage (fun () -> ignore (Gopt_lang.Cypher_parser.parse ic6)));
    ]
  in
  let benchmark test =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
    let raw = Benchmark.all cfg instances test in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  Printf.printf "\n## Micro benchmarks (bechamel, monotonic clock)\n";
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"g" [ test ]) in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-36s %12.0f ns/run\n%!" name est
          | _ -> Printf.printf "  %-36s (no estimate)\n%!" name)
        results)
    tests

(* --------------------------------------------------------------- trace -- *)

(* Per-operator profiling smoke test: run one LDBC query on the pipelined
   engine and print its EXPLAIN ANALYZE trace, then compare both engines'
   peak live rows. Part of the tier-1 `make check` gate. *)
let trace () =
  let session = H.ldbc_session H.bench_persons in
  let graph = Gopt.Session.graph session in
  let q = Queries.find Queries.ic "IC6" in
  Printf.printf "\n## Per-operator trace: %s (%s)\n%s\n\n" q.Queries.name
    q.Queries.description q.Queries.cypher;
  let out, report = Gopt.explain_analyze_cypher session q.Queries.cypher in
  print_endline report;
  let _, mat = Engine.run_materialized graph out.Gopt.physical in
  Printf.printf
    "\npipelined peak %d live rows vs materialized peak %d (%.1fx less memory-resident)\n"
    out.Gopt.exec_stats.Engine.peak_rows mat.Engine.peak_rows
    (float_of_int mat.Engine.peak_rows
    /. float_of_int (max 1 out.Gopt.exec_stats.Engine.peak_rows))

(* ------------------------------------------------------------ parallel -- *)

(* Morsel-driven scaling experiment: the same scan-heavy queries at 1/2/4/8
   workers, wall-clock timed (CPU time would sum across domains and hide any
   speedup). Results are checked byte-identical across worker counts while
   we're at it — the determinism contract, at bench scale.

   Speedup is bounded by the cores actually available: on a single-core
   machine every worker count degenerates to ~1.0x (the morsel machinery
   then measures its own overhead), which is the expected reading there. *)
let parallel () =
  let session = H.ldbc_session H.bench_persons in
  let graph = Gopt.Session.graph session in
  let queries =
    [
      ( "2hop-count",
        "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) RETURN count(*) AS c" );
      ( "group-by",
        "MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN q.gender AS g, count(*) AS c, \
         avg(p.birthday) AS ab" );
      ( "topk",
        "MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN p.firstName AS n, count(*) AS deg \
         ORDER BY deg DESC, n ASC LIMIT 10" );
    ]
  in
  let worker_counts = [ 1; 2; 4; 8 ] in
  Printf.printf "available cores: %d recommended domains\n"
    (Domain.recommended_domain_count ());
  let rows =
    List.map
      (fun (name, q) ->
        let physical, _ = Gopt.plan_cypher session q in
        let time w =
          let t0 = Unix.gettimeofday () in
          let b, s = Engine.run ~workers:w graph physical in
          (Unix.gettimeofday () -. t0, b, s)
        in
        (* warm-up, then one timed run per worker count *)
        ignore (time 1);
        let t1, b1, _ = time 1 in
        let timed =
          List.map
            (fun w ->
              let t, b, s = time w in
              if Batch.n_rows b <> Batch.n_rows b1 then
                failwith (Printf.sprintf "%s: workers=%d changed the result!" name w);
              (w, t, s))
            worker_counts
        in
        name :: Printf.sprintf "%d" (Batch.n_rows b1)
        :: List.concat_map
             (fun (_, t, (s : Engine.stats)) ->
               [ Printf.sprintf "%.3fs (%.2fx)" t (t1 /. t);
                 string_of_int s.Engine.exchange_rows ])
             timed)
      queries
  in
  H.print_table
    ~title:
      (Printf.sprintf
         "Parallel scaling: morsel-driven engine, wall clock (persons=%d)"
         H.bench_persons)
    ~header:
      ([ "query"; "rows" ]
      @ List.concat_map
          (fun w -> [ Printf.sprintf "w=%d" w; "xch rows" ])
          worker_counts)
    rows

(* ---------------------------------------------------------- plan cache -- *)

(* Online-serving amortization: cold optimize+execute vs repeated executions
   of the same template through the session plan cache. Per workload query:
   one cold plan (no cache), one cold execution, then
   GOPT_BENCH_CACHE_CONSULTS consults through the cache (first misses and
   plans, the rest hit), with the hit rate taken from the cache's own
   counters. The cached plan is also executed at workers 1 and 4 and the
   rendered results compared byte-for-byte. Emits BENCH_plan_cache.json. *)
let plan_cache_bench () =
  let session = H.ldbc_session H.bench_persons in
  let graph = Gopt.Session.graph session in
  let consults = max 2 (H.env_int "GOPT_BENCH_CACHE_CONSULTS" 10_000) in
  let queries = Queries.comprehensive @ Queries.qr @ Queries.qt @ Queries.qc in
  let render b = Format.asprintf "%a" (Batch.pp graph) b in
  let time f =
    let t0 = Sys.time () in
    let r = f () in
    (Sys.time () -. t0, r)
  in
  let fnum v = if Float.is_nan v then "null" else Printf.sprintf "%.6e" v in
  let rows = ref [] and json = ref [] and hit_rates = ref [] in
  let plan_speedups = ref [] in
  List.iter
    (fun (q : Queries.query) ->
      let src = q.Queries.cypher in
      let t_plan, physical =
        time (fun () -> fst (Gopt.plan_cypher ~use_cache:false session src))
      in
      let exec = H.run_phys graph physical in
      let st0 = Gopt.Session.plan_cache_stats session in
      let t_total, () =
        time (fun () ->
            for _ = 1 to consults do
              ignore (Gopt.plan_cypher ~use_cache:true session src)
            done)
      in
      let st1 = Gopt.Session.plan_cache_stats session in
      let hits = st1.Gopt_cache.Plan_cache.hits - st0.Gopt_cache.Plan_cache.hits in
      let hit_rate = float_of_int hits /. float_of_int consults in
      hit_rates := hit_rate :: !hit_rates;
      let t_consult = t_total /. float_of_int consults in
      if t_consult > 0.0 then plan_speedups := (t_plan /. t_consult) :: !plan_speedups;
      let identical =
        match
          let b1, _ = Engine.run ~budget:H.bench_budget ~workers:1 graph physical in
          let b4, _ = Engine.run ~budget:H.bench_budget ~workers:4 graph physical in
          render b1 = render b4
        with
        | true -> "yes"
        | false -> "NO"
        | exception Engine.Timeout -> "OT"
      in
      let exec_s = if H.is_ot exec then nan else exec.H.cpu in
      (* per-execution latency after n executions of the template *)
      let amort_cold = t_plan +. exec_s in
      let amort_cached n = (t_plan /. float_of_int n) +. t_consult +. exec_s in
      rows :=
        [
          q.Queries.name;
          Printf.sprintf "%.3f" (t_plan *. 1e3);
          Printf.sprintf "%.1f" (t_consult *. 1e6);
          Printf.sprintf "%.2f%%" (hit_rate *. 100.0);
          (if H.is_ot exec then "OT" else Printf.sprintf "%.3f" (exec_s *. 1e3));
          (if H.is_ot exec then "-" else Printf.sprintf "%.3f" (amort_cold *. 1e3));
          (if H.is_ot exec then "-" else Printf.sprintf "%.3f" (amort_cached 100 *. 1e3));
          (if H.is_ot exec then "-" else Printf.sprintf "%.3f" (amort_cached 10_000 *. 1e3));
          identical;
        ]
        :: !rows;
      json :=
        Printf.sprintf
          "    {\"query\": %S, \"plan_cold_s\": %s, \"consult_warm_s\": %s, \
           \"exec_s\": %s, \"hit_rate\": %.6f, \"consults\": %d, \
           \"amortized_s\": {\"n1\": %s, \"n100\": %s, \"n10000\": %s}, \
           \"workers_1_eq_4\": %S}"
          q.Queries.name (fnum t_plan) (fnum t_consult) (fnum exec_s) hit_rate
          consults (fnum amort_cold)
          (fnum (amort_cached 100))
          (fnum (amort_cached 10_000))
          identical
        :: !json)
    queries;
  H.print_table
    ~title:
      (Printf.sprintf
         "Plan cache: cold optimize vs cached consult (%d consults/query); \
          amortized per-execution latency"
         consults)
    ~header:
      [
        "query"; "plan cold (ms)"; "consult (us)"; "hit rate"; "exec (ms)";
        "amort n=1 (ms)"; "n=100"; "n=10k"; "w1=w4";
      ]
    (List.rev !rows);
  let st = Gopt.Session.plan_cache_stats session in
  Printf.printf
    "plan cache totals: %d entries (cap %d), %d hits, %d misses, %d evictions, %d \
     invalidations\n"
    st.Gopt_cache.Plan_cache.entries st.Gopt_cache.Plan_cache.capacity
    st.Gopt_cache.Plan_cache.hits st.Gopt_cache.Plan_cache.misses
    st.Gopt_cache.Plan_cache.evictions st.Gopt_cache.Plan_cache.invalidations;
  let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs)) in
  Printf.printf "mean hit rate at %d consults/query: %.2f%%; plan->consult speedup %.0fx (geo)\n"
    consults
    (mean !hit_rates *. 100.0)
    (H.geomean !plan_speedups);
  let oc = open_out "BENCH_plan_cache.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"plan_cache\",\n  \"persons\": %d,\n  \"consults_per_query\": %d,\n\
    \  \"mean_hit_rate\": %.6f,\n  \"queries\": [\n%s\n  ]\n}\n"
    H.bench_persons consults (mean !hit_rates)
    (String.concat ",\n" (List.rev !json));
  close_out oc;
  Printf.printf "wrote BENCH_plan_cache.json\n"

(* ---------------------------------------------------------- vectorized -- *)

(* Columnar vs row-at-a-time execution. Per query the plan is compiled once
   and executed with vectorized kernels on and off (`off` is the row
   interpreter the columnar refactor replaced), sequentially and on 4
   worker domains; rendered results are compared byte-for-byte. The
   throughput numerator — vertices scanned plus intermediate rows
   produced — is identical in both modes, so the reported speedup is a
   pure wall-clock ratio. Plans containing only scans, filters,
   projections and row-number cuts are tagged filter/projection-dominated;
   the acceptance summary is the geomean speedup over that subset (target:
   >= 1.5x). Emits BENCH_exec.json. *)
let vectorized_bench () =
  let session = H.ldbc_session H.bench_persons in
  let graph = Gopt.Session.graph session in
  let vuniv = Gopt_graph.Schema.n_vtypes (Gopt.Session.schema session) in
  let queries =
    Queries.vs
    @ [
        (* expansion/aggregation-heavy contrast rows: kernels only cover the
           scan stage, so the speedup is expected to shrink here *)
        Queries.find Queries.comprehensive "BI1";
        Queries.find Queries.comprehensive "BI12";
      ]
  in
  let rec filter_dominated = function
    | Physical.Scan _ | Physical.Empty _ -> true
    | Physical.Select (x, _)
    | Physical.Project (x, _)
    | Physical.Limit (x, _)
    | Physical.Skip (x, _)
    | Physical.Dedup (x, _) ->
      filter_dominated x
    | Physical.Union (a, b) -> filter_dominated a && filter_dominated b
    | _ -> false
  in
  (* static count of vertices the plan's scans read (the Limit short-circuit
     may stop earlier; the figure is the same for both execution modes) *)
  let rec scanned = function
    | Physical.Scan { con; _ } ->
      List.fold_left
        (fun acc t -> acc + Gopt_graph.Property_graph.count_vtype graph t)
        0
        (Tc.to_list ~universe:vuniv con)
    | Physical.Empty _ | Physical.Common_ref _ -> 0
    | Physical.Select (x, _)
    | Physical.Project (x, _)
    | Physical.Group (x, _, _)
    | Physical.Order (x, _, _)
    | Physical.Limit (x, _)
    | Physical.Skip (x, _)
    | Physical.Unfold (x, _, _)
    | Physical.Dedup (x, _)
    | Physical.All_distinct (x, _)
    | Physical.Expand_all (x, _)
    | Physical.Expand_into (x, _)
    | Physical.Expand_intersect (x, _)
    | Physical.Path_expand (x, _) ->
      scanned x
    | Physical.Union (a, b) -> scanned a + scanned b
    | Physical.Hash_join { left; right; _ } -> scanned left + scanned right
    | Physical.With_common { common; left; right; _ } ->
      scanned common + scanned left + scanned right
  in
  let module Op_trace = Gopt_exec.Op_trace in
  let rec kernel_totals (r, ns) (tr : Op_trace.t) =
    List.fold_left kernel_totals
      (r + tr.Op_trace.rows_selected, ns +. tr.Op_trace.kernel_ns)
      tr.Op_trace.children
  in
  let render b = Format.asprintf "%a" (Batch.pp graph) b in
  let fnum v = if Float.is_nan v then "null" else Printf.sprintf "%.6e" v in
  let rows = ref [] and json = ref [] in
  let sp1s = ref [] and sp4s = ref [] in
  List.iter
    (fun (q : Queries.query) ->
      let physical, _ = Gopt.plan_cypher session q.Queries.cypher in
      let fdom = filter_dominated physical in
      let measure ~vectorize ?workers () =
        let run () =
          Engine.run ~budget:H.bench_budget ~vectorize ?workers graph physical
        in
        let b, st = run () in
        (* warmed up; then average enough repetitions to get off the clock
           granularity *)
        let reps = ref 0 and t = ref 0.0 in
        while !t < 0.2 && !reps < 100 do
          let t0 = Unix.gettimeofday () in
          ignore (run ());
          t := !t +. (Unix.gettimeofday () -. t0);
          incr reps
        done;
        (b, st, !t /. float_of_int !reps)
      in
      let b_on1, st_on1, t_on1 = measure ~vectorize:true () in
      let b_off1, _, t_off1 = measure ~vectorize:false () in
      let b_on4, _, t_on4 = measure ~vectorize:true ~workers:4 () in
      let b_off4, _, t_off4 = measure ~vectorize:false ~workers:4 () in
      (* hard guarantee of this engine: kernels never change the result at
         any worker count. The sequential pipeline and the morsel engine may
         legitimately pick different ties under ORDER BY ... LIMIT (the
         morsel engine is byte-identical across worker counts; recorded, not
         asserted). *)
      if render b_off1 <> render b_on1 then
        failwith (Printf.sprintf "%s: kernels changed the w=1 result!" q.Queries.name);
      if render b_off4 <> render b_on4 then
        failwith (Printf.sprintf "%s: kernels changed the w=4 result!" q.Queries.name);
      let w1_eq_w4 = if render b_on4 = render b_on1 then "yes" else "tie-order" in
      let thr = scanned physical + st_on1.Engine.intermediate_rows in
      let k_rows, k_ns =
        match st_on1.Engine.op_trace with
        | Some tr -> kernel_totals (0, 0.0) tr
        | None -> (0, 0.0)
      in
      let sp1 = t_off1 /. t_on1 and sp4 = t_off4 /. t_on4 in
      if fdom then begin
        sp1s := sp1 :: !sp1s;
        sp4s := sp4 :: !sp4s
      end;
      let mrps t = float_of_int thr /. t /. 1e6 in
      rows :=
        [
          q.Queries.name;
          (if fdom then "yes" else "no");
          string_of_int (Batch.n_rows b_on1);
          Printf.sprintf "%.2f" (mrps t_on1);
          Printf.sprintf "%.2f" (mrps t_off1);
          Printf.sprintf "%.2fx" sp1;
          Printf.sprintf "%.2fx" sp4;
          Printf.sprintf "%.3f" (k_ns /. 1e6);
          string_of_int k_rows;
        ]
        :: !rows;
      json :=
        Printf.sprintf
          "    {\"query\": %S, \"filter_dominated\": %b, \"result_rows\": %d, \
           \"throughput_rows\": %d, \"w1\": {\"vectorized_s\": %s, \"row_s\": %s, \
           \"vectorized_rows_per_s\": %s, \"row_rows_per_s\": %s, \"speedup\": %s}, \
           \"w4\": {\"vectorized_s\": %s, \"row_s\": %s, \"speedup\": %s}, \
           \"kernel\": {\"rows_selected\": %d, \"kernel_s\": %s}, \
           \"vectorize_identical\": \"yes\", \"workers_1_eq_4\": %S}"
          q.Queries.name fdom (Batch.n_rows b_on1) thr (fnum t_on1) (fnum t_off1)
          (fnum (float_of_int thr /. t_on1))
          (fnum (float_of_int thr /. t_off1))
          (fnum sp1) (fnum t_on4) (fnum t_off4) (fnum sp4) k_rows
          (fnum (k_ns /. 1e9))
          w1_eq_w4
        :: !json)
    queries;
  H.print_table
    ~title:
      (Printf.sprintf
         "Vectorized execution: columnar kernels vs row interpreter, wall clock \
          (persons=%d; throughput = scanned + intermediate rows)"
         H.bench_persons)
    ~header:
      [
        "query"; "f/p-dom"; "rows"; "Mrow/s vec w1"; "Mrow/s row w1";
        "speedup w1"; "speedup w4"; "kernel ms"; "kernel sel";
      ]
    (List.rev !rows);
  let geo1 = H.geomean !sp1s and geo4 = H.geomean !sp4s in
  Printf.printf
    "filter/projection-dominated geomean speedup: %.2fx (w=1), %.2fx (w=4)%s\n"
    geo1 geo4
    (if geo1 >= 1.5 then " — meets the 1.5x target"
     else " — below the 1.5x target at this scale");
  (* Columnar operators above the scan: the join-, expansion-, AllDistinct-
     and count-heavy queries on the sequential engine, with each operator
     kind's self CPU time (mean per run) and rows from the traces *)
  let op_queries =
    List.map (Queries.find (Queries.qc @ Queries.qr))
      [ "QC2a"; "QC2b"; "QC3a"; "QC3b"; "QC4a"; "QC4b"; "QR3"; "QR8" ]
  in
  let kind name =
    let stop = ref (String.length name) in
    String.iteri (fun i c -> if (c = '(' || c = '[') && i < !stop then stop := i) name;
    String.sub name 0 !stop
  in
  let op_rows = ref [] and op_json = ref [] in
  List.iter
    (fun (q : Queries.query) ->
      let physical, _ = Gopt.plan_cypher session q.Queries.cypher in
      (* kind -> (self seconds, rows in, rows out), first-seen order *)
      let per_kind : (string * (float ref * int ref * int ref)) list ref = ref [] in
      let add_trace tr =
        let rec go (tr : Op_trace.t) =
          let k = kind tr.Op_trace.name in
          let t, ri, ro =
            match List.assoc_opt k !per_kind with
            | Some c -> c
            | None ->
              let c = (ref 0.0, ref 0, ref 0) in
              per_kind := !per_kind @ [ (k, c) ];
              c
          in
          t := !t +. tr.Op_trace.time_s;
          ri := !ri + tr.Op_trace.rows_in;
          ro := !ro + tr.Op_trace.rows_out;
          List.iter go tr.Op_trace.children
        in
        go tr
      in
      let run () = Engine.run ~budget:H.bench_budget graph physical in
      let b, _ = run () in
      let reps = ref 0 and t = ref 0.0 in
      (* 0.1 s per query keeps the smoke run short; the figures are means
         over the repetitions *)
      while !t < 0.1 && !reps < 100 do
        let t0 = Unix.gettimeofday () in
        let _, st = run () in
        t := !t +. (Unix.gettimeofday () -. t0);
        incr reps;
        Option.iter add_trace st.Engine.op_trace
      done;
      let reps_f = float_of_int !reps in
      let ops =
        List.map (fun (k, (t, ri, ro)) -> (k, !t /. reps_f, !ri / !reps, !ro / !reps)) !per_kind
      in
      op_rows :=
        [
          q.Queries.name;
          string_of_int (Batch.n_rows b);
          Printf.sprintf "%.3f" (!t /. reps_f *. 1e3);
          String.concat ", "
            (List.map (fun (k, t, _, ro) -> Printf.sprintf "%s %.2fms/%d" k (t *. 1e3) ro) ops);
        ]
        :: !op_rows;
      op_json :=
        Printf.sprintf
          "    {\"query\": %S, \"result_rows\": %d, \"w1_s\": %s, \"operators\": [%s]}"
          q.Queries.name (Batch.n_rows b)
          (fnum (!t /. reps_f))
          (String.concat ", "
             (List.map
                (fun (k, t, ri, ro) ->
                  Printf.sprintf "{\"op\": %S, \"self_s\": %s, \"rows_in\": %d, \"rows_out\": %d}"
                    k (fnum t) ri ro)
                ops))
        :: !op_json)
    op_queries;
  H.print_table
    ~title:
      (Printf.sprintf
         "Columnar operators above the scan, sequential engine (persons=%d; per operator \
          kind: self cpu time / rows out, mean per run)"
         H.bench_persons)
    ~header:[ "query"; "rows"; "ms w1"; "operators" ]
    (List.rev !op_rows);
  let oc = open_out "BENCH_exec.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"vectorized\",\n  \"persons\": %d,\n\
    \  \"filter_dominated_geomean_speedup_w1\": %s,\n\
    \  \"filter_dominated_geomean_speedup_w4\": %s,\n\
    \  \"queries\": [\n%s\n  ],\n\
    \  \"operator_queries\": [\n%s\n  ]\n}\n"
    H.bench_persons (fnum geo1) (fnum geo4)
    (String.concat ",\n" (List.rev !json))
    (String.concat ",\n" (List.rev !op_json));
  close_out oc;
  Printf.printf "wrote BENCH_exec.json\n"

(* ---------------------------------------------------------------- main -- *)

let experiments =
  [
    ("table1", table1);
    ("table3", table3);
    ("fig8a", fig8a);
    ("fig8b", fig8b);
    ("fig8c", fig8c);
    ("fig8d", fig8d);
    ("fig8e", fig8e);
    ("fig9a", fig9a);
    ("fig9b", fig9b);
    ("fig10a", fig10a);
    ("fig10b", fig10b);
    ("fig11", fig11);
    ("ablation_cbo", ablation_cbo);
    ("ablation_typeinf", ablation_typeinf);
    ("ablation_intersect", ablation_intersect);
    ("ablation_selectivity", ablation_selectivity);
    ("trace", trace);
    ("parallel", parallel);
    ("plan_cache", plan_cache_bench);
    ("vectorized", vectorized_bench);
    ("micro", micro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let selected = if args = [] then List.map fst experiments else args in
  Printf.printf "GOpt experiment harness — scale: %d persons, OT budget: %.0fs CPU per run\n%!"
    H.bench_persons H.bench_budget;
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
        Printf.printf "\n%s\n%s\n%!" (String.make 72 '=') name;
        let t0 = Sys.time () in
        f ();
        Printf.printf "[%s done in %.1fs cpu]\n%!" name (Sys.time () -. t0)
      | None ->
        Printf.eprintf "unknown experiment %S; available: %s\n" name
          (String.concat ", " (List.map fst experiments)))
    selected

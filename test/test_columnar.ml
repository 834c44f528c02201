(* Tests for the columnar operators above the scan and for AllDistinct
   pruning by type inference.

   - Pruning: planning with type inference (which drops the AllDistinct
     pairs that cannot bind the same edge) gives the same bag of rows as
     planning without it, on every workload query, on the 220 random
     queries, and on queries where repeated edges really occur — there the
     kept AllDistinct must remove rows.
   - Join core: each branch of the shared hash-join core (left outer with
     null-padded key columns downstream, semi, anti, multi-key, edge-keyed,
     cartesian, scalar-keyed) matches the materialized oracle on the
     sequential engine and at workers 1 and 4, at chunk sizes 1, 7 and 1024.
   - Expansion: under a LIMIT, [edges_touched] stops at the row that filled
     the chunk the LIMIT stopped on, as row-at-a-time expansion counted.
   - Grouping: [Planner.distinct_groups] on hand-built patterns. *)

module Engine = Gopt_exec.Engine
module Batch = Gopt_exec.Batch
module Rval = Gopt_exec.Rval
module Op_trace = Gopt_exec.Op_trace
module Physical = Gopt_opt.Physical
module Planner = Gopt_opt.Planner
module Logical = Gopt_gir.Logical
module Pattern = Gopt_pattern.Pattern
module Tc = Gopt_pattern.Type_constraint
module Expr = Gopt_pattern.Expr
module Queries = Gopt_workloads.Queries
open Fixtures

(* same fields, and the same bag of rows (the row count only when a plan
   cuts at a possibly-tied LIMIT) *)
let agree ~name ~tie_cut expected b =
  Alcotest.(check (list string)) (name ^ ": fields") (Batch.fields expected) (Batch.fields b);
  if tie_cut then
    Alcotest.(check int) (name ^ ": rows") (Batch.n_rows expected) (Batch.n_rows b)
  else
    Alcotest.(check bool) (name ^ ": same bag") true
      (List.equal (List.equal Rval.equal) (canon_rows expected) (canon_rows b))

(* rows removed by the plan's AllDistinct nodes, read off the sequential
   engine's trace *)
let all_distinct_removed (st : Engine.stats) =
  let rec go (tr : Op_trace.t) =
    let own =
      if String.starts_with ~prefix:"AllDistinct" tr.Op_trace.name then
        tr.Op_trace.rows_in - tr.Op_trace.rows_out
      else 0
    in
    List.fold_left (fun acc c -> acc + go c) own tr.Op_trace.children
  in
  match st.Engine.op_trace with Some tr -> go tr | None -> 0

let rec count_all_distinct (p : Physical.t) =
  match p with
  | Physical.All_distinct (x, _) -> 1 + count_all_distinct x
  | Physical.Scan _ | Physical.Common_ref _ | Physical.Empty _ -> 0
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
  | Physical.Dedup (x, _) -> count_all_distinct x
  | Physical.Hash_join { left; right; _ } | Physical.Union (left, right) ->
    count_all_distinct left + count_all_distinct right
  | Physical.With_common { common; left; right; _ } ->
    count_all_distinct common + count_all_distinct left + count_all_distinct right

(* --- AllDistinct pruning ------------------------------------------------- *)

let no_inference = { (Planner.default_config ()) with Planner.enable_type_inference = false }

(* The query planned with and without type inference gives the same bag of
   rows on the oracle, and the pruned plan gives it on the pipelined
   engine; returns the pruned plan and its sequential-run stats. *)
let check_pruning ~name s q =
  let g = Gopt.Session.graph s in
  let pruned, _ = Gopt.plan_cypher s q in
  let unpruned, _ = Gopt.plan_cypher ~config:no_inference s q in
  let tie_cut = plan_has_tie_cut pruned || plan_has_tie_cut unpruned in
  let oracle, _ = Engine.run_materialized g unpruned in
  agree ~name:(name ^ ", pruned plan on the oracle") ~tie_cut oracle
    (fst (Engine.run_materialized g pruned));
  let b, st = Engine.run g pruned in
  agree ~name:(name ^ ", pruned plan pipelined") ~tie_cut oracle b;
  (pruned, st)

let test_pruning_workloads () =
  let s = Gopt.Session.create (Gopt_workloads.Ldbc.generate ~persons:60 ()) in
  List.iter
    (fun (q : Queries.query) -> ignore (check_pruning ~name:q.Queries.name s q.Queries.cypher))
    (Queries.comprehensive @ Queries.qr @ Queries.qt @ Queries.qc)

let test_pruning_random () =
  let s = Gopt.Session.create big_graph in
  for seed = 0 to 219 do
    let q = Gen_query.generate seed in
    try ignore (check_pruning ~name:(Printf.sprintf "seed %d" seed) s q)
    with e -> Alcotest.failf "seed %d: %s\nquery:\n  %s" seed (Printexc.to_string e) q
  done

(* queries whose matches really repeat an edge: the AllDistinct stays in
   the plan and removes rows *)
let test_pruning_collisions () =
  let s = Gopt.Session.create (Gopt_workloads.Ldbc.generate ~persons:60 ()) in
  List.iter
    (fun (name, q) ->
      let plan, st = check_pruning ~name s q in
      Alcotest.(check bool) (name ^ ": AllDistinct kept") true (count_all_distinct plan > 0);
      let removed = all_distinct_removed st in
      Alcotest.(check bool)
        (Printf.sprintf "%s: AllDistinct removed %d rows" name removed)
        true (removed > 0))
    [
      ( "undirected KNOWS 2-hop",
        "MATCH (a:Person)-[:KNOWS]-(b:Person)-[:KNOWS]-(c:Person) RETURN count(*) AS cnt" );
      ( "KNOWS path next to a KNOWS edge",
        "MATCH (a:Person {id: 3})-[:KNOWS*1..3]-(b:Person)-[:KNOWS]-(c:Person) \
         RETURN b.id AS x, c.id AS y" );
    ]

(* the plans the pruning is expected to give on the workload *)
let test_pruning_plans () =
  let s = Gopt.Session.create (Gopt_workloads.Ldbc.generate ~persons:60 ()) in
  let labels q =
    let plan, _ = Gopt.plan_cypher s (Queries.find Queries.qc q).Queries.cypher in
    let rec go acc (p : Physical.t) =
      match p with
      | Physical.All_distinct (x, tags) -> go (String.concat ", " tags :: acc) x
      | Physical.Group (x, _, _) -> go acc x
      | _ -> List.rev acc
    in
    go [] plan
  in
  Alcotest.(check (list string)) "QC3b" [ "@e1, @e2" ] (labels "QC3b");
  Alcotest.(check (list string)) "QC4a" [ "@e1, @e2, @e3" ] (labels "QC4a");
  Alcotest.(check (list string)) "QC4b" [ "@e1, @e2, @e3" ] (labels "QC4b")

(* --- hash-join core ------------------------------------------------------ *)

(* the plan on the sequential engine and at workers 1 and 4, each at chunk
   sizes 1, 7 and 1024: workers 1 and 4 byte-identical, everything the
   oracle's bag; with [ordered], the sequential engine also returns the
   oracle's row order (joins emit matches in reverse build-arrival order
   in both engines) *)
let check_plan ?(ordered = false) ~name g plan =
  let oracle, _ = Engine.run_materialized g plan in
  let tie_cut = plan_has_tie_cut plan in
  List.iter
    (fun chunk_size ->
      let name = Printf.sprintf "%s (chunk=%d)" name chunk_size in
      let seq, _ = Engine.run ~chunk_size g plan in
      agree ~name:(name ^ ", sequential") ~tie_cut oracle seq;
      if ordered then
        Alcotest.(check string) (name ^ ": sequential order = oracle order") (render g oracle)
          (render g seq);
      let b1, _ = Engine.run ~chunk_size ~workers:1 ~morsel_size:16 g plan in
      let b4, _ = Engine.run ~chunk_size ~workers:4 ~morsel_size:16 g plan in
      Alcotest.(check string) (name ^ ": workers 1 = workers 4") (render g b1) (render g b4);
      agree ~name:(name ^ ", workers 4") ~tie_cut oracle b4)
    [ 1; 7; 1024 ];
  Batch.n_rows oracle

let rec joins (p : Physical.t) =
  match p with
  | Physical.Hash_join { left; right; keys; kind } -> ((keys, kind) :: joins left) @ joins right
  | Physical.Scan _ | Physical.Common_ref _ | Physical.Empty _ -> []
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
  | Physical.All_distinct (x, _) -> joins x
  | Physical.Union (a, b) -> joins a @ joins b
  | Physical.With_common { common; left; right; _ } -> joins common @ joins left @ joins right

let no_probe =
  let c = Planner.default_config () in
  {
    c with
    Planner.rules = List.filter (fun r -> r.Gopt_opt.Rule.name <> "PatternProbe") c.Planner.rules;
  }

let test_join_cypher () =
  let s = Gopt.Session.create big_graph in
  List.iter
    (fun (name, config, q, wanted) ->
      let plan, _ = Gopt.plan_cypher ~config s q in
      Alcotest.(check bool)
        (name ^ ": plan has the join under test")
        true
        (List.exists wanted (joins plan));
      ignore (check_plan ~name big_graph plan))
    [
      ( "optional match",
        Planner.default_config (),
        "MATCH (a:Person) OPTIONAL MATCH (a)-[:PURCHASED]->(g:Product) \
         RETURN a.name AS x, g.name AS y",
        fun (_, k) -> k = Logical.Left_outer );
      ( "optional match, two keys",
        Planner.default_config (),
        "MATCH (a:Person)-[:KNOWS]->(b:Person) \
         OPTIONAL MATCH (a)-[:PURCHASED]->(g:Product)<-[:PURCHASED]-(b) \
         RETURN a.name AS x, b.name AS y, g.name AS z",
        fun (ks, k) -> k = Logical.Left_outer && List.length ks = 2 );
      ( "semi",
        no_probe,
        "MATCH (a:Person)-[:LIVES_IN]->(c:City) WHERE (a)-[:KNOWS]->(:Person) \
         RETURN a.name AS x, c.name AS y",
        fun (_, k) -> k = Logical.Semi );
      ( "anti",
        no_probe,
        "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE NOT (b)-[:KNOWS]->(a) \
         RETURN a.name AS x, b.name AS y",
        fun (_, k) -> k = Logical.Anti );
      ( "cartesian",
        Planner.default_config (),
        "MATCH (c:City), (g:Product) RETURN c.name AS x, g.name AS y",
        fun (ks, _) -> ks = [] );
    ]

let scan alias con = Physical.Scan { alias; con = Tc.Basic con; pred = None }

let step ?(forward = true) ~from ~to_ ~to_con e =
  {
    Physical.s_edge = e;
    s_from = from;
    s_to = to_;
    s_forward = forward;
    s_to_con = Tc.Basic to_con;
    s_to_pred = None;
  }

let test_join_physical () =
  let g = big_graph in
  let outer =
    (* a LEFT OUTER join pads [g] with nulls; the next join probes that
       boxed column *)
    Physical.Hash_join
      {
        left =
          Physical.Hash_join
            {
              left = scan "a" person;
              right =
                Physical.Expand_all
                  ( scan "a" person,
                    step ~from:"a" ~to_:"g" ~to_con:product (pe "e" 0 1 (Tc.Basic purchased)) );
              keys = [ "a" ];
              kind = Logical.Left_outer;
            };
        right =
          Physical.Expand_all
            ( scan "g" product,
              step ~from:"g" ~to_:"c" ~to_con:city (pe "f" 0 1 (Tc.Basic produced_in)) );
        keys = [ "g" ];
        kind = Logical.Inner;
      }
  in
  let edge_keyed =
    (* the same KNOWS edge bound from both of its endpoints *)
    Physical.Hash_join
      {
        left =
          Physical.Expand_all
            (scan "a" person, step ~from:"a" ~to_:"b" ~to_con:person (pe "e" 0 1 (Tc.Basic knows)));
        right =
          Physical.Expand_all
            ( scan "d" person,
              step ~forward:false ~from:"d" ~to_:"c" ~to_con:person (pe "e" 1 0 (Tc.Basic knows)) );
        keys = [ "e" ];
        kind = Logical.Inner;
      }
  in
  let scalar_keyed kind =
    (* WITH-projected scalar key: persons sharing a name *)
    let side v n =
      Physical.Project (scan v person, [ (Expr.Prop (v, "name"), n); (Expr.Var v, v) ])
    in
    Physical.Hash_join { left = side "a" "n"; right = side "b" "n"; keys = [ "n" ]; kind }
  in
  let rows name plan = check_plan ~ordered:true ~name g plan in
  Alcotest.(check bool) "outer: some rows" true (rows "outer, boxed probe key" outer > 0);
  Alcotest.(check int) "edge-keyed: one row per KNOWS edge" (G.count_etype g knows)
    (rows "edge-keyed" edge_keyed);
  List.iter
    (fun (name, kind) -> ignore (rows name (scalar_keyed kind)))
    [
      ("scalar key, inner", Logical.Inner);
      ("scalar key, outer", Logical.Left_outer);
      ("scalar key, semi", Logical.Semi);
      ("scalar key, anti", Logical.Anti);
    ]

(* --- expansion under LIMIT ------------------------------------------------ *)

(* A LIMIT stops the pipeline when the expansion's first full chunk reaches
   it, so the expansion must have charged exactly the adjacency entries
   visited up to the row that completed that chunk — counted here
   independently, straight from the graph, for an undirected KNOWS step
   with a target predicate that rejects some of the visited rows. *)
let test_expand_limit_touched () =
  let g = big_graph in
  let chunk_size = 7 in
  let old_enough v =
    match G.vprop g v "age" with Value.Int a -> a > 40 | _ -> false
  in
  let expected =
    let visited = ref 0 and kept = ref 0 in
    (try
       Array.iter
         (fun v ->
           let visit other =
             incr visited;
             if old_enough other then begin
               incr kept;
               if !kept = chunk_size then raise Exit
             end
           in
           G.iter_out_etype g v knows (fun e -> visit (G.edst g e));
           G.iter_in_etype g v knows (fun e -> visit (G.esrc g e)))
         (G.vertices_of_vtype g person)
     with Exit -> ());
    !visited
  in
  let step =
    {
      (step ~from:"a" ~to_:"b" ~to_con:person (pe ~directed:false "e" 0 1 (Tc.Basic knows))) with
      Physical.s_to_pred =
        Some (Expr.Binop (Expr.Gt, Expr.Prop ("b", "age"), Expr.Const (Value.Int 40)));
    }
  in
  let plan = Physical.Limit (Physical.Expand_all (scan "a" person, step), 5) in
  let b, st = Engine.run ~chunk_size g plan in
  Alcotest.(check int) "5 rows" 5 (Batch.n_rows b);
  Alcotest.(check int) "edges touched up to the first chunk" expected st.Engine.edges_touched;
  Alcotest.(check bool) "some visited rows were rejected" true (expected > chunk_size)

(* --- grouping ------------------------------------------------------------- *)

(* a schema in which one edge type connects disjoint endpoint types *)
let tag_schema =
  Gopt_graph.Schema.create
    ~vtypes:[ ("Person", []); ("Forum", []); ("Post", []); ("Tag", []) ]
    ~etypes:[ ("KNOWS", []); ("LIKES", []); ("HAS_TAG", []) ]
    ~triples:
      [
        ("Person", "KNOWS", "Person");
        ("Person", "LIKES", "Post");
        ("Forum", "HAS_TAG", "Tag");
        ("Post", "HAS_TAG", "Tag");
      ]

let vt = Gopt_graph.Schema.vtype_id tag_schema
let et = Gopt_graph.Schema.etype_id tag_schema

let test_groups () =
  let groups vertices edges tags =
    let p =
      Pattern.create
        (Array.of_list (List.map (fun (a, t) -> pv a t) vertices))
        (Array.of_list edges)
    in
    Planner.distinct_groups tag_schema (Logical.Match p) tags
  in
  let b name = Tc.Basic (vt name) and e name = Tc.Basic (et name) in
  let check name expected got = Alcotest.(check (list (list string))) name expected got in
  check "same type"
    [ [ "e1"; "e2" ] ]
    (groups
       [ ("a", b "Person"); ("b", b "Person"); ("c", b "Person") ]
       [ pe "e1" 0 1 (e "KNOWS"); pe "e2" 1 2 (e "KNOWS") ]
       [ "e1"; "e2" ]);
  check "disjoint types" []
    (groups
       [ ("a", b "Person"); ("b", b "Person"); ("m", b "Post") ]
       [ pe "e1" 0 1 (e "KNOWS"); pe "e2" 1 2 (e "LIKES") ]
       [ "e1"; "e2" ]);
  check "disjoint endpoints" []
    (groups
       [ ("f", b "Forum"); ("t", b "Tag"); ("m", b "Post") ]
       [ pe "e1" 0 1 (e "HAS_TAG"); pe "e2" 2 1 (e "HAS_TAG") ]
       [ "e1"; "e2" ]);
  (* written Tag -> Forum: only the undirected edge can match the
     (Forum, HAS_TAG, Tag) triple, and then it may be the other edge *)
  let reversed directed =
    groups
      [ ("t", b "Tag"); ("f", b "Forum"); ("f2", b "Forum") ]
      [ pe ~directed "e1" 0 1 (e "HAS_TAG"); pe "e2" 2 0 (e "HAS_TAG") ]
      [ "e1"; "e2" ]
  in
  check "undirected edge" [ [ "e1"; "e2" ] ] (reversed false);
  check "directed, no fitting triple" [] (reversed true);
  let likes_or_knows = Tc.Union (List.sort compare [ et "KNOWS"; et "LIKES" ]) in
  let person_or_post = Tc.Union (List.sort compare [ vt "Person"; vt "Post" ]) in
  check "multi-type union"
    [ [ "e1"; "e3" ] ]
    (groups
       [ ("a", b "Person"); ("x", person_or_post); ("c", b "Person"); ("m", b "Post") ]
       [ pe "e1" 0 1 likes_or_knows; pe "e2" 2 3 (e "LIKES"); pe "e3" 0 2 (e "KNOWS") ]
       [ "e1"; "e3" ]);
  check "multi-type union, three tags"
    [ [ "e1"; "e2"; "e3" ] ]
    (groups
       [ ("a", b "Person"); ("x", person_or_post); ("c", b "Person"); ("m", b "Post") ]
       [ pe "e1" 0 1 likes_or_knows; pe "e2" 2 3 (e "LIKES"); pe "e3" 0 2 (e "KNOWS") ]
       [ "e1"; "e2"; "e3" ]);
  let path_then c_type e_type =
    groups
      [ ("a", b "Person"); ("b", b "Person"); ("c", b c_type) ]
      [ pe ~hops:(1, 3) "e1" 0 1 (e "KNOWS"); pe "e2" 1 2 (e e_type) ]
      [ "e1"; "e2" ]
  in
  check "path alone stays" [ [ "e1" ] ] (path_then "Post" "LIKES");
  check "path next to its edge type" [ [ "e1"; "e2" ] ] (path_then "Person" "KNOWS");
  (* a Forum-to-Post path runs through HAS_TAG edges whose endpoints are
     not the path's: its edges may still be the Forum's HAS_TAG edge *)
  check "path typed by its edges, not its endpoints"
    [ [ "e1"; "e2" ] ]
    (groups
       [ ("f", b "Forum"); ("m", b "Post"); ("f2", b "Forum"); ("t", b "Tag") ]
       [ pe ~directed:false ~hops:(1, 2) "e1" 0 1 (e "HAS_TAG"); pe "e2" 2 3 (e "HAS_TAG") ]
       [ "e1"; "e2" ]);
  check "empty tags resolve to the edges"
    [ [ "e1"; "e2" ] ]
    (groups
       [ ("a", b "Person"); ("b", b "Person"); ("c", b "Person") ]
       [ pe "e1" 0 1 (e "KNOWS"); pe "e2" 1 2 (e "KNOWS") ]
       [])

let () =
  Alcotest.run "columnar"
    [
      ( "pruning",
        [
          Alcotest.test_case "workloads: pruned = unpruned" `Quick test_pruning_workloads;
          Alcotest.test_case "random queries (220 seeds)" `Quick test_pruning_random;
          Alcotest.test_case "collisions: kept and removing" `Quick test_pruning_collisions;
          Alcotest.test_case "QC3b/QC4a/QC4b plans" `Quick test_pruning_plans;
        ] );
      ( "join core",
        [
          Alcotest.test_case "cypher join kinds" `Quick test_join_cypher;
          Alcotest.test_case "boxed, edge and scalar keys" `Quick test_join_physical;
        ] );
      ( "expansion",
        [ Alcotest.test_case "edges touched under LIMIT" `Quick test_expand_limit_touched ] );
      ("grouping", [ Alcotest.test_case "distinct_groups" `Quick test_groups ]);
    ]

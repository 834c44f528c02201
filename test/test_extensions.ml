(* Tests for the extension substrates: graph serialization, schema
   discovery, property histograms, plan serialization, and the SKIP
   operator. *)

module G = Gopt_graph.Property_graph
module Schema = Gopt_graph.Schema
module Graph_io = Gopt_graph.Graph_io
module Schema_discovery = Gopt_graph.Schema_discovery
module Value = Gopt_graph.Value
module Hist = Gopt_glogue.Histograms
module Codec = Gopt_opt.Plan_codec
module Physical = Gopt_opt.Physical
module Cbo = Gopt_opt.Cbo
module Spec = Gopt_opt.Physical_spec
module Engine = Gopt_exec.Engine
module Batch = Gopt_exec.Batch
module Glogue = Gopt_glogue.Glogue
module Gq = Gopt_glogue.Glogue_query
module Expr = Gopt_pattern.Expr
module Tc = Gopt_pattern.Type_constraint
module Pattern = Gopt_pattern.Pattern
open Fixtures

(* --- Graph_io -------------------------------------------------------------- *)

let graphs_equal a b =
  G.n_vertices a = G.n_vertices b
  && G.n_edges a = G.n_edges b
  && List.for_all
       (fun v -> G.vtype a v = G.vtype b v)
       (List.init (G.n_vertices a) Fun.id)
  && List.for_all
       (fun e ->
         G.esrc a e = G.esrc b e && G.edst a e = G.edst b e && G.etype a e = G.etype b e)
       (List.init (G.n_edges a) Fun.id)

let test_graph_io_roundtrip () =
  let text = Graph_io.to_string graph in
  let back = Graph_io.of_string text in
  Alcotest.(check bool) "same structure" true (graphs_equal graph back);
  (* properties survive *)
  Alcotest.(check bool) "props survive" true
    (Value.equal (G.vprop back 0 "name") (G.vprop graph 0 "name"));
  (* and it round-trips a second time to the identical text *)
  Alcotest.(check string) "stable" text (Graph_io.to_string back)

let test_graph_io_escaping () =
  let schema =
    Schema.create
      ~vtypes:[ ("T", [ ("s", Schema.P_string) ]) ]
      ~etypes:[ ("E", []) ]
      ~triples:[ ("T", "E", "T") ]
  in
  let b = G.Builder.create schema in
  let tricky = "tab\there|and\nnewline\\backslash" in
  let v0 = G.Builder.add_vertex b ~vtype:0 [ ("s", Value.Str tricky) ] in
  let v1 = G.Builder.add_vertex b ~vtype:0 [] in
  ignore (G.Builder.add_edge b ~src:v0 ~dst:v1 ~etype:0 []);
  let g = G.Builder.freeze b in
  let back = Graph_io.of_string (Graph_io.to_string g) in
  Alcotest.(check bool) "tricky string survives" true
    (Value.equal (G.vprop back 0 "s") (Value.Str tricky))

let test_graph_io_ldbc_roundtrip () =
  let g = Gopt_workloads.Ldbc.generate ~persons:60 () in
  let back = Graph_io.of_string (Graph_io.to_string g) in
  Alcotest.(check bool) "ldbc roundtrip" true (graphs_equal g back)

let test_graph_io_file () =
  let path = Filename.temp_file "gopt" ".graph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graph_io.save graph path;
      let back = Graph_io.load path in
      Alcotest.(check bool) "file roundtrip" true (graphs_equal graph back))

let test_graph_io_malformed () =
  List.iter
    (fun text ->
      match Graph_io.of_string text with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "expected failure for %S" text)
    [ "nonsense line"; "gopt-graph v1\nv\tNoSuchType"; "gopt-graph v1\nvtype\tT\tbad" ]

(* --- Schema discovery ------------------------------------------------------ *)

let int_triple : (int * int * int) Alcotest.testable =
  Alcotest.testable
    (fun ppf (x, y, z) -> Format.fprintf ppf "(%d,%d,%d)" x y z)
    (fun (x1, y1, z1) (x2, y2, z2) -> x1 = x2 && y1 = y2 && z1 = z2)

let test_schema_discovery () =
  (* the fixture graph realizes all four declared triples *)
  let obs = Schema_discovery.observed graph in
  Alcotest.(check int) "all triples live" 4 (Array.length (Schema.triples obs));
  Alcotest.(check (list int_triple)) "no missing" []
    (Schema_discovery.missing_triples graph);
  (* a graph using only KNOWS: observed schema shrinks *)
  let b = G.Builder.create schema in
  let p0 = G.Builder.add_vertex b ~vtype:person [] in
  let p1 = G.Builder.add_vertex b ~vtype:person [] in
  ignore (G.Builder.add_edge b ~src:p0 ~dst:p1 ~etype:knows []);
  let g = G.Builder.freeze b in
  let obs = Schema_discovery.observed g in
  Alcotest.(check int) "one live triple" 1 (Array.length (Schema.triples obs));
  Alcotest.(check int) "three missing" 3 (List.length (Schema_discovery.missing_triples g));
  (* type ids preserved *)
  Alcotest.(check int) "person id stable" person (Schema.vtype_id obs "Person")

let test_observed_schema_tightens_inference () =
  (* nobody purchased anything in this graph, so (a)-[:PURCHASED]->(b)
     is invalid under the observed schema but valid under the declared one *)
  let b = G.Builder.create schema in
  let p0 = G.Builder.add_vertex b ~vtype:person [] in
  let p1 = G.Builder.add_vertex b ~vtype:person [] in
  ignore (G.Builder.add_edge b ~src:p0 ~dst:p1 ~etype:knows []);
  let g = G.Builder.freeze b in
  let p =
    Pattern.create
      [| pv "a" Tc.All; pv "b" Tc.All |]
      [| pe "e" 0 1 (Tc.Basic purchased) |]
  in
  let module Ti = Gopt_typeinf.Type_inference in
  (match Ti.infer schema p with
  | Ti.Inferred _ -> ()
  | Ti.Invalid -> Alcotest.fail "declared schema should admit the pattern");
  match Ti.infer (Schema_discovery.observed g) p with
  | Ti.Invalid -> ()
  | Ti.Inferred _ -> Alcotest.fail "observed schema should reject the pattern"

(* --- Histograms ------------------------------------------------------------- *)

let hist = Hist.build graph

let test_histogram_equality () =
  (* 4 persons with distinct names: Eq selectivity = 1/4 *)
  match
    Hist.selectivity hist ~elem:Hist.Vertex ~type_ids:[ person ] ~prop:"name"
      `Eq
  with
  | Some s -> Alcotest.(check (float 1e-9)) "1/4" 0.25 s
  | None -> Alcotest.fail "expected statistics"

let test_histogram_range () =
  (* ages 20,21,22,23: age > 21 keeps half *)
  match
    Hist.selectivity hist ~elem:Hist.Vertex ~type_ids:[ person ] ~prop:"age"
      (`Range (`Gt, Value.Int 21))
  with
  | Some s -> Alcotest.(check bool) "about half" true (s > 0.3 && s < 0.7)
  | None -> Alcotest.fail "expected statistics"

let test_histogram_in_list () =
  match
    Hist.selectivity hist ~elem:Hist.Vertex ~type_ids:[ person ] ~prop:"name"
      (`In [ Value.Str "p0"; Value.Str "p1"; Value.Str "nope" ])
  with
  | Some s -> Alcotest.(check (float 1e-9)) "3/4" 0.75 s
  | None -> Alcotest.fail "expected statistics"

let test_histogram_unknown_prop () =
  Alcotest.(check bool) "unknown prop" true
    (Hist.selectivity hist ~elem:Hist.Vertex ~type_ids:[ person ] ~prop:"nope"
       `Eq
    = None)

let test_histogram_feeds_estimator () =
  let gq_h = Gq.create ~histograms:hist (Glogue.build graph) in
  let gq_plain = Gq.create (Glogue.build graph) in
  let pred = Expr.Binop (Expr.Gt, Expr.Prop ("a", "age"), Expr.Const (Value.Int 21)) in
  let p =
    Pattern.create [| pv ~pred "a" (Tc.Basic person) |] [||]
  in
  (* histogram: ~half of 4 = ~2; constant fallback: 0.4 *)
  Alcotest.(check bool) "histogram estimate" true (Gq.get_freq gq_h p > 1.0);
  Alcotest.(check (float 1e-6)) "constant fallback" 0.4 (Gq.get_freq gq_plain p)

(* --- Plan codec -------------------------------------------------------------- *)

let test_sexp_roundtrip () =
  let open Codec.Sexp in
  let s = List [ Atom "a b"; Atom "plain"; List [ Atom "\"quoted\""; Atom "" ] ] in
  Alcotest.(check bool) "sexp roundtrip" true (of_string (to_string s) = s);
  List.iter
    (fun bad ->
      match of_string bad with
      | exception Codec.Decode_error _ -> ()
      | _ -> Alcotest.failf "expected decode error for %S" bad)
    [ "("; "(a))"; "\"unterminated"; "a b" ]

let gq = Gq.create (Glogue.build graph)

let test_plan_codec_roundtrip () =
  let plan, _ = Cbo.optimize gq Spec.graphscope p_triangle in
  let phys = Cbo.to_physical Spec.graphscope plan in
  let phys =
    Physical.Order
      ( Physical.Group
          ( Physical.Select
              (phys, Expr.Binop (Expr.Gt, Expr.Prop ("a", "age"), Expr.Const (Value.Int 1))),
            [ (Expr.Var "a", "a") ],
            [ { Gopt_gir.Logical.agg_fn = Gopt_gir.Logical.Count; agg_arg = None; agg_alias = "c" } ] ),
        [ (Expr.Var "c", Gopt_gir.Logical.Desc) ],
        Some 5 )
  in
  let encoded = Codec.encode phys in
  let decoded = Codec.decode encoded in
  Alcotest.(check string) "identical plan text"
    (Physical.to_string phys) (Physical.to_string decoded);
  (* and the decoded plan executes identically *)
  let r1, _ = Engine.run graph phys in
  let r2, _ = Engine.run graph decoded in
  Alcotest.(check int) "same results" (Batch.n_rows r1) (Batch.n_rows r2)

let test_plan_codec_version_check () =
  match Codec.decode "(gopt-plan v99 (empty ()))" with
  | exception Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "expected version error"

let test_plan_codec_executes_after_transfer () =
  (* simulate the optimizer/backend process split: plan a query, encode,
     decode in a "different process", execute *)
  let session = Gopt.Session.create graph in
  let phys, _ =
    Gopt.plan_cypher session
      "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:LIVES_IN]->(c:City) RETURN count(*) AS n"
  in
  let transferred = Codec.decode (Codec.encode phys) in
  let r, _ = Engine.run graph transferred in
  Alcotest.(check int) "one row" 1 (Batch.n_rows r)

(* --- SKIP -------------------------------------------------------------------- *)

let test_skip_operator () =
  let session = Gopt.Session.create graph in
  let all =
    Gopt.run_cypher session "MATCH (a:Person) RETURN a.name AS n ORDER BY n ASC"
  in
  let skipped =
    Gopt.run_cypher session "MATCH (a:Person) RETURN a.name AS n ORDER BY n ASC SKIP 2"
  in
  let page =
    Gopt.run_cypher session
      "MATCH (a:Person) RETURN a.name AS n ORDER BY n ASC SKIP 1 LIMIT 2"
  in
  Alcotest.(check int) "all" 4 (Batch.n_rows all.Gopt.result);
  Alcotest.(check int) "skip 2" 2 (Batch.n_rows skipped.Gopt.result);
  Alcotest.(check int) "page" 2 (Batch.n_rows page.Gopt.result);
  (* the page is rows 1..2 of the ordered output *)
  let name batch i =
    match (Batch.row batch i).(0) with
    | Gopt_exec.Rval.Rval (Value.Str s) -> s
    | _ -> Alcotest.fail "expected string"
  in
  Alcotest.(check string) "offset correct" (name all.Gopt.result 1) (name page.Gopt.result 0)

let test_unwind () =
  let session = Gopt.Session.create graph in
  let out =
    Gopt.run_cypher session
      "MATCH (a:Person) WITH collect(a.name) AS names UNWIND names AS n RETURN n ORDER BY n ASC"
  in
  Alcotest.(check int) "collect/unwind roundtrip" 4 (Batch.n_rows out.Gopt.result);
  (match (Batch.row out.Gopt.result 0).(0) with
  | Gopt_exec.Rval.Rval (Value.Str "p0") -> ()
  | _ -> Alcotest.fail "expected p0 first");
  (* unwinding a path yields its vertices *)
  let out2 =
    Gopt.run_cypher session
      "MATCH (a:Person {name: 'p0'})-[p:KNOWS*2..2]->(b:Person) UNWIND p AS step RETURN count(step) AS c"
  in
  match (Batch.row out2.Gopt.result 0).(0) with
  | Gopt_exec.Rval.Rval (Value.Int 6) -> () (* 2 paths x 3 vertices *)
  | v ->
    Alcotest.failf "expected 6 path vertices, got %s"
      (Format.asprintf "%a" (Gopt_exec.Rval.pp graph) v)

let test_glogue_sparsify () =
  let g = Gopt_workloads.Ldbc.generate ~persons:400 () in
  let exact = Glogue.build g in
  let sampled = Glogue.build ~sparsify:0.5 g in
  (* vertex counts stay exact *)
  Alcotest.(check (float 1e-9)) "vertex exact"
    (Glogue.vertex_freq exact 0) (Glogue.vertex_freq sampled 0);
  (* a large wedge motif is estimated within a factor of 2 *)
  let knows = Gopt_graph.Schema.etype_id (Gopt_graph.Property_graph.schema g) "KNOWS" in
  let person = Gopt_graph.Schema.vtype_id (Gopt_graph.Property_graph.schema g) "Person" in
  let wedge =
    Pattern.create
      [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic person); pv "c" (Tc.Basic person) |]
      [| pe "e1" 0 1 (Tc.Basic knows); pe "e2" 1 2 (Tc.Basic knows) |]
  in
  match Glogue.find exact wedge, Glogue.find sampled wedge with
  | Some ex, Some sp ->
    Alcotest.(check bool) "estimate in range" true (sp > ex /. 2.0 && sp < ex *. 2.0)
  | _ -> Alcotest.fail "wedge missing from a store"

let test_skip_fusion_rule () =
  let module Logical = Gopt_gir.Logical in
  let plan =
    Logical.Limit
      (Logical.Skip (Logical.Order (Logical.Match p_knows, [ (Expr.Var "a", Logical.Asc) ], None), 3), 2)
  in
  match Gopt_opt.Rules_relational.limit_pushdown.Gopt_opt.Rule.apply plan with
  | Some (Logical.Skip (Logical.Order (_, _, Some 5), 3)) -> ()
  | _ -> Alcotest.fail "expected order/skip/limit fusion"

(* property: random plan encode/decode is the identity on plan text *)
let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec roundtrip on random plans" ~count:60 QCheck.small_int
    (fun seed ->
      let rng = Gopt_util.Prng.create seed in
      let phys, _ = Gopt_opt.Baselines.random_plan rng Spec.graphscope p_triangle in
      let phys = if Gopt_util.Prng.bool rng then Physical.Dedup (phys, [ "a" ]) else phys in
      Physical.to_string (Codec.decode (Codec.encode phys)) = Physical.to_string phys)

let () =
  Alcotest.run "extensions"
    [
      ( "graph_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_graph_io_roundtrip;
          Alcotest.test_case "escaping" `Quick test_graph_io_escaping;
          Alcotest.test_case "ldbc roundtrip" `Quick test_graph_io_ldbc_roundtrip;
          Alcotest.test_case "file io" `Quick test_graph_io_file;
          Alcotest.test_case "malformed input" `Quick test_graph_io_malformed;
        ] );
      ( "schema_discovery",
        [
          Alcotest.test_case "observed schema" `Quick test_schema_discovery;
          Alcotest.test_case "tightens inference" `Quick test_observed_schema_tightens_inference;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "equality" `Quick test_histogram_equality;
          Alcotest.test_case "range" `Quick test_histogram_range;
          Alcotest.test_case "in list" `Quick test_histogram_in_list;
          Alcotest.test_case "unknown prop" `Quick test_histogram_unknown_prop;
          Alcotest.test_case "feeds estimator" `Quick test_histogram_feeds_estimator;
        ] );
      ( "plan_codec",
        [
          Alcotest.test_case "sexp roundtrip" `Quick test_sexp_roundtrip;
          Alcotest.test_case "plan roundtrip" `Quick test_plan_codec_roundtrip;
          Alcotest.test_case "version check" `Quick test_plan_codec_version_check;
          Alcotest.test_case "transfer + execute" `Quick test_plan_codec_executes_after_transfer;
        ] );
      ( "skip",
        [
          Alcotest.test_case "operator" `Quick test_skip_operator;
          Alcotest.test_case "fusion rule" `Quick test_skip_fusion_rule;
          Alcotest.test_case "unwind" `Quick test_unwind;
        ] );
      ( "sparsification",
        [ Alcotest.test_case "sampled counts" `Quick test_glogue_sparsify ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_codec_roundtrip ]);
    ]

(* Regression tests for crashes and races found by fuzzing and review:

   - the LDBC generator at small scales (an out-of-bounds person index for
     2..59 persons), and the default benchmark graph staying byte-identical;
   - integer literals past [max_int] raising [Lexer.Lex_error] with the
     literal's position, in Cypher and in Gremlin;
   - the session estimator's memo shared by 4 planning domains. *)

module G = Gopt_graph.Property_graph
module Ldbc = Gopt_workloads.Ldbc
module Queries = Gopt_workloads.Queries
module Lexer = Gopt_lang.Lexer
module Gq = Gopt_glogue.Glogue_query

(* --- generator ------------------------------------------------------------ *)

let test_small_scales () =
  List.iter
    (fun persons ->
      let g = Ldbc.generate ~persons () in
      Alcotest.(check bool)
        (Printf.sprintf "%d persons: a non-empty graph" persons)
        true
        (G.n_vertices g > persons && G.n_edges g > 0))
    [ 2; 10; 59 ]

let test_benchmark_graph () =
  let g = Ldbc.generate ~seed:42 ~persons:1000 () in
  Alcotest.(check int) "vertices" 7430 (G.n_vertices g);
  Alcotest.(check int) "edges" 50043 (G.n_edges g)

(* --- lexer ------------------------------------------------------------------ *)

let huge = "99999999999999999999"

let check_lex_error name expected_pos f =
  match f () with
  | _ -> Alcotest.failf "%s: parsed an out-of-range integer literal" name
  | exception Lexer.Lex_error (msg, pos) ->
    Alcotest.(check int) (name ^ ": position of the literal") expected_pos pos;
    Alcotest.(check bool) (name ^ ": message names the literal") true
      (Gopt_exec.Eval.contains ~sub:huge msg)

let test_lex_cypher () =
  let q = "MATCH (p:Person) WHERE p.id = " ^ huge ^ " RETURN p" in
  check_lex_error "cypher" (String.index q '9') (fun () -> Gopt_lang.Cypher_parser.parse q);
  (* max_int itself still lexes *)
  ignore
    (Gopt_lang.Cypher_parser.parse
       (Printf.sprintf "MATCH (p:Person) WHERE p.id = %d RETURN p" max_int))

let test_lex_gremlin () =
  let q = "g.V().hasLabel('Person').limit(" ^ huge ^ ")" in
  check_lex_error "gremlin" (String.index q '9') (fun () ->
      Gopt_lang.Gremlin_parser.parse Fixtures.schema q)

(* --- estimator memo under domains ----------------------------------------- *)

(* 4 domains estimate every QC/QR/BI pattern concurrently on one fresh
   estimator (each in its own order, so memo reads and writes interleave);
   every estimate must equal the one a sequential run on a second fresh
   estimator gives *)
let test_estimator_domains () =
  let g = Ldbc.generate ~persons:60 () in
  let schema = G.schema g in
  let patterns =
    List.map
      (fun (q : Queries.query) -> Queries.pattern_of_cypher schema q.Queries.cypher)
      (Queries.qc @ Queries.qr @ Queries.bi)
    |> Array.of_list
  in
  let n = Array.length patterns in
  let reference =
    let gq = Gopt.Session.estimator (Gopt.Session.create g) in
    Array.map (Gq.get_freq gq) patterns
  in
  let shared = Gopt.Session.estimator (Gopt.Session.create g) in
  let worker id () =
    Array.init (3 * n) (fun k ->
        let i = ((k * (2 * id + 1)) + id) mod n in
        (i, Gq.get_freq shared patterns.(i)))
  in
  let domains = List.init 4 (fun id -> Domain.spawn (worker id)) in
  List.iter
    (fun d ->
      Array.iter
        (fun (i, f) ->
          Alcotest.(check (float 0.0)) (Printf.sprintf "pattern %d estimate" i) reference.(i) f)
        (Domain.join d))
    domains;
  Alcotest.(check bool) "memo populated" true (Gq.cache_size shared > 0)

let () =
  Alcotest.run "robustness"
    [
      ( "generator",
        [
          Alcotest.test_case "2, 10 and 59 persons" `Quick test_small_scales;
          Alcotest.test_case "seed 42, 1000 persons unchanged" `Quick test_benchmark_graph;
        ] );
      ( "lexer",
        [
          Alcotest.test_case "cypher: integer out of range" `Quick test_lex_cypher;
          Alcotest.test_case "gremlin: integer out of range" `Quick test_lex_gremlin;
        ] );
      ( "estimator",
        [ Alcotest.test_case "4 domains sharing the memo" `Quick test_estimator_domains ] );
    ]

module Pattern = Gopt_pattern.Pattern
module Tc = Gopt_pattern.Type_constraint
module Mc = Gopt_glogue.Motif_counter
module Glogue = Gopt_glogue.Glogue
module Gq = Gopt_glogue.Glogue_query
module Prng = Gopt_util.Prng
open Fixtures

let glogue = Glogue.build graph
let gq = Gq.create glogue

let check_f = Alcotest.(check (float 1e-6))

let test_hom_counts () =
  check_f "knows edges" 5.0 (Mc.count_homomorphisms graph p_knows);
  check_f "triangle" 1.0 (Mc.count_homomorphisms graph p_triangle);
  check_f "to city" 6.0 (Mc.count_homomorphisms graph p_to_city);
  (* out-fork via KNOWS: sum of squared out-degrees = 4+1+1+1 *)
  let fork =
    Pattern.create
      [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic person); pv "c" (Tc.Basic person) |]
      [| pe "e1" 0 1 (Tc.Basic knows); pe "e2" 0 2 (Tc.Basic knows) |]
  in
  check_f "fork" 7.0 (Mc.count_homomorphisms graph fork);
  (* path a->b->c via KNOWS: sum over b of in*out = p1:1*1 + p2:2*1 + p3:1*1 + p0:1*2 *)
  let path =
    Pattern.create
      [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic person); pv "c" (Tc.Basic person) |]
      [| pe "e1" 0 1 (Tc.Basic knows); pe "e2" 1 2 (Tc.Basic knows) |]
  in
  check_f "path" 6.0 (Mc.count_homomorphisms graph path)

let test_hom_undirected () =
  let p =
    Pattern.create
      [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic person) |]
      [| pe ~directed:false "e" 0 1 (Tc.Basic knows) |]
  in
  (* each directed KNOWS edge matches twice (once per orientation of the
     binding), so 2 * 5 *)
  check_f "undirected knows" 10.0 (Mc.count_homomorphisms graph p)

let test_glogue_lookup () =
  check_f "person count" 4.0 (Glogue.vertex_freq glogue person);
  check_f "knows triple" 5.0 (Glogue.triple_freq glogue ~src:person ~etype:knows ~dst:person);
  (match Glogue.find glogue p_knows with
  | Some f -> check_f "stored single edge" 5.0 f
  | None -> Alcotest.fail "single edge motif missing");
  match Glogue.find glogue p_triangle with
  | Some f -> check_f "stored triangle" 1.0 f
  | None -> Alcotest.fail "triangle motif missing"

(* All stored <=3-vertex motifs agree with the brute-force counter. *)
let test_glogue_matches_brute_force () =
  (* sample: check the wedge motifs from the schema around Person *)
  let combos =
    [
      (pe "e1" 0 1 (Tc.Basic knows), pe "e2" 0 2 (Tc.Basic knows), person, person, person);
      (pe "e1" 0 1 (Tc.Basic knows), pe "e2" 2 0 (Tc.Basic knows), person, person, person);
      (pe "e1" 1 0 (Tc.Basic knows), pe "e2" 2 0 (Tc.Basic knows), person, person, person);
      (pe "e1" 0 1 (Tc.Basic lives_in), pe "e2" 0 2 (Tc.Basic knows), person, city, person);
      (pe "e1" 1 0 (Tc.Basic lives_in), pe "e2" 2 0 (Tc.Basic produced_in), city, person, product);
    ]
  in
  List.iter
    (fun (e1, e2, t0, t1, t2) ->
      let p =
        Pattern.create [| pv "x" (Tc.Basic t0); pv "y" (Tc.Basic t1); pv "z" (Tc.Basic t2) |] [| e1; e2 |]
      in
      let brute = Mc.count_homomorphisms graph p in
      match Glogue.find glogue p with
      | Some f -> check_f (Pattern.to_string p) brute f
      | None -> Alcotest.failf "motif missing: %s" (Pattern.to_string p))
    combos

let test_query_exact_on_stored () =
  check_f "single vertex" 4.0 (Gq.get_freq gq (Pattern.single_vertex p_knows 0));
  check_f "single edge" 5.0 (Gq.get_freq gq p_knows);
  check_f "triangle exact" 1.0 (Gq.get_freq gq p_triangle)

let test_query_union_edge () =
  (* (a:ANY)-[:ANY]->(b:City) = LIVES_IN + PRODUCED_IN = 6, exact via triple sums *)
  check_f "union edge" 6.0 (Gq.get_freq gq p_to_city)

let test_query_estimation_square () =
  (* square (4-cycle) of KNOWS: estimated, must be positive and finite *)
  let square =
    Pattern.create
      (Array.init 4 (fun i -> pv (Printf.sprintf "v%d" i) (Tc.Basic person)))
      [|
        pe "e1" 0 1 (Tc.Basic knows);
        pe "e2" 1 2 (Tc.Basic knows);
        pe "e3" 2 3 (Tc.Basic knows);
        pe "e4" 3 0 (Tc.Basic knows);
      |]
  in
  let est = Gq.get_freq gq square in
  Alcotest.(check bool) "positive" true (est > 0.0);
  Alcotest.(check bool) "finite" true (Float.is_finite est)

let test_query_selectivity () =
  let pred = Gopt_pattern.Expr.(Binop (Eq, Prop ("a", "name"), Const (Gopt_graph.Value.Str "p0"))) in
  let p =
    Pattern.create
      [| pv ~pred "a" (Tc.Basic person); pv "b" (Tc.Basic person) |]
      [| pe "k" 0 1 (Tc.Basic knows) |]
  in
  check_f "selectivity applied" 0.5 (Gq.get_freq gq p)

(* A [$param] is a constant of unknown value: equality estimates never read
   the value, so [a.k = $x] (either way round, on a vertex or an edge)
   estimates exactly like [a.k = <any literal>] — from the histogram, or
   from the id point-lookup fallback, or the default. Ranges need the value
   and keep the default against a [$param]. *)
let test_query_param_selectivity () =
  let open Gopt_pattern.Expr in
  let module Value = Gopt_graph.Value in
  let with_hist = Gq.create ~histograms:(Gopt_glogue.Histograms.build graph) glogue in
  let on_a pred =
    Pattern.create
      [| pv ~pred "a" (Tc.Basic person); pv "b" (Tc.Basic person) |]
      [| pe "k" 0 1 (Tc.Basic knows) |]
  in
  let on_k pred =
    Pattern.create
      [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic person) |]
      [| Pattern.mk_edge ~pred ~alias:"k" ~src:0 ~dst:1 (Tc.Basic knows) |]
  in
  List.iter
    (fun (name, gq) ->
      List.iter
        (fun (elem, tag, mk) ->
          List.iter
            (fun key ->
              let param = mk (Binop (Eq, Prop (tag, key), Param "x")) in
              let flipped = mk (Binop (Eq, Param "x", Prop (tag, key))) in
              List.iter
                (fun v ->
                  let literal = mk (Binop (Eq, Prop (tag, key), Const v)) in
                  let label =
                    Printf.sprintf "%s, %s.%s = $x vs %s" name elem key (Value.to_string v)
                  in
                  check_f label (Gq.get_freq gq literal) (Gq.get_freq gq param);
                  check_f (label ^ " (flipped)") (Gq.get_freq gq literal) (Gq.get_freq gq flipped))
                [ Value.Int 3; Value.Int 12345; Value.Str "p0"; Value.Str "nope" ])
            [ "id"; "name"; "age"; "since" ])
        [ ("vertex", "a", on_a); ("edge", "k", on_k) ])
    [ ("no histograms", gq); ("histograms", with_hist) ];
  (* the id fallback is the point-lookup estimate, not the 0.1 default *)
  check_f "id point lookup" (5.0 /. 4.0)
    (Gq.get_freq gq (on_a (Binop (Eq, Prop ("a", "id"), Param "x"))));
  let range = on_a (Binop (Gt, Prop ("a", "age"), Param "x")) in
  check_f "range against $x: default" (5.0 *. Gq.selectivity gq) (Gq.get_freq with_hist range)

let test_low_order_differs () =
  let lo = Gq.create ~mode:Gq.Low_order glogue in
  (* triangle: high-order exact = 1; low-order decomposes to wedge*sigma *)
  let hi_est = Gq.get_freq gq p_triangle in
  let lo_est = Gq.get_freq lo p_triangle in
  check_f "high exact" 1.0 hi_est;
  Alcotest.(check bool) "low order is an estimate" true (Float.abs (lo_est -. 1.0) > 1e-9)

let test_disconnected_product () =
  let p =
    Pattern.create [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic city) |] [||]
  in
  check_f "cartesian" 8.0 (Gq.get_freq gq p)

let test_var_length_freq () =
  let p =
    Pattern.create
      [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic person) |]
      [| pe ~hops:(2, 2) "e" 0 1 (Tc.Basic knows) |]
  in
  (* 2-hop walk estimate: 4 persons * (5/4)^2 = 6.25 *)
  check_f "2-hop estimate" 6.25 (Gq.get_freq gq p)

(* Eq. 2 worked example (the paper's Fig. 6 analog, on the fixture graph):
   estimating a pattern one edge beyond GLogue's stored motifs composes the
   exact 3-vertex prefix with expand ratios. *)
let test_eq2_worked_example () =
  (* 4-vertex path: (a:Person)-KNOWS->(b:Person)-KNOWS->(c:Person)-LIVES_IN->(d:City).
     Eq. 2 peels the first minimum-degree vertex, which is [a]:
     est = F(KNOWS-LIVES_IN wedge, exact = 5) * sigma(KNOWS into b)
     sigma case 1 (new vertex a) = F(KNOWS) / F(Person) = 5/4 *)
  let path4 =
    Pattern.create
      [|
        pv "a" (Tc.Basic person); pv "b" (Tc.Basic person); pv "c" (Tc.Basic person);
        pv "d" (Tc.Basic city);
      |]
      [|
        pe "e1" 0 1 (Tc.Basic knows); pe "e2" 1 2 (Tc.Basic knows);
        pe "e3" 2 3 (Tc.Basic lives_in);
      |]
  in
  check_f "path4 estimate" (5.0 *. (5.0 /. 4.0)) (Gq.get_freq gq path4);
  (* 4-cycle of KNOWS: est = F(3-path) * sigma_closing
     sigma case 2 (d already bound) = F(KNOWS) / (F(Person) * F(Person)) = 5/16 *)
  let square =
    Pattern.create
      (Array.init 4 (fun i -> pv (Printf.sprintf "v%d" i) (Tc.Basic person)))
      [|
        pe "e1" 0 1 (Tc.Basic knows); pe "e2" 1 2 (Tc.Basic knows);
        pe "e3" 2 3 (Tc.Basic knows); pe "e4" 0 3 (Tc.Basic knows);
      |]
  in
  (* peeling v3: base = 2-edge path (exact 6); two incident edges: first
     introduces v3 (sigma = 5/4), second closes onto v0 (sigma = 5/16) *)
  check_f "square estimate" (6.0 *. (5.0 /. 4.0) *. (5.0 /. 16.0)) (Gq.get_freq gq square)

(* property: estimator is exact on every motif that the store contains *)
let prop_estimator_exact_on_motifs =
  QCheck.Test.make ~name:"estimator exact on stored basic motifs" ~count:60 QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      let triples = Gopt_graph.Schema.triples schema in
      let s, e, d = triples.(Prng.int rng (Array.length triples)) in
      let p =
        Pattern.create
          [| pv "a" (Tc.Basic s); pv "b" (Tc.Basic d) |]
          [| pe "e" 0 1 (Tc.Basic e) |]
      in
      let brute = Mc.count_homomorphisms graph p in
      Float.abs (Gq.get_freq gq p -. brute) < 1e-6)

let () =
  Alcotest.run "glogue"
    [
      ( "motif_counter",
        [
          Alcotest.test_case "hom counts" `Quick test_hom_counts;
          Alcotest.test_case "undirected" `Quick test_hom_undirected;
        ] );
      ( "store",
        [
          Alcotest.test_case "lookups" `Quick test_glogue_lookup;
          Alcotest.test_case "matches brute force" `Quick test_glogue_matches_brute_force;
        ] );
      ( "query",
        [
          Alcotest.test_case "exact on stored" `Quick test_query_exact_on_stored;
          Alcotest.test_case "union edge" `Quick test_query_union_edge;
          Alcotest.test_case "square estimation" `Quick test_query_estimation_square;
          Alcotest.test_case "selectivity" `Quick test_query_selectivity;
          Alcotest.test_case "low vs high order" `Quick test_low_order_differs;
          Alcotest.test_case "disconnected product" `Quick test_disconnected_product;
          Alcotest.test_case "var length" `Quick test_var_length_freq;
          Alcotest.test_case "eq2 worked example (fig 6 analog)" `Quick test_eq2_worked_example;
          Alcotest.test_case "$param selectivity = literal" `Quick test_query_param_selectivity;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_estimator_exact_on_motifs ]);
    ]

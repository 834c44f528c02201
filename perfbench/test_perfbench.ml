(* Tests of the math the benchmark reports with: quantiles and the
   percentile rule, the geometric mean, span self time, and the tie-aware
   comparison of query results. *)

module Stats = Perfbench.Stats
module Spans = Perfbench.Spans
module Rc = Perfbench.Result_check
module Physical = Gopt_opt.Physical
module Batch = Gopt_exec.Batch
module Rval = Gopt_exec.Rval
module Value = Gopt_graph.Value
module Expr = Gopt_pattern.Expr

let close = Alcotest.float 1e-9

let test_incomplete_beta () =
  List.iter
    (fun x ->
      Alcotest.check close "I_x(1, 1) = x" x (Stats.beta_inc 1.0 1.0 x);
      Alcotest.check close "I_x(3, 1) = x^3" (x ** 3.0) (Stats.beta_inc 3.0 1.0 x);
      Alcotest.check close "I_x(1, 4) = 1 - (1 - x)^4" (1.0 -. ((1.0 -. x) ** 4.0)) (Stats.beta_inc 1.0 4.0 x);
      Alcotest.check close "symmetry" (1.0 -. Stats.beta_inc 7.5 2.5 (1.0 -. x)) (Stats.beta_inc 2.5 7.5 x))
    [ 0.05; 0.3; 0.5; 0.77; 0.99 ];
  Alcotest.check close "I_0.5(a, a) = 1/2" 0.5 (Stats.beta_inc 400.0 400.0 0.5);
  (* reference value from mpmath *)
  Alcotest.check (Alcotest.float 1e-6) "I_0.3(2.5, 4)" 0.3521975859 (Stats.beta_inc 2.5 4.0 0.3)

let test_quantiles () =
  Alcotest.check close "median of odd count" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check close "median of even count" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.check close "median of a constant" 4.2 (Stats.median (List.init 50 (fun _ -> 4.2)));
  (* reference values from mpmath's regularized incomplete beta *)
  Alcotest.check (Alcotest.float 1e-6) "p90 of 1..11" 10.3495594
    (Stats.quantile (List.init 11 (fun i -> float_of_int (i + 1))) 0.9);
  Alcotest.check (Alcotest.float 1e-6) "median with an outlier" 14.6521598
    (Stats.median [ 100.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "one sample" 7.0 (Stats.quantile [ 7.0 ] 0.9);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.quantile: no samples") (fun () ->
      ignore (Stats.median []));
  (* a quantile between two clusters moves with the share of each cluster,
     not by a jump from one cluster's edge to the other's *)
  let mix k = List.init k (fun _ -> 1.0) @ List.init (100 - k) (fun _ -> 10.0) in
  let m49 = Stats.median (mix 49) and m50 = Stats.median (mix 50) and m51 = Stats.median (mix 51) in
  Alcotest.(check bool) "between the clusters" true (m51 < m50 && m50 < m49);
  Alcotest.(check bool) "no jump at the boundary" true (m49 -. m51 < 4.5)

let test_percentile_rule () =
  let check n want =
    Alcotest.(check (option int)) (Printf.sprintf "%d samples" n) want (Stats.highest_percentile n)
  in
  check 0 None;
  check 19 None;
  check 20 (Some 500);
  check 99 (Some 500);
  check 100 (Some 900);
  check 999 (Some 900);
  check 1000 (Some 990);
  check 10_000 (Some 999);
  Alcotest.(check int) "samples beyond p90 of 100" 10 (Stats.beyond ~n:100 900);
  Alcotest.(check int) "samples beyond p90 of 101" 10 (Stats.beyond ~n:101 900);
  Alcotest.(check int) "samples beyond p99.9 of 10000" 10 (Stats.beyond ~n:10_000 999)

let test_geomean () =
  Alcotest.check close "geomean of 1, 100" 10.0 (Stats.geomean [ 1.0; 100.0 ]);
  Alcotest.check close "geomean of equal values" 4.0 (Stats.geomean [ 4.0; 4.0; 4.0 ]);
  Alcotest.check close "geomean of 2, 8, 4" 4.0 (Stats.geomean [ 2.0; 8.0; 4.0 ]);
  Alcotest.check_raises "zero sample"
    (Invalid_argument "Stats.geomean: every sample must be positive") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

let span ?(parent = -1) id start stop =
  { Spans.id; name = string_of_int id; start_ns = Int64.of_int start; stop_ns = Int64.of_int stop;
    parent; request = 0 }

let self_of spans id =
  snd (List.find (fun ((s : Spans.span), _) -> s.id = id) (Spans.self_times spans))

let test_self_time () =
  (* root 0..100 with children 10..30 and 50..60; child 1 has a grandchild *)
  let spans =
    [ span 0 0 100; span ~parent:0 1 10 30; span ~parent:0 2 50 60; span ~parent:1 3 15 20 ]
  in
  Alcotest.check close "root minus its children" 70.0 (self_of spans 0);
  Alcotest.check close "child minus grandchild" 15.0 (self_of spans 1);
  Alcotest.check close "leaf is its duration" 10.0 (self_of spans 2);
  (* overlapping children, and a child running past its parent's end *)
  let spans = [ span 0 0 100; span ~parent:0 1 10 40; span ~parent:0 2 30 50; span ~parent:0 3 90 120 ] in
  Alcotest.check close "overlaps counted once, clipped" 50.0 (self_of spans 0)

let test_recorder () =
  let t = Spans.create () in
  Spans.set_request t 4;
  let r = Spans.record t "outer" (fun () -> Spans.record t "inner" (fun () -> 42)) in
  Alcotest.(check int) "value passes through" 42 r;
  (try Spans.record t "raises" (fun () -> failwith "boom") with Failure _ -> ());
  match Spans.spans t with
  | [ inner; outer; raised ] ->
    Alcotest.(check string) "inner first to close" "inner" inner.Spans.name;
    Alcotest.(check int) "inner's parent" outer.Spans.id inner.Spans.parent;
    Alcotest.(check int) "outer is a root" (-1) outer.Spans.parent;
    Alcotest.(check int) "request id" 4 inner.Spans.request;
    Alcotest.(check int) "a raising span is kept, as a root" (-1) raised.Spans.parent
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

(* --- tie-aware comparison ------------------------------------------------------- *)

let int v = Rval.Rval (Value.Int v)
let batch fields rows = Rc.canonical (Batch.of_rows fields (List.map Array.of_list rows))
let scan = Physical.Scan { alias = "a"; con = Gopt_pattern.Type_constraint.All; pred = None }
let project = Physical.Project (scan, [ (Expr.Var "a", "k"); (Expr.Prop ("a", "x"), "v") ])
let top_k = Physical.Order (project, [ (Expr.Var "k", Gopt_gir.Logical.Desc) ], Some 2)

let test_rules () =
  Alcotest.(check bool) "no cut: bag" true (Rc.rule_of_plan project = Rc.Bag);
  Alcotest.(check bool) "unlimited order: bag" true
    (Rc.rule_of_plan (Physical.Order (project, [ (Expr.Var "k", Gopt_gir.Logical.Asc) ], None)) = Rc.Bag);
  Alcotest.(check bool) "top-k on an output column: its keys" true
    (Rc.rule_of_plan top_k = Rc.Keys [ "k" ]);
  Alcotest.(check bool) "limit over top-k: its keys" true
    (Rc.rule_of_plan (Physical.Limit (top_k, 1)) = Rc.Keys [ "k" ]);
  Alcotest.(check bool) "limit without order: count" true
    (Rc.rule_of_plan (Physical.Limit (project, 3)) = Rc.Count);
  Alcotest.(check bool) "order on an expression: count" true
    (Rc.rule_of_plan
       (Physical.Order (project, [ (Expr.Prop ("a", "y"), Gopt_gir.Logical.Asc) ], Some 2))
    = Rc.Count);
  Alcotest.(check bool) "cut below the top-k: count" true
    (Rc.rule_of_plan
       (Physical.Order (Physical.Limit (project, 5), [ (Expr.Var "k", Gopt_gir.Logical.Asc) ], Some 2))
    = Rc.Count);
  Alcotest.(check bool) "weaker of bag and keys" true (Rc.weaker Rc.Bag (Rc.Keys [ "k" ]) = Rc.Keys [ "k" ]);
  Alcotest.(check bool) "weaker of different keys" true
    (Rc.weaker (Rc.Keys [ "k" ]) (Rc.Keys [ "v" ]) = Rc.Count)

let test_bag_compare () =
  let a = batch [ "k"; "v" ] [ [ int 1; int 10 ]; [ int 2; int 20 ]; [ int 2; int 21 ] ] in
  let reordered = batch [ "k"; "v" ] [ [ int 2; int 21 ]; [ int 1; int 10 ]; [ int 2; int 20 ] ] in
  let other_tie = batch [ "k"; "v" ] [ [ int 1; int 10 ]; [ int 2; int 20 ]; [ int 2; int 22 ] ] in
  let other_key = batch [ "k"; "v" ] [ [ int 1; int 10 ]; [ int 2; int 20 ]; [ int 3; int 21 ] ] in
  let short = batch [ "k"; "v" ] [ [ int 1; int 10 ]; [ int 2; int 20 ] ] in
  let renamed = batch [ "k"; "w" ] [ [ int 1; int 10 ]; [ int 2; int 20 ]; [ int 2; int 21 ] ] in
  let dup = batch [ "k"; "v" ] [ [ int 1; int 10 ]; [ int 1; int 10 ]; [ int 2; int 21 ] ] in
  let agree rule x y = Rc.agree rule x y in
  Alcotest.(check bool) "bag ignores order" true (agree Rc.Bag a reordered);
  Alcotest.(check bool) "bag sees another tied row" false (agree Rc.Bag a other_tie);
  Alcotest.(check bool) "bag counts duplicates" false (agree Rc.Bag a dup);
  Alcotest.(check bool) "keys allow another tied row" true (agree (Rc.Keys [ "k" ]) a other_tie);
  Alcotest.(check bool) "keys see another key" false (agree (Rc.Keys [ "k" ]) a other_key);
  Alcotest.(check bool) "count allows another key" true (agree Rc.Count a other_key);
  Alcotest.(check bool) "count sees a missing row" false (agree Rc.Count a short);
  Alcotest.(check bool) "fields always compared" false (agree Rc.Count a renamed)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "incomplete beta" `Quick test_incomplete_beta;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "geometric mean" `Quick test_geomean;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ( "results",
        [
          Alcotest.test_case "comparison rule of a plan" `Quick test_rules;
          Alcotest.test_case "tie-aware bag comparison" `Quick test_bag_compare;
        ] );
    ]

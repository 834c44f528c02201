(* Shared tiny fixtures for unit tests: a miniature social-network schema and
   a hand-built graph with counts small enough to verify by hand. *)

module Schema = Gopt_graph.Schema
module G = Gopt_graph.Property_graph
module Value = Gopt_graph.Value

let schema =
  Schema.create
    ~vtypes:
      [
        ("Person", [ ("name", Schema.P_string); ("age", Schema.P_int) ]);
        ("City", [ ("name", Schema.P_string) ]);
        ("Product", [ ("name", Schema.P_string) ]);
      ]
    ~etypes:
      [
        ("KNOWS", [ ("since", Schema.P_int) ]);
        ("LIVES_IN", []);
        ("PRODUCED_IN", []);
        ("PURCHASED", []);
      ]
    ~triples:
      [
        ("Person", "KNOWS", "Person");
        ("Person", "LIVES_IN", "City");
        ("Product", "PRODUCED_IN", "City");
        ("Person", "PURCHASED", "Product");
      ]

let person = Schema.vtype_id schema "Person"
let city = Schema.vtype_id schema "City"
let product = Schema.vtype_id schema "Product"
let knows = Schema.etype_id schema "KNOWS"
let lives_in = Schema.etype_id schema "LIVES_IN"
let produced_in = Schema.etype_id schema "PRODUCED_IN"
let purchased = Schema.etype_id schema "PURCHASED"

(* Graph:
     persons p0..p3, cities c0..c1, products g0..g1
     KNOWS: p0->p1, p0->p2, p1->p2, p2->p3, p3->p0
     LIVES_IN: p0->c0, p1->c0, p2->c1, p3->c1
     PRODUCED_IN: g0->c0, g1->c1
     PURCHASED: p0->g0, p1->g0, p2->g1 *)
let graph =
  let b = G.Builder.create schema in
  let p = Array.init 4 (fun i ->
      G.Builder.add_vertex b ~vtype:person
        [ ("name", Value.Str (Printf.sprintf "p%d" i)); ("age", Value.Int (20 + i)) ])
  in
  let c = Array.init 2 (fun i ->
      G.Builder.add_vertex b ~vtype:city [ ("name", Value.Str (Printf.sprintf "c%d" i)) ])
  in
  let g = Array.init 2 (fun i ->
      G.Builder.add_vertex b ~vtype:product [ ("name", Value.Str (Printf.sprintf "g%d" i)) ])
  in
  let e s d t = ignore (G.Builder.add_edge b ~src:s ~dst:d ~etype:t []) in
  e p.(0) p.(1) knows;
  e p.(0) p.(2) knows;
  e p.(1) p.(2) knows;
  e p.(2) p.(3) knows;
  e p.(3) p.(0) knows;
  e p.(0) c.(0) lives_in;
  e p.(1) c.(0) lives_in;
  e p.(2) c.(1) lives_in;
  e p.(3) c.(1) lives_in;
  e g.(0) c.(0) produced_in;
  e g.(1) c.(1) produced_in;
  e p.(0) g.(0) purchased;
  e p.(1) g.(0) purchased;
  e p.(2) g.(1) purchased;
  G.Builder.freeze b

(* Pattern helpers *)
module Pattern = Gopt_pattern.Pattern
module Tc = Gopt_pattern.Type_constraint

let pv ?pred alias con = Pattern.mk_vertex ?pred ~alias con

let pe ?directed ?hops alias src dst con = Pattern.mk_edge ?directed ?hops ~alias ~src ~dst con

(* (a:Person)-[k:KNOWS]->(b:Person) *)
let p_knows =
  Pattern.create
    [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic person) |]
    [| pe "k" 0 1 (Tc.Basic knows) |]

(* triangle a-KNOWS->b-KNOWS->c, a-KNOWS->c *)
let p_triangle =
  Pattern.create
    [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic person); pv "c" (Tc.Basic person) |]
    [| pe "e1" 0 1 (Tc.Basic knows); pe "e2" 1 2 (Tc.Basic knows); pe "e3" 0 2 (Tc.Basic knows) |]

(* (a:ANY)-[:ANY]->(b:City) *)
let p_to_city =
  Pattern.create
    [| pv "a" Tc.All; pv "b" (Tc.Basic city) |]
    [| pe "e" 0 1 Tc.All |]

(* A larger instance of the Fixtures schema, sized so that morsel_size 16
   splits every scan into several morsels (90 persons -> 6 morsels).
   Property values reuse the Fixtures naming scheme ('p0'..'p7', ...) so the
   constants produced by [Gen_query] select non-trivial subsets, and the
   mod-8 names create genuine duplicate keys for DISTINCT / group-by. *)
let big_graph =
  let rng = Gopt_util.Prng.create 7 in
  let b = G.Builder.create schema in
  let persons =
    Array.init 90 (fun i ->
        G.Builder.add_vertex b ~vtype:person
          [
            ("name", Value.Str (Printf.sprintf "p%d" (i mod 8)));
            ("age", Value.Int (Gopt_util.Prng.int_in rng 18 60));
          ])
  in
  let cities =
    Array.init 6 (fun i ->
        G.Builder.add_vertex b ~vtype:city
          [ ("name", Value.Str (Printf.sprintf "c%d" i)) ])
  in
  let products =
    Array.init 12 (fun i ->
        G.Builder.add_vertex b ~vtype:product
          [ ("name", Value.Str (Printf.sprintf "g%d" (i mod 8))) ])
  in
  let pick a = a.(Gopt_util.Prng.int rng (Array.length a)) in
  Array.iter
    (fun p ->
      for _ = 1 to Gopt_util.Prng.int rng 4 do
        ignore
          (G.Builder.add_edge b ~src:p ~dst:(pick persons) ~etype:knows
             [ ("since", Value.Int (Gopt_util.Prng.int_in rng 2000 2024)) ])
      done;
      ignore (G.Builder.add_edge b ~src:p ~dst:(pick cities) ~etype:lives_in []);
      for _ = 1 to Gopt_util.Prng.int rng 3 do
        ignore (G.Builder.add_edge b ~src:p ~dst:(pick products) ~etype:purchased [])
      done)
    persons;
  Array.iter
    (fun g ->
      ignore (G.Builder.add_edge b ~src:g ~dst:(pick cities) ~etype:produced_in []))
    products;
  G.Builder.freeze b

(* Full textual render of a batch — fields, then every row in order. Two
   batches render equal iff they are byte-identical (order included). *)
let render g b =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (String.concat "|" (Gopt_exec.Batch.fields b));
  Gopt_exec.Batch.iter
    (fun row ->
      Buffer.add_char buf '\n';
      Array.iter
        (fun v ->
          Buffer.add_string buf (Format.asprintf "%a" (Gopt_exec.Rval.pp g) v);
          Buffer.add_char buf '|')
        row)
    b;
  Buffer.contents buf

let canon_rows b =
  let rows = ref [] in
  Gopt_exec.Batch.iter (fun row -> rows := Array.to_list row :: !rows) b;
  List.sort (List.compare Gopt_exec.Rval.compare) !rows

(* Does the plan cut its row set at a boundary where ties may sit
   (LIMIT/SKIP, or ORDER BY with a fused top-k)? Any engine, chunk size or
   worker count may legitimately keep a different subset of tied rows, so
   differential tests fall back to cardinality comparison for such plans. *)
let rec plan_has_tie_cut (p : Gopt_opt.Physical.t) =
  let module P = Gopt_opt.Physical in
  match p with
  | P.Limit _ | P.Skip _ -> true
  | P.Order (x, _, lim) -> lim <> None || plan_has_tie_cut x
  | P.Scan _ | P.Common_ref _ | P.Empty _ -> false
  | P.Expand_all (x, _)
  | P.Expand_into (x, _)
  | P.Expand_intersect (x, _)
  | P.Path_expand (x, _)
  | P.Select (x, _)
  | P.Project (x, _)
  | P.Group (x, _, _)
  | P.Unfold (x, _, _)
  | P.Dedup (x, _)
  | P.All_distinct (x, _) -> plan_has_tie_cut x
  | P.Hash_join { left; right; _ } -> plan_has_tie_cut left || plan_has_tie_cut right
  | P.Union (a, b) -> plan_has_tie_cut a || plan_has_tie_cut b
  | P.With_common { common; left; right; _ } ->
    plan_has_tie_cut common || plan_has_tie_cut left || plan_has_tie_cut right

module Logical = Gopt_gir.Logical
module Pattern = Gopt_pattern.Pattern
module Expr = Gopt_pattern.Expr
module Tc = Gopt_pattern.Type_constraint
module SS = Set.Make (String)

(* --- FilterIntoPattern ------------------------------------------------- *)

(* A conjunct is pushable when all its tag references resolve to one pattern
   element; it then becomes part of that element's matching predicate. *)
let push_conjunct p conj =
  match Expr.free_tags conj with
  | [ tag ] -> begin
    match Pattern.vertex_of_alias p tag with
    | Some v -> Some (Pattern.add_vertex_pred p v conj)
    | None -> (
      match Pattern.edge_of_alias p tag with
      | Some e when (Pattern.edge p e).Pattern.e_hops = None ->
        Some (Pattern.add_edge_pred p e conj)
      | _ -> None)
  end
  | _ -> None

let filter_into_pattern =
  Rule.make "FilterIntoPattern" (fun node ->
      let rewrite inner_rebuild p pred =
        let pushed, remaining =
          List.fold_left
            (fun (p, rem) conj ->
              match push_conjunct p conj with
              | Some p' -> (p', rem)
              | None -> (p, conj :: rem))
            (p, []) (Expr.conjuncts pred)
        in
        if List.length remaining = List.length (Expr.conjuncts pred) then None
        else
          let inner = inner_rebuild pushed in
          match Expr.conj (List.rev remaining) with
          | None -> Some inner
          | Some rest -> Some (Logical.Select (inner, rest))
      in
      match node with
      | Logical.Select (Logical.Match p, pred) ->
        rewrite (fun p' -> Logical.Match p') p pred
      | Logical.Select (Logical.Pattern_cont (x, p), pred) ->
        rewrite (fun p' -> Logical.Pattern_cont (x, p')) p pred
      | _ -> None)

(* --- JoinToPattern ------------------------------------------------------ *)

(* A MATCH side possibly carrying its per-clause no-repeated-edge filter.
   The filter's explicit edge list lets it survive the fusion: each original
   clause keeps distinctness among its own edges only (Cypher semantics). *)
let match_side = function
  | Logical.Match p -> Some (p, [])
  | Logical.All_distinct (Logical.Match p, tags) when tags <> [] -> Some (p, tags)
  | _ -> None

let join_to_pattern =
  Rule.make "JoinToPattern" (fun node ->
      match node with
      | Logical.Join { left; right; keys; kind = Logical.Inner } -> begin
        match match_side left, match_side right with
        | Some (p1, tags1), Some (p2, tags2) -> begin
          let shared = List.sort String.compare (Pattern.shared_aliases p1 p2) in
          let keys' = List.sort String.compare keys in
          if shared <> [] && shared = keys' then
            match Pattern.merge p1 p2 with
            | merged ->
              let plan = Logical.Match merged in
              let plan = if tags1 = [] then plan else Logical.All_distinct (plan, tags1) in
              let plan = if tags2 = [] then plan else Logical.All_distinct (plan, tags2) in
              Some plan
            | exception Invalid_argument _ -> None
          else None
        end
        | _ -> None
      end
      | _ -> None)

(* --- ComSubPattern ------------------------------------------------------ *)

(* Peel Select/Project/Dedup wrappers off a branch down to its MATCH. *)
let rec peel = function
  | Logical.Match p -> Some ((fun m -> m), p)
  | Logical.Select (x, e) ->
    Option.map (fun (rb, p) -> ((fun m -> Logical.Select (rb m, e)), p)) (peel x)
  | Logical.Project (x, ps) ->
    Option.map (fun (rb, p) -> ((fun m -> Logical.Project (rb m, ps)), p)) (peel x)
  | Logical.Dedup (x, tags) ->
    Option.map (fun (rb, p) -> ((fun m -> Logical.Dedup (rb m, tags)), p)) (peel x)
  | Logical.All_distinct (x, tags) ->
    Option.map (fun (rb, p) -> ((fun m -> Logical.All_distinct (rb m, tags)), p)) (peel x)
  | _ -> None

let vertex_equal (a : Pattern.vertex) (b : Pattern.vertex) =
  Tc.equal a.Pattern.v_con b.Pattern.v_con
  && Option.equal Expr.equal a.Pattern.v_pred b.Pattern.v_pred

let edge_equal p1 p2 (a : Pattern.edge) (b : Pattern.edge) =
  let alias_of p i = (Pattern.vertex p i).Pattern.v_alias in
  String.equal (alias_of p1 a.Pattern.e_src) (alias_of p2 b.Pattern.e_src)
  && String.equal (alias_of p1 a.Pattern.e_dst) (alias_of p2 b.Pattern.e_dst)
  && Tc.equal a.Pattern.e_con b.Pattern.e_con
  && a.Pattern.e_directed = b.Pattern.e_directed
  && a.Pattern.e_hops = b.Pattern.e_hops
  && Option.equal Expr.equal a.Pattern.e_pred b.Pattern.e_pred

let anonymous alias = String.length alias > 0 && alias.[0] = '@'

(* The common subpattern: vertices shared by (user-chosen) alias with
   identical constraints and predicates; edges shared structurally — same
   endpoint aliases and shape, and either the same alias or both anonymous
   (frontends invent distinct anonymous aliases per branch). Returns the
   common pattern plus [p2] with its matched anonymous edges renamed to
   [p1]'s aliases, so the continuation sees them as already matched. *)
let common_subpattern p1 p2 =
  let matches =
    Array.to_list (Pattern.edges p1)
    |> List.filter_map (fun (e1 : Pattern.edge) ->
           let candidate_in_p2 =
             Array.to_list (Pattern.edges p2)
             |> List.find_opt (fun (e2 : Pattern.edge) ->
                    (String.equal e1.Pattern.e_alias e2.Pattern.e_alias
                    || (anonymous e1.Pattern.e_alias && anonymous e2.Pattern.e_alias))
                    && edge_equal p1 p2 e1 e2
                    && vertex_equal
                         (Pattern.vertex p1 e1.Pattern.e_src)
                         (Pattern.vertex p2 e2.Pattern.e_src)
                    && vertex_equal
                         (Pattern.vertex p1 e1.Pattern.e_dst)
                         (Pattern.vertex p2 e2.Pattern.e_dst))
           in
           Option.map (fun e2 -> (e1, e2)) candidate_in_p2)
  in
  (* one p2 edge must not serve two p1 edges *)
  let matches =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun ((_ : Pattern.edge), (e2 : Pattern.edge)) ->
        if Hashtbl.mem seen e2.Pattern.e_alias then false
        else begin
          Hashtbl.add seen e2.Pattern.e_alias ();
          true
        end)
      matches
  in
  if matches = [] then None
  else begin
    let eids =
      List.filter_map
        (fun ((e1 : Pattern.edge), _) -> Pattern.edge_of_alias p1 e1.Pattern.e_alias)
        matches
    in
    let common, _ = Pattern.sub_by_edges p1 eids in
    if
      Pattern.is_connected common
      && Pattern.n_edges common < Pattern.n_edges p1
      && Pattern.n_edges common < Pattern.n_edges p2
    then begin
      let rename =
        List.filter_map
          (fun ((e1 : Pattern.edge), (e2 : Pattern.edge)) ->
            if String.equal e1.Pattern.e_alias e2.Pattern.e_alias then None
            else Some (e2.Pattern.e_alias, e1.Pattern.e_alias))
          matches
      in
      let p2' =
        Pattern.map_edges
          (fun _ e ->
            match List.assoc_opt e.Pattern.e_alias rename with
            | Some fresh -> { e with Pattern.e_alias = fresh }
            | None -> e)
          p2
      in
      Some (common, p2', rename)
    end
    else None
  end

(* Rename field references in a plan's operators (not its patterns — the
   caller renames those): used to keep a branch's wrappers consistent after
   its common edges were renamed to the other branch's aliases. *)
let rec rename_plan_fields ren plan =
  let rt tag = Option.value ~default:tag (List.assoc_opt tag ren) in
  let re e = Expr.rename_tags rt e in
  let plan =
    match plan with
    | Logical.Select (x, e) -> Logical.Select (x, re e)
    | Logical.Project (x, ps) -> Logical.Project (x, List.map (fun (e, a) -> (re e, a)) ps)
    | Logical.Dedup (x, tags) -> Logical.Dedup (x, List.map rt tags)
    | Logical.All_distinct (x, tags) -> Logical.All_distinct (x, List.map rt tags)
    | other -> other
  in
  Logical.map_children (rename_plan_fields ren) plan

let com_sub_pattern =
  Rule.make "ComSubPattern" (fun node ->
      match node with
      | Logical.Union (a, b) -> begin
        match peel a, peel b with
        | Some (rb1, p1), Some (rb2, p2) -> begin
          match common_subpattern p1 p2 with
          | Some (common, p2', rename) ->
            let right =
              rename_plan_fields rename
                (rb2 (Logical.Pattern_cont (Logical.Common_ref, p2')))
            in
            Some
              (Logical.With_common
                 {
                   common = Logical.Match common;
                   left = rb1 (Logical.Pattern_cont (Logical.Common_ref, p1));
                   right;
                   combine = Logical.C_union;
                 })
          | None -> None
        end
        | _ -> None
      end
      | _ -> None)

(* --- PatternProbe -------------------------------------------------------- *)

(* The constraint [plan] puts on the vertex it binds to [alias]: found in the
   pattern that binds it, through operators that pass the field on
   unchanged. [None] when it cannot be traced. *)
let rec bound_con plan alias =
  let in_pattern p =
    Option.map (fun v -> (Pattern.vertex p v).Pattern.v_con) (Pattern.vertex_of_alias p alias)
  in
  match plan with
  | Logical.Match p -> in_pattern p
  | Logical.Pattern_cont (x, p) -> (
    match in_pattern p with Some c -> Some c | None -> bound_con x alias)
  | Logical.Select (x, _)
  | Logical.Dedup (x, _)
  | Logical.All_distinct (x, _)
  | Logical.Order (x, _, _)
  | Logical.Limit (x, _)
  | Logical.Skip (x, _) ->
    bound_con x alias
  | Logical.Project (x, ps) ->
    if List.exists (fun (e, a) -> a = alias && Expr.equal e (Expr.Var alias)) ps then
      bound_con x alias
    else None
  | Logical.Join { left; right; kind; _ } -> begin
    match bound_con left alias, kind with
    | Some c, _ -> Some c
    | None, (Logical.Inner | Logical.Left_outer) -> bound_con right alias
    | None, (Logical.Semi | Logical.Anti) -> None
  end
  | _ -> None

(* A pattern predicate [WHERE [NOT] (a)-[:T]-(b)] over two vertices the
   query already binds asks one adjacency question per row. Lowered, it is a
   semi/anti hash join whose build side matches the whole edge relation;
   this rule turns it into [Select ([NOT] Adjacent)] on the left input, a
   sorted-adjacency probe per row with no build side. It fires only when
   the probe answers exactly what the join did:
   - the pattern is one single-hop edge without a predicate;
   - its two distinct endpoints are exactly the join keys;
   - neither endpoint carries a predicate, and each endpoint's constraint
     admits every vertex the left side can bind to it.
   A null endpoint (OPTIONAL MATCH) finds no build row in the join and makes
   [Adjacent] false, so both keep the same rows. *)
let pattern_probe =
  Rule.make "PatternProbe" (fun node ->
      match node with
      | Logical.Join
          { left; right = Logical.Match p; keys; kind = (Logical.Semi | Logical.Anti) as kind }
        when Pattern.n_vertices p = 2 && Pattern.n_edges p = 1 -> begin
        let e = Pattern.edge p 0 in
        let src = Pattern.vertex p e.Pattern.e_src and dst = Pattern.vertex p e.Pattern.e_dst in
        (* [covers bound c]: every type [bound] admits, [c] admits too; the
           type universe only matters for [All], matched first *)
        let covers bound c =
          match bound, c with
          | _, Tc.All -> true
          | Tc.All, _ -> false
          | _ -> Tc.subset ~universe:0 bound c
        in
        let endpoint_ok (v : Pattern.vertex) =
          v.Pattern.v_pred = None
          &&
          match bound_con left v.Pattern.v_alias with
          | Some bound -> covers bound v.Pattern.v_con
          | None -> Tc.is_all v.Pattern.v_con
        in
        if
          e.Pattern.e_hops = None
          && e.Pattern.e_pred = None
          && List.sort String.compare keys
             = List.sort String.compare [ src.Pattern.v_alias; dst.Pattern.v_alias ]
          && endpoint_ok src && endpoint_ok dst
        then
          let probe =
            Expr.Adjacent
              {
                src = src.Pattern.v_alias;
                dst = dst.Pattern.v_alias;
                con = e.Pattern.e_con;
                directed = e.Pattern.e_directed;
              }
          in
          Some
            (Logical.Select
               (left, if kind = Logical.Semi then probe else Expr.Unop (Expr.Not, probe)))
        else None
      end
      | _ -> None)

(* --- FieldTrim ----------------------------------------------------------- *)

let expr_tags e = SS.of_list (Expr.free_tags e)

let rec expr_props acc = function
  | Expr.Const _ | Expr.Param _ | Expr.Var _ | Expr.Label _ | Expr.Adjacent _ -> acc
  | Expr.Prop (tag, key) -> (tag, key) :: acc
  | Expr.Binop (_, l, r) -> expr_props (expr_props acc l) r
  | Expr.Unop (_, e) | Expr.In_list (e, _) -> expr_props acc e

(* All edge-and-path aliases anywhere in the plan — the fields the
   AllDistinct operator inspects. *)
let all_edge_aliases plan =
  Logical.fold
    (fun acc node ->
      match node with
      | Logical.Match p | Logical.Pattern_cont (_, p) ->
        Array.fold_left
          (fun acc (e : Pattern.edge) -> SS.add e.Pattern.e_alias acc)
          acc (Pattern.edges p)
      | _ -> acc)
    SS.empty plan

let field_trim plan =
  let edge_aliases = all_edge_aliases plan in
  (* props used per tag, collected on the way down *)
  let annotate_pattern p needed props =
    let p =
      Pattern.map_vertices
        (fun _ v ->
          let used =
            List.filter_map
              (fun (tag, key) -> if String.equal tag v.Pattern.v_alias then Some key else None)
              props
          in
          if used = [] then v
          else { v with Pattern.v_columns = Some (List.sort_uniq String.compare used) })
        p
    in
    let fields = Logical.output_fields (Logical.Match p) in
    let kept = List.filter (fun f -> SS.mem f needed) fields in
    (p, fields, kept)
  in
  (* Insert a trimming PROJECT only where row width is actually paid for:
     under joins (hash build and output copies), whole-row dedups and unions
     (row re-materialization), and distributed shuffles of wide rows. The
     [narrow] flag tracks whether such a consumer is above us; width-
     indifferent operators (Select, Order, Limit, ...) pass rows through by
     reference, so trimming below them is pure overhead unless a consumer
     higher up wants narrow rows. *)
  let wrap_trim ~narrow inner fields kept =
    if narrow && List.length kept < List.length fields && kept <> [] then
      Logical.Project (inner, List.map (fun f -> (Expr.Var f, f)) kept)
    else inner
  in
  let rec go node needed props ~narrow =
    match node with
    | Logical.Match p ->
      let p, fields, kept = annotate_pattern p needed props in
      wrap_trim ~narrow (Logical.Match p) fields kept
    | Logical.Pattern_cont (x, p) ->
      (* the continuation needs all of its input *)
      let x' = go x (SS.of_list (Logical.output_fields x)) props ~narrow:false in
      let p, fields, kept = annotate_pattern p (SS.union needed (SS.of_list (Logical.output_fields x))) props in
      wrap_trim ~narrow (Logical.Pattern_cont (x', p)) fields kept
    | Logical.Common_ref -> node
    | Logical.With_common { common; left; right; combine } ->
      let common' = go common (SS.of_list (Logical.output_fields common)) props ~narrow:false in
      let left' = go left needed props ~narrow:true in
      let right' = go right needed props ~narrow:true in
      Logical.With_common { common = common'; left = left'; right = right'; combine }
    | Logical.Select (x, pred) ->
      let needed_x = SS.union needed (expr_tags pred) in
      Logical.Select (go x needed_x (expr_props props pred) ~narrow, pred)
    | Logical.Project (x, ps) ->
      let kept = List.filter (fun (_, a) -> SS.mem a needed) ps in
      let kept = if kept = [] then ps else kept in
      let needed_x =
        List.fold_left (fun acc (e, _) -> SS.union acc (expr_tags e)) SS.empty kept
      in
      let props_x = List.fold_left (fun acc (e, _) -> expr_props acc e) props kept in
      Logical.Project (go x needed_x props_x ~narrow:false, kept)
    | Logical.Join { left; right; keys; kind } ->
      let lf = SS.of_list (Logical.output_fields left) in
      let rf = SS.of_list (Logical.output_fields right) in
      let keyset = SS.of_list keys in
      let needed_l = SS.union (SS.inter needed lf) keyset in
      let needed_r = SS.union (SS.inter needed rf) keyset in
      Logical.Join
        {
          left = go left needed_l props ~narrow:true;
          right = go right needed_r props ~narrow:true;
          keys;
          kind;
        }
    | Logical.Group (x, ks, aggs) ->
      let needed_x =
        List.fold_left (fun acc (e, _) -> SS.union acc (expr_tags e)) SS.empty ks
      in
      let needed_x =
        List.fold_left
          (fun acc a ->
            match a.Logical.agg_arg with Some e -> SS.union acc (expr_tags e) | None -> acc)
          needed_x aggs
      in
      let props_x = List.fold_left (fun acc (e, _) -> expr_props acc e) props ks in
      let props_x =
        List.fold_left
          (fun acc a -> match a.Logical.agg_arg with Some e -> expr_props acc e | None -> acc)
          props_x aggs
      in
      Logical.Group (go x needed_x props_x ~narrow:false, ks, aggs)
    | Logical.Order (x, ks, lim) ->
      let needed_x =
        List.fold_left (fun acc (e, _) -> SS.union acc (expr_tags e)) needed ks
      in
      let props_x = List.fold_left (fun acc (e, _) -> expr_props acc e) props ks in
      Logical.Order (go x needed_x props_x ~narrow, ks, lim)
    | Logical.Limit (x, n) -> Logical.Limit (go x needed props ~narrow, n)
    | Logical.Skip (x, n) -> Logical.Skip (go x needed props ~narrow, n)
    | Logical.Unwind (x, e, alias) ->
      let needed_x = SS.remove alias (SS.union needed (expr_tags e)) in
      Logical.Unwind (go x needed_x (expr_props props e) ~narrow, e, alias)
    | Logical.Dedup (x, tags) ->
      let needed_x =
        if tags = [] then SS.of_list (Logical.output_fields x)
        else SS.union needed (SS.of_list tags)
      in
      (* whole-row dedup hashes every column *)
      Logical.Dedup (go x needed_x props ~narrow:(narrow || tags = []), tags)
    | Logical.Union (a, b) ->
      Logical.Union (go a needed props ~narrow:true, go b needed props ~narrow:true)
    | Logical.All_distinct (x, tags) ->
      let fields = SS.of_list (Logical.output_fields x) in
      let scope = if tags = [] then edge_aliases else SS.of_list tags in
      let needed_x = SS.union needed (SS.inter fields scope) in
      Logical.All_distinct (go x needed_x props ~narrow, tags)
  in
  go plan (SS.of_list (Logical.output_fields plan)) [] ~narrow:false

let all = [ filter_into_pattern; join_to_pattern; com_sub_pattern; pattern_probe ]

module Logical = Gopt_gir.Logical
module Pattern = Gopt_pattern.Pattern
module Expr = Gopt_pattern.Expr
module Gq = Gopt_glogue.Glogue_query
module Ti = Gopt_typeinf.Type_inference
module SS = Set.Make (String)

type config = {
  spec : Physical_spec.t;
  enable_rbo : bool;
  rules : Rule.t list;
  enable_field_trim : bool;
  enable_type_inference : bool;
  inference_schema : Gopt_graph.Schema.t option;
  enable_cbo : bool;
  cbo_options : Cbo.options;
  check_plans : bool;
}

let default_config ?(spec = Physical_spec.graphscope) () =
  {
    spec;
    enable_rbo = true;
    rules = Rules_pattern.all @ Rules_relational.all;
    enable_field_trim = true;
    enable_type_inference = true;
    inference_schema = None;
    enable_cbo = true;
    cbo_options = Cbo.default_options;
    check_plans = false;
  }

type cache_note = {
  cache_hit : bool;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_invalidations : int;
}

type report = {
  logical_input : Logical.t;
  logical_optimized : Logical.t;
  rules_applied : string list;
  invalid_patterns : int;
  search_stats : Cbo.search_stats list;
  est_costs : float list;
  diagnostics : (string * Gopt_check.Diagnostic.t list) list;
  plan_cache : cache_note option;
}

(* --- user-order compilation (rule-based-only backends) ------------------ *)

let binding_groups p ~initially_bound =
  let nv = Pattern.n_vertices p in
  let bound = Array.make nv false in
  let alias i = (Pattern.vertex p i).Pattern.v_alias in
  List.iter
    (fun a ->
      match Pattern.vertex_of_alias p a with Some i -> bound.(i) <- true | None -> ())
    initially_bound;
  let start =
    if Array.exists Fun.id bound then None
    else begin
      bound.(0) <- true;
      Some 0
    end
  in
  let groups = ref [] in
  let remaining () =
    List.filter (fun v -> not bound.(v)) (List.init nv Fun.id)
  in
  let adjacent_to_bound v =
    List.exists (fun (_, u) -> bound.(u)) (Pattern.neighbors p v)
  in
  while remaining () <> [] do
    let next =
      match List.filter adjacent_to_bound (remaining ()) with
      | v :: _ -> v
      | [] ->
        (* disconnected from the bound part: start a fresh component (the
           engine handles the implied cartesian semantics of ExpandAll from
           nothing is not possible, so callers split components first) *)
        List.hd (remaining ())
    in
    let edges =
      List.filter
        (fun ei ->
          let e = Pattern.edge p ei in
          let other = if e.Pattern.e_src = next then e.Pattern.e_dst else e.Pattern.e_src in
          bound.(other))
        (Pattern.incident_edges p next)
    in
    bound.(next) <- true;
    groups := (alias next, List.map (Pattern.edge p) edges) :: !groups
  done;
  (start, List.rev !groups)

let compile_user_order spec p =
  if Pattern.n_vertices p = 0 then
    invalid_arg
      "Planner.compile_user_order: empty pattern — a Match must bind at least one vertex \
       (PlanCheck rejects such plans statically)";
  let start, groups = binding_groups p ~initially_bound:[] in
  let input =
    match start with
    | Some i ->
      let v = Pattern.vertex p i in
      Physical.Scan { alias = v.Pattern.v_alias; con = v.Pattern.v_con; pred = v.Pattern.v_pred }
    | None ->
      (* unreachable with initially_bound:[] and a non-empty pattern *)
      invalid_arg "Planner.compile_user_order: no start vertex for a non-empty pattern"
  in
  List.fold_left
    (fun acc (alias, edges) -> Cbo.compile_expansion spec acc p ~new_vertex_alias:alias edges)
    input groups

(* --- continuation compilation (after ComSubPattern) --------------------- *)

let compile_continuation gq spec input p ~bound =
  let nv = Pattern.n_vertices p in
  let bound_v = Array.make nv false in
  List.iter
    (fun a ->
      match Pattern.vertex_of_alias p a with Some i -> bound_v.(i) <- true | None -> ())
    bound;
  let bound_e = Array.make (Pattern.n_edges p) false in
  List.iter
    (fun a ->
      match Pattern.edge_of_alias p a with Some i -> bound_e.(i) <- true | None -> ())
    bound;
  let alias i = (Pattern.vertex p i).Pattern.v_alias in
  let result = ref input in
  let unmatched_edges () =
    List.filter (fun e -> not bound_e.(e)) (List.init (Pattern.n_edges p) Fun.id)
  in
  (* single-edge frequency, used to order candidate expansions greedily *)
  let edge_weight ei =
    let sub, _ = Pattern.sub_by_edges p [ ei ] in
    Gq.get_freq gq sub
  in
  while unmatched_edges () <> [] do
    (* close edges whose endpoints are both bound *)
    let closing =
      List.filter
        (fun ei ->
          let e = Pattern.edge p ei in
          bound_v.(e.Pattern.e_src) && bound_v.(e.Pattern.e_dst))
        (unmatched_edges ())
    in
    if closing <> [] then
      List.iter
        (fun ei ->
          let e = Pattern.edge p ei in
          let step =
            {
              Physical.s_edge = e;
              s_from = alias e.Pattern.e_src;
              s_to = alias e.Pattern.e_dst;
              s_forward = true;
              s_to_con = (Pattern.vertex p e.Pattern.e_dst).Pattern.v_con;
              s_to_pred = (Pattern.vertex p e.Pattern.e_dst).Pattern.v_pred;
            }
          in
          result :=
            (if e.Pattern.e_hops = None then Physical.Expand_into (!result, step)
             else Physical.Path_expand (!result, step));
          bound_e.(ei) <- true)
        closing
    else begin
      (* bind the frontier vertex with the cheapest connecting edges *)
      let candidates =
        List.filter
          (fun v ->
            (not bound_v.(v))
            && List.exists (fun (_, u) -> bound_v.(u)) (Pattern.neighbors p v))
          (List.init nv Fun.id)
      in
      match candidates with
      | [] ->
        let unbound =
          List.filter_map
            (fun v -> if bound_v.(v) then None else Some (alias v))
            (List.init nv Fun.id)
        in
        invalid_arg
          (Printf.sprintf
             "Planner.compile_continuation: pattern vertices {%s} share no vertex with the \
              bound set [%s] — PlanCheck reports this as a disconnected PatternCont \
              component before planning"
             (String.concat ", " unbound) (String.concat ", " bound))
      | _ ->
        let score v =
          let connecting =
            List.filter
              (fun ei ->
                let e = Pattern.edge p ei in
                let other = if e.Pattern.e_src = v then e.Pattern.e_dst else e.Pattern.e_src in
                (not bound_e.(ei)) && bound_v.(other))
              (Pattern.incident_edges p v)
          in
          (List.fold_left (fun acc ei -> Float.min acc (edge_weight ei)) Float.infinity connecting, connecting)
        in
        let v, (_, connecting) =
          List.fold_left
            (fun (bv, (bs, bc)) v ->
              let s, c = score v in
              if s < bs then (v, (s, c)) else (bv, (bs, bc)))
            (List.hd candidates, score (List.hd candidates))
            (List.tl candidates)
        in
        result :=
          Cbo.compile_expansion spec !result p ~new_vertex_alias:(alias v)
            (List.map (Pattern.edge p) connecting);
        bound_v.(v) <- true;
        List.iter (fun ei -> bound_e.(ei) <- true) connecting
    end
  done;
  !result

(* --- pattern components -------------------------------------------------- *)

let components p =
  let nv = Pattern.n_vertices p in
  let comp = Array.make nv (-1) in
  let next = ref 0 in
  for v = 0 to nv - 1 do
    if comp.(v) < 0 then begin
      let id = !next in
      incr next;
      let rec dfs x =
        if comp.(x) < 0 then begin
          comp.(x) <- id;
          List.iter (fun (_, y) -> dfs y) (Pattern.neighbors p x)
        end
      in
      dfs v
    end
  done;
  List.init !next (fun c ->
      let vs = List.filter (fun v -> comp.(v) = c) (List.init nv Fun.id) in
      let es =
        List.filter
          (fun ei -> comp.((Pattern.edge p ei).Pattern.e_src) = c)
          (List.init (Pattern.n_edges p) Fun.id)
      in
      if es = [] then Pattern.single_vertex p (List.hd vs)
      else fst (Pattern.sub_by_edges p es))

(* --- full pipeline -------------------------------------------------------- *)

(* --- AllDistinct pruning (type inference applied to Remark 3.1) ---------- *)

(* What the patterns below a plan say about one edge alias. *)
type edge_typing = {
  et_src : Gopt_pattern.Type_constraint.t;
  et_dst : Gopt_pattern.Type_constraint.t;
  et_con : Gopt_pattern.Type_constraint.t;
  et_directed : bool;
  et_path : bool;
}

let edge_typings plan =
  Logical.fold
    (fun acc node ->
      match node with
      | Logical.Match p | Logical.Pattern_cont (_, p) ->
        Array.fold_left
          (fun acc (e : Pattern.edge) ->
            let v i = (Pattern.vertex p i).Pattern.v_con in
            ( e.Pattern.e_alias,
              {
                et_src = v e.Pattern.e_src;
                et_dst = v e.Pattern.e_dst;
                et_con = e.Pattern.e_con;
                et_directed = e.Pattern.e_directed;
                et_path = e.Pattern.e_hops <> None;
              } )
            :: acc)
          acc (Pattern.edges p)
      | _ -> acc)
    [] plan

let edge_aliases_below plan = SS.of_list (List.map fst (edge_typings plan))

(* [distinct_groups schema x tags] splits an AllDistinct's edge aliases into
   the groups whose members may bind the same edge. Two single-hop edges may
   collide only if one schema triple (src, etype, dst) satisfies both edges'
   constraints (in either orientation for an undirected edge); the edges of a
   variable-length path are constrained by their edge types only. Groups are
   the connected components of that "may collide" relation, in first-tag
   order; a component is kept when it has two members, or when it holds a
   path (which may repeat an edge internally) or an alias no pattern below
   [x] types (compared against everything, conservatively). [[]] resolves to
   every edge alias below [x] that [x] outputs. *)
let distinct_groups schema x tags =
  let module Tc = Gopt_pattern.Type_constraint in
  let vu = Gopt_graph.Schema.n_vtypes schema and eu = Gopt_graph.Schema.n_etypes schema in
  let tags =
    match tags with
    | [] -> SS.elements (SS.inter (edge_aliases_below x) (SS.of_list (Logical.output_fields x)))
    | _ -> tags
  in
  let typings = edge_typings x in
  let typing a = List.filter_map (fun (b, t) -> if a = b then Some t else None) typings in
  let fits t (s, et, d) =
    Tc.mem ~universe:eu t.et_con et
    && (t.et_path
       || (Tc.mem ~universe:vu t.et_src s && Tc.mem ~universe:vu t.et_dst d)
       || ((not t.et_directed) && Tc.mem ~universe:vu t.et_src d && Tc.mem ~universe:vu t.et_dst s))
  in
  let triples = Gopt_graph.Schema.triples schema in
  let tags = Array.of_list tags in
  let ts = Array.map typing tags in
  let untyped i = ts.(i) = [] in
  let must_keep i = untyped i || List.exists (fun t -> t.et_path) ts.(i) in
  let collide i j =
    untyped i || untyped j
    || Array.exists
         (fun tr ->
           List.exists (fun a -> fits a tr) ts.(i) && List.exists (fun b -> fits b tr) ts.(j))
         triples
  in
  let n = Array.length tags in
  let comp = Array.init n Fun.id in
  let rec find i = if comp.(i) = i then i else find comp.(i) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if collide i j then begin
        let ri = find i and rj = find j in
        if ri <> rj then comp.(max ri rj) <- min ri rj
      end
    done
  done;
  List.filter_map
    (fun r ->
      let members = List.filter (fun i -> find i = r) (List.init n Fun.id) in
      if List.length members >= 2 || List.exists must_keep members then
        Some (List.map (fun i -> tags.(i)) members)
      else None)
    (List.filter (fun i -> find i = i) (List.init n Fun.id))

let infer_pass schema plan =
  let invalid = ref 0 in
  let narrow p =
    match Ti.infer schema p with
    | Ti.Inferred (p', _) -> p'
    | Ti.Invalid ->
      incr invalid;
      p
  in
  (* bottom-up, so an AllDistinct sees its patterns' inferred constraints;
     it becomes one nested node per group that may collide (the nesting
     JoinToPattern already uses), or disappears when none may *)
  let rec go node =
    match Logical.map_children go node with
    | Logical.Match p -> Logical.Match (narrow p)
    | Logical.Pattern_cont (x, p) -> Logical.Pattern_cont (x, narrow p)
    | Logical.All_distinct (x, tags) ->
      List.fold_left
        (fun acc group -> Logical.All_distinct (acc, group))
        x (distinct_groups schema x tags)
    | other -> other
  in
  let plan' = go plan in
  (plan', !invalid)

let plan config gq logical =
  let schema =
    match config.inference_schema with Some s -> s | None -> Gq.schema gq
  in
  let diagnostics = ref [] in
  let stage name check x =
    if config.check_plans then diagnostics := (name, check x) :: !diagnostics;
    x
  in
  let check_logical = Gopt_check.Plan_check.check ~schema in
  let logical = stage "logical" check_logical logical in
  let l1 =
    if config.enable_rbo then
      Rule.fixpoint ~check:config.check_plans ~schema config.rules logical
    else (logical, [])
  in
  let l1, rules_applied = l1 in
  let l1 = if config.enable_field_trim then Rules_pattern.field_trim l1 else l1 in
  let l1 = stage "rbo" check_logical l1 in
  let l2, invalid_patterns =
    if config.enable_type_inference then infer_pass schema l1 else (l1, 0)
  in
  let l2 = stage "optimized" check_logical l2 in
  (* Reject structurally broken plans before the cost-based search runs:
     the invariants PlanCheck flags as errors are exactly the ones the
     pattern compilers below cannot handle. *)
  (if config.check_plans then
     match Gopt_check.Plan_check.first_error (check_logical l2) with
     | Some d ->
       invalid_arg
         (Printf.sprintf "Planner.plan: ill-formed plan reaches the CBO: %s"
            (Format.asprintf "%a" Gopt_check.Diagnostic.pp d))
     | None -> ());
  let search_stats = ref [] and est_costs = ref [] in
  let plan_pattern p =
    if config.enable_type_inference && Ti.infer schema p = Ti.Invalid then
      Physical.Empty (Logical.output_fields (Logical.Match p))
    else begin
      let plan_component sub =
        if config.enable_cbo then begin
          let cplan, stats = Cbo.optimize ~options:config.cbo_options gq config.spec sub in
          search_stats := stats :: !search_stats;
          est_costs := cplan.Cbo.cost :: !est_costs;
          Cbo.to_physical config.spec cplan
        end
        else compile_user_order config.spec sub
      in
      match components p with
      | [] -> Physical.Empty []
      | [ single ] -> plan_component single
      | many ->
        (* cartesian combination of independent components *)
        let phys = List.map plan_component many in
        List.fold_left
          (fun acc ph ->
            Physical.Hash_join { left = acc; right = ph; keys = []; kind = Logical.Inner })
          (List.hd phys) (List.tl phys)
    end
  in
  let rec to_phys ?(common_fields = []) node =
    let to_phys_c n = to_phys ~common_fields n in
    match node with
    | Logical.Match p -> plan_pattern p
    | Logical.Pattern_cont (x, p) ->
      let input = to_phys_c x in
      if config.enable_type_inference && Ti.infer schema p = Ti.Invalid then
        Physical.Empty (Logical.output_fields node)
      else
        let bound = Physical.output_fields input in
        compile_continuation gq config.spec input p ~bound
    | Logical.Common_ref -> Physical.Common_ref common_fields
    | Logical.With_common { common; left; right; combine } ->
      let common_phys = to_phys_c common in
      let cf = Physical.output_fields common_phys in
      Physical.With_common
        {
          common = common_phys;
          left = to_phys ~common_fields:cf left;
          right = to_phys ~common_fields:cf right;
          combine;
        }
    | Logical.Select (x, e) -> Physical.Select (to_phys_c x, e)
    | Logical.Project (x, ps) -> Physical.Project (to_phys_c x, ps)
    | Logical.Join { left; right; keys; kind } ->
      Physical.Hash_join { left = to_phys_c left; right = to_phys_c right; keys; kind }
    | Logical.Group (x, ks, aggs) -> Physical.Group (to_phys_c x, ks, aggs)
    | Logical.Order (x, ks, lim) -> Physical.Order (to_phys_c x, ks, lim)
    | Logical.Limit (x, n) -> Physical.Limit (to_phys_c x, n)
    | Logical.Skip (x, n) -> Physical.Skip (to_phys_c x, n)
    | Logical.Unwind (x, e, a) -> Physical.Unfold (to_phys_c x, e, a)
    | Logical.Dedup (x, tags) -> Physical.Dedup (to_phys_c x, tags)
    | Logical.Union (a, b) -> Physical.Union (to_phys_c a, to_phys_c b)
    | Logical.All_distinct (x, tags) ->
      let phys = to_phys_c x in
      let aliases =
        match tags with
        | [] ->
          SS.elements
            (SS.inter (edge_aliases_below x) (SS.of_list (Physical.output_fields phys)))
        | _ -> tags
      in
      Physical.All_distinct (phys, aliases)
  in
  let phys = to_phys l2 in
  let phys = stage "physical" (Physical_check.check ~schema) phys in
  ( phys,
    {
      logical_input = logical;
      logical_optimized = l2;
      rules_applied;
      invalid_patterns;
      search_stats = List.rev !search_stats;
      est_costs = List.rev !est_costs;
      diagnostics = List.rev !diagnostics;
      plan_cache = None;
    } )

module G = Gopt_graph.Property_graph
module Schema = Gopt_graph.Schema
module Pattern = Gopt_pattern.Pattern
module Tc = Gopt_pattern.Type_constraint
module Canonical = Gopt_pattern.Canonical

type mode = High_order | Low_order

type t = {
  glogue : Glogue.t;
  sel : float;
  mode : mode;
  hist : Histograms.t option;
  cache : (string, float) Hashtbl.t;
      (** Estimate memo; shared by every domain planning against one
          session, so every access holds [lock]. *)
  lock : Mutex.t;
}

let create ?(selectivity = 0.1) ?(mode = High_order) ?histograms glogue =
  {
    glogue;
    sel = selectivity;
    mode;
    hist = histograms;
    cache = Hashtbl.create 256;
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let glogue t = t.glogue
let schema t = G.schema (Glogue.graph t.glogue)
let mode t = t.mode
let selectivity t = t.sel
let cache_size t = locked t (fun () -> Hashtbl.length t.cache)

(* Sum of vertex frequencies over a vertex constraint. *)
let vcon_freq t con =
  let sch = schema t in
  List.fold_left
    (fun acc vt -> acc +. Glogue.vertex_freq t.glogue vt)
    0.0
    (Tc.to_list ~universe:(Schema.n_vtypes sch) con)

(* Sum of edge frequencies over all schema triples compatible with the given
   endpoint and edge constraints, for a directed src->dst reading. *)
let directed_edge_freq t ~src_con ~e_con ~dst_con =
  let sch = schema t in
  let vuniv = Schema.n_vtypes sch and euniv = Schema.n_etypes sch in
  Array.fold_left
    (fun acc (s, e, d) ->
      if
        Tc.mem ~universe:vuniv src_con s
        && Tc.mem ~universe:euniv e_con e
        && Tc.mem ~universe:vuniv dst_con d
      then acc +. Glogue.triple_freq t.glogue ~src:s ~etype:e ~dst:d
      else acc)
    0.0 (Schema.triples sch)

(* Compatible-edge frequency for pattern edge [e] read with endpoint
   constraints [uc] (the endpoint written as e_src) and [wc]. Undirected
   edges admit both orientations. *)
let edge_freq t (e : Pattern.edge) ~src_con ~dst_con =
  let f = directed_edge_freq t ~src_con ~e_con:e.Pattern.e_con ~dst_con in
  if e.Pattern.e_directed then f
  else f +. directed_edge_freq t ~src_con:dst_con ~e_con:e.Pattern.e_con ~dst_con:src_con

(* Edge frequency read from the walking side: [forward] means the walk
   traverses the edge from its stored source. *)
let edge_freq_from t (e : Pattern.edge) ~forward ~cur_con ~far_con =
  if e.Pattern.e_directed then
    if forward then directed_edge_freq t ~src_con:cur_con ~e_con:e.Pattern.e_con ~dst_con:far_con
    else directed_edge_freq t ~src_con:far_con ~e_con:e.Pattern.e_con ~dst_con:cur_con
  else
    directed_edge_freq t ~src_con:cur_con ~e_con:e.Pattern.e_con ~dst_con:far_con
    +. directed_edge_freq t ~src_con:far_con ~e_con:e.Pattern.e_con ~dst_con:cur_con

(* Vertex types reachable in one hop from [cur_con] along the edge's
   constraint, used as the frontier constraint of multi-hop walks. *)
let reachable_con t (e : Pattern.edge) ~forward ~cur_con =
  let sch = schema t in
  let vuniv = Schema.n_vtypes sch and euniv = Schema.n_etypes sch in
  let acc = ref [] in
  Array.iter
    (fun (s, et, d) ->
      if Tc.mem ~universe:euniv e.Pattern.e_con et then begin
        let fwd_ok = Tc.mem ~universe:vuniv cur_con s in
        let bwd_ok = Tc.mem ~universe:vuniv cur_con d in
        if e.Pattern.e_directed then begin
          if forward && fwd_ok then acc := d :: !acc;
          if (not forward) && bwd_ok then acc := s :: !acc
        end
        else begin
          if fwd_ok then acc := d :: !acc;
          if bwd_ok then acc := s :: !acc
        end
      end)
    (Schema.triples sch);
  Tc.of_list ~universe:vuniv !acc

(* Expand ratio for a variable-length edge of [k] hops: walk hop by hop,
   tracking the frontier's possible vertex types so per-hop degree ratios use
   the right base population. *)
let var_length_ratio t (e : Pattern.edge) ~from_con ~to_con ~forward ~k =
  let vuniv = Schema.n_vtypes (schema t) in
  let rec walk cur_con remaining acc =
    if acc = 0.0 then 0.0
    else if remaining = 0 then acc
    else begin
      let far_con_opt =
        match reachable_con t e ~forward ~cur_con with
        | None -> None
        | Some r ->
          (* the final hop must land on the target constraint *)
          if remaining = 1 then Tc.inter ~universe:vuniv r to_con else Some r
      in
      match far_con_opt with
      | None -> 0.0
      | Some far_con ->
        let f = edge_freq_from t e ~forward ~cur_con ~far_con in
        let base = vcon_freq t cur_con in
        if base <= 0.0 then 0.0 else walk far_con (remaining - 1) (acc *. (f /. base))
    end
  in
  if k <= 0 then 1.0 else walk from_con k 1.0

(* sigma for one incident edge of a peeled vertex [v] (Eq. 2).
   [closing] distinguishes case 2 (v already introduced). *)
let sigma t p ~v ~ei ~closing =
  let e = Pattern.edge p ei in
  let u = if e.Pattern.e_src = v then e.Pattern.e_dst else e.Pattern.e_src in
  let ucon = (Pattern.vertex p u).Pattern.v_con in
  let vcon = (Pattern.vertex p v).Pattern.v_con in
  (* orient the constraint pair as stored on the edge *)
  let src_con, dst_con = if e.Pattern.e_src = u then (ucon, vcon) else (vcon, ucon) in
  let num =
    match e.Pattern.e_hops with
    | None ->
      let f = edge_freq t e ~src_con ~dst_con in
      let base = vcon_freq t ucon in
      if base <= 0.0 then 0.0 else f /. base
    | Some (lo, _) ->
      (* read the ratio from u towards v *)
      var_length_ratio t e ~from_con:ucon ~to_con:vcon ~forward:(e.Pattern.e_src = u) ~k:lo
  in
  if not closing then num
  else begin
    let vbase = vcon_freq t vcon in
    if vbase <= 0.0 then 0.0 else num /. vbase
  end

let strip p =
  Pattern.map_vertices (fun _ v -> { v with Pattern.v_pred = None; v_columns = None }) p
  |> Pattern.map_edges (fun _ e -> { e with Pattern.e_pred = None })

(* Predicate selectivity (paper Remark 7.1). When histogram statistics are
   available (the paper's future-work refinement, implemented in
   {!Histograms}) comparisons and IN-lists over properties are estimated
   from the data; otherwise the constant default applies, refined for the
   recognizable unique-key shapes that matter in the workloads — point
   lookups and IN-lists over an "id" property, whose selectivity is the
   lookup-set size over the element population.

   A [$param] is a constant whose value arrives only at execution. Equality
   and IN estimates read distinct counts, never the value, so [p.id = $x]
   gets exactly the estimate of [p.id = 42] and a prepared statement's
   generic plan is the plan its literal form gets. A range needs the value:
   against a [$param] it keeps the default, as without a histogram. *)
let rec pred_selectivity t ~elem ~type_ids ~base pred =
  let open Gopt_pattern.Expr in
  let point = 1.0 /. Float.max 1.0 base in
  let from_hist prop shape ~default =
    match Option.bind t.hist (fun h -> Histograms.selectivity h ~elem ~type_ids ~prop shape) with
    | Some s -> s
    | None -> default
  in
  let is_constant = function Const _ | Param _ -> true | _ -> false in
  let eq key = from_hist key `Eq ~default:(if key = "id" then point else t.sel) in
  let range_of = function
    | Lt -> Some `Lt
    | Leq -> Some `Leq
    | Gt -> Some `Gt
    | Geq -> Some `Geq
    | _ -> None
  in
  let mirror = function `Lt -> `Gt | `Leq -> `Geq | `Gt -> `Lt | `Geq -> `Leq in
  match pred with
  | Binop (And, a, b) ->
    pred_selectivity t ~elem ~type_ids ~base a *. pred_selectivity t ~elem ~type_ids ~base b
  | Binop (Or, a, b) ->
    Float.min 1.0
      (pred_selectivity t ~elem ~type_ids ~base a
      +. pred_selectivity t ~elem ~type_ids ~base b)
  | In_list (Prop (_, key), vs) ->
    from_hist key (`In vs)
      ~default:
        (if key = "id" then Float.min 1.0 (float_of_int (List.length vs) *. point)
         else t.sel)
  | Binop (Eq, Prop (_, key), c) when is_constant c -> eq key
  | Binop (Eq, c, Prop (_, key)) when is_constant c -> eq key
  | Binop (op, Prop (_, key), Const v) when range_of op <> None ->
    from_hist key (`Range (Option.get (range_of op), v)) ~default:t.sel
  | Binop (op, Const v, Prop (_, key)) when range_of op <> None ->
    from_hist key (`Range (mirror (Option.get (range_of op)), v)) ~default:t.sel
  | _ -> t.sel

let selectivity_factor t p =
  let sch = schema t in
  let v_factor =
    Array.fold_left
      (fun acc (v : Pattern.vertex) ->
        match v.Pattern.v_pred with
        | None -> acc
        | Some pred ->
          let type_ids = Tc.to_list ~universe:(Schema.n_vtypes sch) v.Pattern.v_con in
          acc
          *. pred_selectivity t ~elem:Histograms.Vertex ~type_ids
               ~base:(vcon_freq t v.Pattern.v_con) pred)
      1.0 (Pattern.vertices p)
  in
  Array.fold_left
    (fun acc (e : Pattern.edge) ->
      match e.Pattern.e_pred with
      | None -> acc
      | Some pred ->
        let type_ids = Tc.to_list ~universe:(Schema.n_etypes sch) e.Pattern.e_con in
        let base = Float.max 1.0 (edge_freq t e ~src_con:Tc.All ~dst_con:Tc.All) in
        acc *. pred_selectivity t ~elem:Histograms.Edge ~type_ids ~base pred)
    v_factor (Pattern.edges p)

let components p =
  let n = Pattern.n_vertices p in
  let comp = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
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
  (comp, !next)

let all_basic p =
  Array.for_all (fun v -> match v.Pattern.v_con with Tc.Basic _ -> true | _ -> false)
    (Pattern.vertices p)
  && Array.for_all
       (fun (e : Pattern.edge) ->
         match e.Pattern.e_con with Tc.Basic _ -> true | Tc.Union _ | Tc.All -> false)
       (Pattern.edges p)

(* Matches of union-typed patterns partition over the basic-type assignments
   of their elements, so a small pattern with UnionTypes is answered exactly
   by summing the motif frequencies of its expansions (how GLogueQuery keeps
   high-order precision for arbitrary type constraints). Bounded by the
   number of combinations; [None] hands over to the sigma-decomposition. *)
let max_union_combos = 2048

let rec freq0 t p =
  (* memoize on the cheap alias-keyed code: iso-canonicalization is factorial
     in pattern size and only needed for the (small) GLogue lookups *)
  let code = Canonical.keyed_code p in
  match locked t (fun () -> Hashtbl.find_opt t.cache code) with
  | Some f -> f
  | None ->
    (* computed outside the lock: [compute] recurses into [freq0]; two
       domains racing on one code store the same value *)
    let f = compute t p in
    locked t (fun () -> Hashtbl.replace t.cache code f);
    f

and compute t p =
  let nv = Pattern.n_vertices p and ne = Pattern.n_edges p in
  if nv = 0 then 1.0
  else begin
    let comp, ncomp = components p in
    if ncomp > 1 then begin
      (* Eq. 1 with empty overlap: independent components multiply *)
      let total = ref 1.0 in
      for c = 0 to ncomp - 1 do
        let vs = List.filter (fun v -> comp.(v) = c) (List.init nv Fun.id) in
        let es =
          List.filter
            (fun ei -> comp.((Pattern.edge p ei).Pattern.e_src) = c)
            (List.init ne Fun.id)
        in
        let sub =
          if es = [] then Pattern.single_vertex p (List.hd vs)
          else fst (Pattern.sub_by_edges p es)
        in
        total := !total *. freq0 t sub
      done;
      !total
    end
    else if ne = 0 then vcon_freq t (Pattern.vertex p 0).Pattern.v_con
    else begin
      (* exact store lookup where permitted *)
      let lookup_limit = match t.mode with High_order -> Glogue.max_k t.glogue | Low_order -> 2 in
      let stored =
        if Pattern.has_var_length p || nv > lookup_limit then None
        else
          match if all_basic p then Glogue.find t.glogue p else None with
          | Some f -> Some f
          | None ->
            (* unions and undirected edges both partition the matches over
               expansions (type assignments / orientations) *)
            union_expansion t p
      in
      match stored with
      | Some f -> f
      | None ->
        if ne = 1 && not (Pattern.has_var_length p) then begin
          let e = Pattern.edge p 0 in
          let src_con = (Pattern.vertex p e.Pattern.e_src).Pattern.v_con in
          let dst_con = (Pattern.vertex p e.Pattern.e_dst).Pattern.v_con in
          edge_freq t e ~src_con ~dst_con
        end
        else if ne = 1 then begin
          (* a single variable-length edge: scan one side, expand k hops *)
          let e = Pattern.edge p 0 in
          let from_con = (Pattern.vertex p e.Pattern.e_src).Pattern.v_con in
          let to_con = (Pattern.vertex p e.Pattern.e_dst).Pattern.v_con in
          let k = match e.Pattern.e_hops with Some (lo, _) -> lo | None -> 1 in
          vcon_freq t from_con *. var_length_ratio t e ~from_con ~to_con ~forward:true ~k
        end
        else begin
          (* Eq. 2: peel a minimum-degree non-cut vertex *)
          let candidates =
            List.filter_map
              (fun v ->
                match Pattern.remove_vertex p v with
                | Some sub -> Some (v, sub)
                | None -> None)
              (List.init nv Fun.id)
          in
          match candidates with
          | [] ->
            (* should not happen for connected patterns; fall back to a crude
               product of edge ratios from a single vertex *)
            vcon_freq t (Pattern.vertex p 0).Pattern.v_con
          | _ ->
            let v, sub =
              List.fold_left
                (fun (bv, bs) (v, s) ->
                  if Pattern.degree p v < Pattern.degree p bv then (v, s) else (bv, bs))
                (List.hd candidates) (List.tl candidates)
            in
            let incident = Pattern.incident_edges p v in
            let base = freq0 t sub in
            let _, product =
              List.fold_left
                (fun (first, acc) ei ->
                  let s = sigma t p ~v ~ei ~closing:(not first) in
                  (false, acc *. s))
                (true, 1.0) incident
            in
            base *. product
        end
    end
  end

and union_expansion t p =
  let sch = schema t in
  let vuniv = Schema.n_vtypes sch and euniv = Schema.n_etypes sch in
  let v_lists =
    Array.map (fun (v : Pattern.vertex) -> Tc.to_list ~universe:vuniv v.Pattern.v_con)
      (Pattern.vertices p)
  in
  (* each edge expands over its admitted types and, when undirected, over its
     two orientations (`true` = keep stored direction, `false` = swapped) *)
  let e_lists =
    Array.map
      (fun (e : Pattern.edge) ->
        let types = Tc.to_list ~universe:euniv e.Pattern.e_con in
        let orientations = if e.Pattern.e_directed then [ true ] else [ true; false ] in
        List.concat_map (fun ty -> List.map (fun o -> (ty, o)) orientations) types)
      (Pattern.edges p)
  in
  let combos =
    Array.fold_left
      (fun acc l -> if acc > max_union_combos then acc else acc * List.length l)
      1 v_lists
    |> fun acc ->
    Array.fold_left
      (fun acc l -> if acc > max_union_combos then acc else acc * List.length l)
      acc e_lists
  in
  if combos <= 1 || combos > max_union_combos then None
  else begin
    let total = ref 0.0 in
    let rec over_vertices i v_assign =
      if i = Array.length v_lists then over_edges 0 (List.rev v_assign) []
      else List.iter (fun ty -> over_vertices (i + 1) (ty :: v_assign)) v_lists.(i)
    and over_edges j v_assign e_assign =
      if j = Array.length e_lists then begin
        let v_arr = Array.of_list v_assign and e_arr = Array.of_list (List.rev e_assign) in
        let combo =
          Pattern.map_vertices (fun i v -> { v with Pattern.v_con = Tc.Basic v_arr.(i) }) p
          |> Pattern.map_edges (fun i e ->
                 let ty, keep_dir = e_arr.(i) in
                 let e = { e with Pattern.e_con = Tc.Basic ty; e_directed = true } in
                 if keep_dir then e
                 else { e with Pattern.e_src = e.Pattern.e_dst; e_dst = e.Pattern.e_src })
        in
        total := !total +. freq0 t combo
      end
      else List.iter (fun choice -> over_edges (j + 1) v_assign (choice :: e_assign)) e_lists.(j)
    in
    over_vertices 0 [];
    Some !total
  end

let get_freq t p =
  let base = freq0 t (strip p) in
  base *. selectivity_factor t p

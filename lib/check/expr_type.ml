module Value = Gopt_graph.Value
module Schema = Gopt_graph.Schema
module Tc = Gopt_pattern.Type_constraint
module Expr = Gopt_pattern.Expr
module D = Diagnostic

type ty =
  | Any
  | Bool
  | Int
  | Float
  | Str
  | Node of Tc.t option
  | Edge of Tc.t option
  | Path
  | List of ty

let rec to_string = function
  | Any -> "any"
  | Bool -> "bool"
  | Int -> "int"
  | Float -> "float"
  | Str -> "string"
  | Node _ -> "node"
  | Edge _ -> "edge"
  | Path -> "path"
  | List t -> "list<" ^ to_string t ^ ">"

let of_value = function
  | Value.Null -> Any
  | Value.Bool _ -> Bool
  | Value.Int _ -> Int
  | Value.Float _ -> Float
  | Value.Str _ -> Str

(* Kind lattice used for compatibility questions: values of different kinds
   never compare equal at runtime (Value.compare orders them by constructor,
   elements scalarize to ids), so a known cross-kind comparison is at best a
   constant. *)
type kind = K_any | K_num | K_str | K_bool | K_elem | K_path | K_list

let kind = function
  | Any -> K_any
  | Int | Float -> K_num
  | Str -> K_str
  | Bool -> K_bool
  | Node _ | Edge _ -> K_elem
  | Path -> K_path
  | List _ -> K_list

let is_numeric t = match kind t with K_num | K_any -> true | _ -> false

let compatible a b =
  match kind a, kind b with
  | K_any, _ | _, K_any -> true
  | ka, kb -> ka = kb

let of_kind = function
  | Schema.P_bool -> Bool
  | Schema.P_int -> Int
  | Schema.P_float -> Float
  | Schema.P_string -> Str

let join a b =
  if a = b then a
  else
    match a, b with
    | (Int | Float), (Int | Float) -> Float
    | _ -> Any

let prop_ty schema ~is_vertex con key =
  let universe = if is_vertex then Schema.n_vtypes schema else Schema.n_etypes schema in
  let props t = if is_vertex then Schema.vprops schema t else Schema.eprops schema t in
  let name t = if is_vertex then Schema.vtype_name schema t else Schema.etype_name schema t in
  match con with
  | None -> (Any, None)
  | Some con ->
    let admitted = Tc.to_list ~universe con in
    let declared =
      List.filter_map (fun t -> Option.map of_kind (List.assoc_opt key (props t))) admitted
    in
    (match declared with
    | [] ->
      ( Any,
        Some
          (Printf.sprintf "property %S is not declared on %s type%s %s" key
             (if is_vertex then "vertex" else "edge")
             (if List.length admitted = 1 then "" else "s")
             (String.concat "|" (List.map name admitted))) )
    | k :: rest -> (List.fold_left join k rest, None))

let infer ?schema ?(param_ty = fun _ -> None) ~lookup ~path e =
  let diags = ref [] in
  let err fmt = Printf.ksprintf (fun m -> diags := D.error ~path m :: !diags) fmt in
  let warn fmt = Printf.ksprintf (fun m -> diags := D.warning ~path m :: !diags) fmt in
  let resolve x =
    match lookup x with
    | Some t -> t
    | None ->
      err "unbound variable %S" x;
      Any
  in
  let rec go e =
    match e with
    | Expr.Const v -> of_value v
    | Expr.Param name -> begin
      (* A runtime placeholder: typed [Any] unless the caller declares (or
         has inferred) a kind for the binding, in which case the parameter
         participates in compatibility checks like any other operand. *)
      match param_ty name with
      | Some t -> begin
        match kind t with
        | K_any | K_num | K_str | K_bool -> t
        | _ ->
          err "parameter $%s declared with non-scalar type %s" name (to_string t);
          Any
      end
      | None -> Any
    end
    | Expr.Var x -> resolve x
    | Expr.Prop (x, key) -> begin
      match resolve x with
      | Node con -> begin
        match schema with
        | None -> Any
        | Some s ->
          let t, w = prop_ty s ~is_vertex:true con key in
          Option.iter (fun m -> warn "%s" m) w;
          t
      end
      | Edge con -> begin
        match schema with
        | None -> Any
        | Some s ->
          let t, w = prop_ty s ~is_vertex:false con key in
          Option.iter (fun m -> warn "%s" m) w;
          t
      end
      | Path ->
        warn "property access %s.%s on a variable-length path is always null" x key;
        Any
      | Any -> Any
      | t ->
        err "property access %s.%s on a %s value" x key (to_string t);
        Any
    end
    | Expr.Label x -> begin
      match resolve x with
      | Node _ | Edge _ | Any -> Str
      | t ->
        err "label(%s) on a %s value" x (to_string t);
        Str
    end
    | Expr.Unop (op, inner) -> begin
      let t = go inner in
      match op with
      | Expr.Not ->
        if not (compatible t Bool) then err "NOT applied to a %s operand" (to_string t);
        Bool
      | Expr.Neg ->
        if not (is_numeric t) then err "unary minus applied to a %s operand" (to_string t);
        (match t with Int | Float -> t | _ -> Any)
      | Expr.Is_null | Expr.Is_not_null -> Bool
    end
    | Expr.Binop (op, l, r) -> begin
      let tl = go l and tr = go r in
      match op with
      | Expr.And | Expr.Or ->
        if not (compatible tl Bool) then
          err "%s with a %s operand" (Expr.binop_name op) (to_string tl);
        if not (compatible tr Bool) then
          err "%s with a %s operand" (Expr.binop_name op) (to_string tr);
        Bool
      | Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Mod ->
        if not (is_numeric tl) then
          err "arithmetic %S on a %s operand" (Expr.binop_name op) (to_string tl);
        if not (is_numeric tr) then
          err "arithmetic %S on a %s operand" (Expr.binop_name op) (to_string tr);
        (match tl, tr with
        | Int, Int -> Int
        | (Int | Float), (Int | Float) -> Float
        | _ -> Any)
      | Expr.Eq | Expr.Neq | Expr.Lt | Expr.Leq | Expr.Gt | Expr.Geq ->
        if not (compatible tl tr) then
          warn "comparison %s %s %s between incompatible types never holds at runtime"
            (to_string tl) (Expr.binop_name op) (to_string tr);
        Bool
      | Expr.Starts_with | Expr.Ends_with | Expr.Contains ->
        if not (compatible tl Str) then
          err "%s on a %s operand" (Expr.binop_name op) (to_string tl);
        if not (compatible tr Str) then
          err "%s on a %s operand" (Expr.binop_name op) (to_string tr);
        Bool
    end
    | Expr.In_list (inner, vs) ->
      let t = go inner in
      let vts = List.filter_map (fun v -> if Value.is_null v then None else Some (of_value v)) vs in
      if vts <> [] && not (List.exists (compatible t) vts) then
        warn "IN over a list of %s values never matches a %s operand"
          (to_string (List.hd vts)) (to_string t);
      Bool
    | Expr.Adjacent { src; dst; _ } ->
      List.iter
        (fun x ->
          match resolve x with
          | Node _ | Any -> ()
          | t -> err "adjacency test on %s, a %s value" x (to_string t))
        [ src; dst ];
      Bool
  in
  let t = go e in
  (t, List.rev !diags)

module Value = Gopt_graph.Value

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Neq | Lt | Leq | Gt | Geq
  | And | Or
  | Starts_with | Ends_with | Contains

type unop = Not | Neg | Is_null | Is_not_null

type t =
  | Const of Value.t
  | Param of string
  | Var of string
  | Prop of string * string
  | Label of string
  | Binop of binop * t * t
  | Unop of unop * t
  | In_list of t * Value.t list
  | Adjacent of { src : string; dst : string; con : Type_constraint.t; directed : bool }

let rec compare a b = Stdlib.compare (erase a) (erase b)

(* [Value.t] contains floats, for which polymorphic compare is fine here
   (total, NaN-free in practice); erase to a comparable skeleton. *)
and erase = function
  | Const v -> `Const (Value.to_string v)
  | Param x -> `Param x
  | Var x -> `Var x
  | Prop (x, k) -> `Prop (x, k)
  | Label x -> `Label x
  | Binop (op, l, r) -> `Binop (op, erase l, erase r)
  | Unop (op, e) -> `Unop (op, erase e)
  | In_list (e, vs) -> `In (erase e, List.map Value.to_string vs)
  | Adjacent { src; dst; con; directed } ->
    `Adjacent (src, dst, Type_constraint.fingerprint con, directed)

let equal a b = compare a b = 0

let free_tags e =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let visit tag =
    if not (Hashtbl.mem seen tag) then begin
      Hashtbl.add seen tag ();
      acc := tag :: !acc
    end
  in
  let rec go = function
    | Const _ | Param _ -> ()
    | Var x | Prop (x, _) | Label x -> visit x
    | Binop (_, l, r) -> go l; go r
    | Unop (_, e) -> go e
    | In_list (e, _) -> go e
    | Adjacent { src; dst; _ } -> visit src; visit dst
  in
  go e;
  List.rev !acc

let params e =
  let seen = Hashtbl.create 4 in
  let acc = ref [] in
  let rec go = function
    | Const _ | Var _ | Prop _ | Label _ | Adjacent _ -> ()
    | Param name ->
      if not (Hashtbl.mem seen name) then begin
        Hashtbl.add seen name ();
        acc := name :: !acc
      end
    | Binop (_, l, r) -> go l; go r
    | Unop (_, e) -> go e
    | In_list (e, _) -> go e
  in
  go e;
  List.rev !acc

let rec bind_params f = function
  | (Const _ | Var _ | Prop _ | Label _ | Adjacent _) as e -> e
  | Param name as e -> ( match f name with Some v -> Const v | None -> e)
  | Binop (op, l, r) -> Binop (op, bind_params f l, bind_params f r)
  | Unop (op, e) -> Unop (op, bind_params f e)
  | In_list (e, vs) -> In_list (bind_params f e, vs)

let rec conjuncts = function
  | Binop (And, l, r) -> conjuncts l @ conjuncts r
  | e -> [ e ]

let conj = function
  | [] -> None
  | e :: rest -> Some (List.fold_left (fun acc x -> Binop (And, acc, x)) e rest)

let rec rename_tags f = function
  | (Const _ | Param _) as e -> e
  | Var x -> Var (f x)
  | Prop (x, k) -> Prop (f x, k)
  | Label x -> Label (f x)
  | Binop (op, l, r) -> Binop (op, rename_tags f l, rename_tags f r)
  | Unop (op, e) -> Unop (op, rename_tags f e)
  | In_list (e, vs) -> In_list (rename_tags f e, vs)
  | Adjacent a -> Adjacent { a with src = f a.src; dst = f a.dst }

let substitute f e =
  let exception Fail in
  let rec go = function
    | (Const _ | Param _) as e -> e
    | Var x as e -> ( match f x with Some e' -> e' | None -> e)
    | Prop (x, k) as e -> begin
      match f x with
      | Some (Var y) -> Prop (y, k)
      | Some _ -> raise Fail
      | None -> e
    end
    | Label x as e -> begin
      match f x with
      | Some (Var y) -> Label y
      | Some _ -> raise Fail
      | None -> e
    end
    | Binop (op, l, r) -> Binop (op, go l, go r)
    | Unop (op, inner) -> Unop (op, go inner)
    | In_list (inner, vs) -> In_list (go inner, vs)
    | Adjacent a ->
      (* like [Prop]: an endpoint can only be renamed to another tag *)
      let endpoint x =
        match f x with Some (Var y) -> y | Some _ -> raise Fail | None -> x
      in
      Adjacent { a with src = endpoint a.src; dst = endpoint a.dst }
  in
  match go e with e' -> Some e' | exception Fail -> None

(* Constant folding shares the arithmetic/comparison semantics with the
   evaluator in the execution layer; only total, side-effect-free cases are
   folded, everything else is preserved. *)
let num_binop op x y =
  match x, y with
  | Value.Int a, Value.Int b -> begin
    match op with
    | Add -> Some (Value.Int (a + b))
    | Sub -> Some (Value.Int (a - b))
    | Mul -> Some (Value.Int (a * b))
    | Div -> if b = 0 then None else Some (Value.Int (a / b))
    | Mod -> if b = 0 then None else Some (Value.Int (a mod b))
    | _ -> None
  end
  | _ -> begin
    match Value.as_float x, Value.as_float y with
    | Some a, Some b -> begin
      match op with
      | Add -> Some (Value.Float (a +. b))
      | Sub -> Some (Value.Float (a -. b))
      | Mul -> Some (Value.Float (a *. b))
      | Div -> if b = 0.0 then None else Some (Value.Float (a /. b))
      | _ -> None
    end
    | _ -> None
  end

let cmp_binop op x y =
  if Value.is_null x || Value.is_null y then None
  else
    let c = Value.compare x y in
    let r =
      match op with
      | Eq -> c = 0
      | Neq -> c <> 0
      | Lt -> c < 0
      | Leq -> c <= 0
      | Gt -> c > 0
      | Geq -> c >= 0
      | _ -> assert false
    in
    Some (Value.Bool r)

let rec const_fold e =
  match e with
  | Const _ | Param _ | Var _ | Prop _ | Label _ | Adjacent _ -> e
  | Unop (op, inner) -> begin
    let inner = const_fold inner in
    match op, inner with
    | Not, Const (Value.Bool b) -> Const (Value.Bool (not b))
    | Neg, Const (Value.Int n) -> Const (Value.Int (-n))
    | Neg, Const (Value.Float f) -> Const (Value.Float (-.f))
    | Is_null, Const v -> Const (Value.Bool (Value.is_null v))
    | Is_not_null, Const v -> Const (Value.Bool (not (Value.is_null v)))
    | _ -> Unop (op, inner)
  end
  | Binop (op, l, r) -> begin
    let l = const_fold l and r = const_fold r in
    match op, l, r with
    | And, Const (Value.Bool true), e | And, e, Const (Value.Bool true) -> e
    | And, (Const (Value.Bool false) as f), _ | And, _, (Const (Value.Bool false) as f) -> f
    | Or, Const (Value.Bool false), e | Or, e, Const (Value.Bool false) -> e
    | Or, (Const (Value.Bool true) as t'), _ | Or, _, (Const (Value.Bool true) as t') -> t'
    | (Add | Sub | Mul | Div | Mod), Const x, Const y -> begin
      match num_binop op x y with Some v -> Const v | None -> Binop (op, l, r)
    end
    | (Eq | Neq | Lt | Leq | Gt | Geq), Const x, Const y -> begin
      match cmp_binop op x y with Some v -> Const v | None -> Binop (op, l, r)
    end
    | _ -> Binop (op, l, r)
  end
  | In_list (inner, vs) -> begin
    match const_fold inner with
    | Const v -> Const (Value.Bool (List.exists (Value.equal v) vs))
    | inner -> In_list (inner, vs)
  end

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Eq -> "=" | Neq -> "<>" | Lt -> "<" | Leq -> "<=" | Gt -> ">" | Geq -> ">="
  | And -> "AND" | Or -> "OR"
  | Starts_with -> "STARTS WITH" | Ends_with -> "ENDS WITH" | Contains -> "CONTAINS"

let rec pp_with ename ppf =
  let pp = pp_with ename in
  function
  | Const v -> Value.pp ppf v
  | Param x -> Format.fprintf ppf "$%s" x
  | Var x -> Format.pp_print_string ppf x
  | Prop (x, k) -> Format.fprintf ppf "%s.%s" x k
  | Label x -> Format.fprintf ppf "label(%s)" x
  | Binop (op, l, r) -> Format.fprintf ppf "(%a %s %a)" pp l (binop_name op) pp r
  | Unop (Not, e) -> Format.fprintf ppf "NOT %a" pp e
  | Unop (Neg, e) -> Format.fprintf ppf "-%a" pp e
  | Unop (Is_null, e) -> Format.fprintf ppf "%a IS NULL" pp e
  | Unop (Is_not_null, e) -> Format.fprintf ppf "%a IS NOT NULL" pp e
  | In_list (e, vs) ->
    Format.fprintf ppf "%a IN [%s]" pp e
      (String.concat "; " (List.map Value.to_string vs))
  | Adjacent { src; dst; con; directed } ->
    Format.fprintf ppf "(%s)-[:%a]-%s(%s)" src
      (Type_constraint.pp ~names:ename)
      con
      (if directed then ">" else "")
      dst

let pp = pp_with (fun t -> "#" ^ string_of_int t)

let to_string ?schema e =
  match schema with
  | None -> Format.asprintf "%a" pp e
  | Some s -> Format.asprintf "%a" (pp_with (Gopt_graph.Schema.etype_name s)) e

module Value = Gopt_graph.Value
module Expr = Gopt_pattern.Expr
open Gopt_lang.Cypher_ast

(* Literal canonicalization. Fresh parameters are named "@p0", "@p1", … in
   traversal order — user parameters cannot collide with them ('@' is not an
   identifier character in the lexer) and two queries with the same shape
   assign the same names at the same positions, which is what makes their
   fingerprints collide (intentionally). *)

let parameterizable = function
  | Value.Int _ | Value.Float _ | Value.Str _ -> true
  | Value.Bool _ | Value.Null -> false

let auto_parameterize q =
  let counter = ref 0 in
  let bindings = ref [] in
  let fresh v =
    let name = Printf.sprintf "@p%d" !counter in
    incr counter;
    bindings := (name, [ v ]) :: !bindings;
    Expr.Param name
  in
  let rec go e =
    match e with
    | Expr.Const v when parameterizable v -> fresh v
    | Expr.Const _ | Expr.Param _ | Expr.Var _ | Expr.Prop _ | Expr.Label _
    | Expr.Adjacent _ ->
      e
    | Expr.Binop (op, l, r) ->
      (* A constant compared against label(x) narrows the element's type
         constraint during inference — hiding it behind a parameter would
         change the plan, so both operands of a label comparison stay put. *)
      let label_cmp =
        match l, r with Expr.Label _, _ | _, Expr.Label _ -> true | _ -> false
      in
      if label_cmp then e else Expr.Binop (op, go l, go r)
    | Expr.Unop (op, inner) -> Expr.Unop (op, go inner)
    | Expr.In_list (inner, vs) -> Expr.In_list (go inner, vs)
  in
  let proj_item it =
    {
      it with
      item =
        (match it.item with
        | Scalar e -> Scalar (go e)
        | Agg (fn, distinct, arg) -> Agg (fn, distinct, Option.map go arg));
    }
  in
  let projection p =
    {
      p with
      items = List.map proj_item p.items;
      order_by = List.map (fun (e, d) -> (go e, d)) p.order_by;
      where = Option.map go p.where;
    }
  in
  let conjunct = function
    | Wc_expr e -> Wc_expr (go e)
    | Wc_pattern _ as w -> w
  in
  let clause = function
    | C_match { optional; paths; where } ->
      C_match { optional; paths; where = List.map conjunct where }
    | C_unwind (e, alias) -> C_unwind (go e, alias)
    | C_with p -> C_with (projection p)
    | C_return p -> C_return (projection p)
  in
  let parts = List.map (List.map clause) q.parts in
  ({ q with parts }, List.rev !bindings)

(* The AST is pure data (constructors over strings, ints and Value.t), so
   Marshal gives a canonical structural encoding; planner configuration is
   signed by the caller as a string because Planner.config holds cost-model
   closures that must never be serialized. *)
let digest ~config ~epoch q =
  let payload =
    String.concat "\x00" [ Marshal.to_string q []; config; string_of_int epoch ]
  in
  Digest.to_hex (Digest.string payload)

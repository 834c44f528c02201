type node_pat = {
  n_name : string option;
  n_labels : string list;
  n_props : (string * Gopt_pattern.Expr.t) list;
}

type rel_dir = R_out | R_in | R_both

type rel_pat = {
  r_name : string option;
  r_types : string list;
  r_dir : rel_dir;
  r_hops : (int * int) option;
  r_props : (string * Gopt_pattern.Expr.t) list;
}

type path_pat = { head : node_pat; tail : (rel_pat * node_pat) list }

type proj_item = {
  item : item_kind;
  alias : string option;
}

and item_kind =
  | Scalar of Gopt_pattern.Expr.t
  | Agg of Gopt_gir.Logical.agg_fn * bool * Gopt_pattern.Expr.t option

type projection = {
  distinct : bool;
  items : proj_item list;
  order_by : (Gopt_pattern.Expr.t * Gopt_gir.Logical.sort_dir) list;
  skip : int option;
  limit : int option;
  where : Gopt_pattern.Expr.t option;
}

type where_conjunct =
  | Wc_expr of Gopt_pattern.Expr.t
  | Wc_pattern of bool * path_pat list

type clause =
  | C_match of { optional : bool; paths : path_pat list; where : where_conjunct list }
  | C_unwind of Gopt_pattern.Expr.t * string
  | C_with of projection
  | C_return of projection

type single_query = clause list

type query = { parts : single_query list; union_all : bool }

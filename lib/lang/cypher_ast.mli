(** Abstract syntax of the supported Cypher subset (paper §5.2).

    The subset covers the optimization-relevant core of Cypher 9: MATCH /
    OPTIONAL MATCH with ASCII-art path patterns (labels, UnionType labels
    [:A|B], property maps, variable-length relationships), WHERE with scalar
    predicates and [NOT] pattern predicates, WITH/RETURN projections with
    implicit-grouping aggregates, DISTINCT, ORDER BY, LIMIT, and UNION
    [ALL]. *)

type node_pat = {
  n_name : string option;
  n_labels : string list;  (** [] = unlabelled; several = UnionType. *)
  n_props : (string * Gopt_pattern.Expr.t) list;
      (** [{key: value}] sugar; each value is a [Const] or, in a prepared
          statement, a [Param]. *)
}

type rel_dir = R_out | R_in | R_both

type rel_pat = {
  r_name : string option;
  r_types : string list;
  r_dir : rel_dir;
  r_hops : (int * int) option;  (** [*], [*n], [*n..m] *)
  r_props : (string * Gopt_pattern.Expr.t) list;  (** As [n_props]. *)
}

type path_pat = { head : node_pat; tail : (rel_pat * node_pat) list }

type proj_item = {
  item : item_kind;
  alias : string option;  (** [AS name] *)
}

and item_kind =
  | Scalar of Gopt_pattern.Expr.t
  | Agg of Gopt_gir.Logical.agg_fn * bool * Gopt_pattern.Expr.t option
      (** function, DISTINCT flag, argument ([None] = count-star). *)

type projection = {
  distinct : bool;
  items : proj_item list;
  order_by : (Gopt_pattern.Expr.t * Gopt_gir.Logical.sort_dir) list;
  skip : int option;
  limit : int option;
  where : Gopt_pattern.Expr.t option;  (** [WITH ... WHERE] post-filter. *)
}

type where_conjunct =
  | Wc_expr of Gopt_pattern.Expr.t
  | Wc_pattern of bool * path_pat list
      (** Pattern predicate; the bool is [true] for EXISTS-style (semi) and
          [false] for [NOT (...)] (anti). *)

type clause =
  | C_match of { optional : bool; paths : path_pat list; where : where_conjunct list }
  | C_unwind of Gopt_pattern.Expr.t * string  (** [UNWIND expr AS name] *)
  | C_with of projection
  | C_return of projection

type single_query = clause list

type query = { parts : single_query list; union_all : bool }

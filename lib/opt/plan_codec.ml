module Pattern = Gopt_pattern.Pattern
module Tc = Gopt_pattern.Type_constraint
module Expr = Gopt_pattern.Expr
module Value = Gopt_graph.Value
module Logical = Gopt_gir.Logical

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Decode_error m)) fmt

module Sexp = struct
  type t = Atom of string | List of t list

  let needs_quoting s =
    s = ""
    || String.exists
         (fun c -> c = ' ' || c = '(' || c = ')' || c = '"' || c = '\n' || c = '\t')
         s

  let quote s =
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf

  let rec write buf = function
    | Atom s -> Buffer.add_string buf (if needs_quoting s then quote s else s)
    | List items ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ' ';
          write buf item)
        items;
      Buffer.add_char buf ')'

  let to_string t =
    let buf = Buffer.create 256 in
    write buf t;
    Buffer.contents buf

  let of_string src =
    let n = String.length src in
    let pos = ref 0 in
    let peek () = if !pos < n then Some src.[!pos] else None in
    let skip_ws () =
      while !pos < n && (src.[!pos] = ' ' || src.[!pos] = '\n' || src.[!pos] = '\t' || src.[!pos] = '\r') do
        incr pos
      done
    in
    let rec parse () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '(' ->
        incr pos;
        let items = ref [] in
        let rec loop () =
          skip_ws ();
          match peek () with
          | Some ')' -> incr pos
          | None -> fail "unterminated list"
          | Some _ ->
            items := parse () :: !items;
            loop ()
        in
        loop ();
        List (List.rev !items)
      | Some ')' -> fail "unexpected ')'"
      | Some '"' ->
        incr pos;
        let buf = Buffer.create 16 in
        let rec loop () =
          if !pos >= n then fail "unterminated string"
          else begin
            let c = src.[!pos] in
            incr pos;
            if c = '"' then ()
            else if c = '\\' && !pos < n then begin
              let e = src.[!pos] in
              incr pos;
              Buffer.add_char buf
                (match e with 'n' -> '\n' | 't' -> '\t' | other -> other);
              loop ()
            end
            else begin
              Buffer.add_char buf c;
              loop ()
            end
          end
        in
        loop ();
        Atom (Buffer.contents buf)
      | Some _ ->
        let start = !pos in
        while
          !pos < n
          &&
          let c = src.[!pos] in
          c <> ' ' && c <> '(' && c <> ')' && c <> '\n' && c <> '\t' && c <> '\r'
        do
          incr pos
        done;
        Atom (String.sub src start (!pos - start))
    in
    let result = parse () in
    skip_ws ();
    if !pos <> n then fail "trailing input after s-expression";
    result
end

open Sexp

(* --- encoders --------------------------------------------------------------- *)

let enc_int n = Atom (string_of_int n)
let enc_bool b = Atom (string_of_bool b)

let enc_value = function
  | Value.Null -> List [ Atom "null" ]
  | Value.Bool b -> List [ Atom "bool"; enc_bool b ]
  | Value.Int n -> List [ Atom "int"; enc_int n ]
  | Value.Float f -> List [ Atom "float"; Atom (Printf.sprintf "%h" f) ]
  | Value.Str s -> List [ Atom "str"; Atom s ]

let enc_tc = function
  | Tc.Basic t -> List [ Atom "basic"; enc_int t ]
  | Tc.Union ts -> List (Atom "union" :: List.map enc_int ts)
  | Tc.All -> Atom "all"

let binop_name = function
  | Expr.Add -> "add" | Expr.Sub -> "sub" | Expr.Mul -> "mul" | Expr.Div -> "div"
  | Expr.Mod -> "mod" | Expr.Eq -> "eq" | Expr.Neq -> "neq" | Expr.Lt -> "lt"
  | Expr.Leq -> "leq" | Expr.Gt -> "gt" | Expr.Geq -> "geq" | Expr.And -> "and"
  | Expr.Or -> "or" | Expr.Starts_with -> "starts" | Expr.Ends_with -> "ends"
  | Expr.Contains -> "contains"

let binop_of = function
  | "add" -> Expr.Add | "sub" -> Expr.Sub | "mul" -> Expr.Mul | "div" -> Expr.Div
  | "mod" -> Expr.Mod | "eq" -> Expr.Eq | "neq" -> Expr.Neq | "lt" -> Expr.Lt
  | "leq" -> Expr.Leq | "gt" -> Expr.Gt | "geq" -> Expr.Geq | "and" -> Expr.And
  | "or" -> Expr.Or | "starts" -> Expr.Starts_with | "ends" -> Expr.Ends_with
  | "contains" -> Expr.Contains
  | other -> fail "unknown binop %s" other

let unop_name = function
  | Expr.Not -> "not" | Expr.Neg -> "neg" | Expr.Is_null -> "isnull"
  | Expr.Is_not_null -> "isnotnull"

let unop_of = function
  | "not" -> Expr.Not | "neg" -> Expr.Neg | "isnull" -> Expr.Is_null
  | "isnotnull" -> Expr.Is_not_null
  | other -> fail "unknown unop %s" other

let rec enc_expr = function
  | Expr.Const v -> List [ Atom "const"; enc_value v ]
  | Expr.Param x -> List [ Atom "param"; Atom x ]
  | Expr.Var x -> List [ Atom "var"; Atom x ]
  | Expr.Prop (x, k) -> List [ Atom "prop"; Atom x; Atom k ]
  | Expr.Label x -> List [ Atom "label"; Atom x ]
  | Expr.Binop (op, l, r) -> List [ Atom "binop"; Atom (binop_name op); enc_expr l; enc_expr r ]
  | Expr.Unop (op, e) -> List [ Atom "unop"; Atom (unop_name op); enc_expr e ]
  | Expr.In_list (e, vs) -> List (Atom "in" :: enc_expr e :: List.map enc_value vs)
  | Expr.Adjacent { src; dst; con; directed } ->
    List [ Atom "adjacent"; Atom src; Atom dst; enc_tc con; enc_bool directed ]

let enc_opt enc = function None -> Atom "-" | Some x -> List [ Atom "some"; enc x ]

let path_sem_name = function
  | Pattern.Arbitrary -> "arbitrary"
  | Pattern.Simple -> "simple"
  | Pattern.Trail -> "trail"

let path_sem_of = function
  | "arbitrary" -> Pattern.Arbitrary
  | "simple" -> Pattern.Simple
  | "trail" -> Pattern.Trail
  | other -> fail "unknown path semantics %s" other

let enc_edge (e : Pattern.edge) =
  List
    [
      Atom "edge";
      enc_int e.Pattern.e_src;
      enc_int e.Pattern.e_dst;
      enc_tc e.Pattern.e_con;
      enc_opt enc_expr e.Pattern.e_pred;
      Atom e.Pattern.e_alias;
      enc_bool e.Pattern.e_directed;
      enc_opt (fun (lo, hi) -> List [ enc_int lo; enc_int hi ]) e.Pattern.e_hops;
      Atom (path_sem_name e.Pattern.e_path);
    ]

let enc_step (s : Physical.edge_step) =
  List
    [
      Atom "step";
      enc_edge s.Physical.s_edge;
      Atom s.Physical.s_from;
      Atom s.Physical.s_to;
      enc_bool s.Physical.s_forward;
      enc_tc s.Physical.s_to_con;
      enc_opt enc_expr s.Physical.s_to_pred;
    ]

let agg_name = function
  | Logical.Count -> "count" | Logical.Count_distinct -> "countd" | Logical.Sum -> "sum"
  | Logical.Avg -> "avg" | Logical.Min -> "min" | Logical.Max -> "max"
  | Logical.Collect -> "collect"

let agg_of = function
  | "count" -> Logical.Count | "countd" -> Logical.Count_distinct | "sum" -> Logical.Sum
  | "avg" -> Logical.Avg | "min" -> Logical.Min | "max" -> Logical.Max
  | "collect" -> Logical.Collect
  | other -> fail "unknown aggregate %s" other

let kind_name = function
  | Logical.Inner -> "inner" | Logical.Left_outer -> "louter" | Logical.Semi -> "semi"
  | Logical.Anti -> "anti"

let kind_of = function
  | "inner" -> Logical.Inner | "louter" -> Logical.Left_outer | "semi" -> Logical.Semi
  | "anti" -> Logical.Anti
  | other -> fail "unknown join kind %s" other

let enc_agg (a : Logical.agg) =
  List [ Atom (agg_name a.Logical.agg_fn); enc_opt enc_expr a.Logical.agg_arg; Atom a.Logical.agg_alias ]

let enc_named (e, name) = List [ enc_expr e; Atom name ]

let enc_sort (e, dir) =
  List [ enc_expr e; Atom (match dir with Logical.Asc -> "asc" | Logical.Desc -> "desc") ]

let enc_strings tags = List (List.map (fun t -> Atom t) tags)

let rec enc_plan = function
  | Physical.Scan { alias; con; pred } ->
    List [ Atom "scan"; Atom alias; enc_tc con; enc_opt enc_expr pred ]
  | Physical.Expand_all (x, s) -> List [ Atom "expand-all"; enc_plan x; enc_step s ]
  | Physical.Expand_into (x, s) -> List [ Atom "expand-into"; enc_plan x; enc_step s ]
  | Physical.Expand_intersect (x, steps) ->
    List (Atom "expand-intersect" :: enc_plan x :: List.map enc_step steps)
  | Physical.Path_expand (x, s) -> List [ Atom "path-expand"; enc_plan x; enc_step s ]
  | Physical.Hash_join { left; right; keys; kind } ->
    List [ Atom "hash-join"; Atom (kind_name kind); enc_strings keys; enc_plan left; enc_plan right ]
  | Physical.Select (x, e) -> List [ Atom "select"; enc_plan x; enc_expr e ]
  | Physical.Project (x, ps) -> List (Atom "project" :: enc_plan x :: List.map enc_named ps)
  | Physical.Group (x, ks, aggs) ->
    List
      [ Atom "group"; enc_plan x; List (List.map enc_named ks); List (List.map enc_agg aggs) ]
  | Physical.Order (x, ks, lim) ->
    List [ Atom "order"; enc_plan x; List (List.map enc_sort ks); enc_opt enc_int lim ]
  | Physical.Limit (x, n) -> List [ Atom "limit"; enc_plan x; enc_int n ]
  | Physical.Skip (x, n) -> List [ Atom "skip"; enc_plan x; enc_int n ]
  | Physical.Unfold (x, e, a) -> List [ Atom "unfold"; enc_plan x; enc_expr e; Atom a ]
  | Physical.Dedup (x, tags) -> List [ Atom "dedup"; enc_plan x; enc_strings tags ]
  | Physical.Union (a, b) -> List [ Atom "union"; enc_plan a; enc_plan b ]
  | Physical.All_distinct (x, tags) -> List [ Atom "all-distinct"; enc_plan x; enc_strings tags ]
  | Physical.With_common { common; left; right; combine } ->
    let comb =
      match combine with
      | Logical.C_union -> List [ Atom "c-union" ]
      | Logical.C_join (keys, kind) ->
        List [ Atom "c-join"; Atom (kind_name kind); enc_strings keys ]
    in
    List [ Atom "with-common"; comb; enc_plan common; enc_plan left; enc_plan right ]
  | Physical.Common_ref fields -> List [ Atom "common-ref"; enc_strings fields ]
  | Physical.Empty fields -> List [ Atom "empty"; enc_strings fields ]

let encode plan = Sexp.to_string (List [ Atom "gopt-plan"; Atom "v1"; enc_plan plan ])

(* --- decoders --------------------------------------------------------------- *)

let dec_int = function Atom s -> ( try int_of_string s with _ -> fail "expected int, got %s" s) | List _ -> fail "expected int"

let dec_bool = function
  | Atom "true" -> true
  | Atom "false" -> false
  | _ -> fail "expected bool"

let dec_atom = function Atom s -> s | List _ -> fail "expected atom"

let dec_value = function
  | List [ Atom "null" ] -> Value.Null
  | List [ Atom "bool"; b ] -> Value.Bool (dec_bool b)
  | List [ Atom "int"; n ] -> Value.Int (dec_int n)
  | List [ Atom "float"; Atom f ] -> Value.Float (float_of_string f)
  | List [ Atom "str"; Atom s ] -> Value.Str s
  | _ -> fail "malformed value"

let dec_tc = function
  | List [ Atom "basic"; t ] -> Tc.Basic (dec_int t)
  | List (Atom "union" :: ts) -> Tc.Union (List.map dec_int ts)
  | Atom "all" -> Tc.All
  | _ -> fail "malformed type constraint"

let dec_opt dec = function
  | Atom "-" -> None
  | List [ Atom "some"; x ] -> Some (dec x)
  | _ -> fail "malformed option"

let rec dec_expr = function
  | List [ Atom "const"; v ] -> Expr.Const (dec_value v)
  | List [ Atom "param"; Atom x ] -> Expr.Param x
  | List [ Atom "var"; Atom x ] -> Expr.Var x
  | List [ Atom "prop"; Atom x; Atom k ] -> Expr.Prop (x, k)
  | List [ Atom "label"; Atom x ] -> Expr.Label x
  | List [ Atom "binop"; Atom op; l; r ] -> Expr.Binop (binop_of op, dec_expr l, dec_expr r)
  | List [ Atom "unop"; Atom op; e ] -> Expr.Unop (unop_of op, dec_expr e)
  | List (Atom "in" :: e :: vs) -> Expr.In_list (dec_expr e, List.map dec_value vs)
  | List [ Atom "adjacent"; Atom src; Atom dst; con; directed ] ->
    Expr.Adjacent { src; dst; con = dec_tc con; directed = dec_bool directed }
  | _ -> fail "malformed expression"

let dec_edge = function
  | List [ Atom "edge"; src; dst; con; pred; Atom alias; directed; hops; Atom sem ] ->
    {
      Pattern.e_src = dec_int src;
      e_dst = dec_int dst;
      e_con = dec_tc con;
      e_pred = dec_opt dec_expr pred;
      e_alias = alias;
      e_directed = dec_bool directed;
      e_hops =
        dec_opt
          (function
            | List [ lo; hi ] -> (dec_int lo, dec_int hi)
            | _ -> fail "malformed hops")
          hops;
      e_path = path_sem_of sem;
    }
  | _ -> fail "malformed edge"

let dec_step = function
  | List [ Atom "step"; edge; Atom from_a; Atom to_a; forward; con; pred ] ->
    {
      Physical.s_edge = dec_edge edge;
      s_from = from_a;
      s_to = to_a;
      s_forward = dec_bool forward;
      s_to_con = dec_tc con;
      s_to_pred = dec_opt dec_expr pred;
    }
  | _ -> fail "malformed step"

let dec_agg = function
  | List [ Atom fn; arg; Atom alias ] ->
    { Logical.agg_fn = agg_of fn; agg_arg = dec_opt dec_expr arg; agg_alias = alias }
  | _ -> fail "malformed aggregate"

let dec_named = function
  | List [ e; Atom name ] -> (dec_expr e, name)
  | _ -> fail "malformed projection item"

let dec_sort = function
  | List [ e; Atom "asc" ] -> (dec_expr e, Logical.Asc)
  | List [ e; Atom "desc" ] -> (dec_expr e, Logical.Desc)
  | _ -> fail "malformed sort key"

let dec_strings = function
  | List items -> List.map dec_atom items
  | Atom _ -> fail "expected a string list"

let rec dec_plan = function
  | List [ Atom "scan"; Atom alias; con; pred ] ->
    Physical.Scan { alias; con = dec_tc con; pred = dec_opt dec_expr pred }
  | List [ Atom "expand-all"; x; s ] -> Physical.Expand_all (dec_plan x, dec_step s)
  | List [ Atom "expand-into"; x; s ] -> Physical.Expand_into (dec_plan x, dec_step s)
  | List (Atom "expand-intersect" :: x :: steps) ->
    Physical.Expand_intersect (dec_plan x, List.map dec_step steps)
  | List [ Atom "path-expand"; x; s ] -> Physical.Path_expand (dec_plan x, dec_step s)
  | List [ Atom "hash-join"; Atom kind; keys; left; right ] ->
    Physical.Hash_join
      { left = dec_plan left; right = dec_plan right; keys = dec_strings keys; kind = kind_of kind }
  | List [ Atom "select"; x; e ] -> Physical.Select (dec_plan x, dec_expr e)
  | List (Atom "project" :: x :: ps) -> Physical.Project (dec_plan x, List.map dec_named ps)
  | List [ Atom "group"; x; List ks; List aggs ] ->
    Physical.Group (dec_plan x, List.map dec_named ks, List.map dec_agg aggs)
  | List [ Atom "order"; x; List ks; lim ] ->
    Physical.Order (dec_plan x, List.map dec_sort ks, dec_opt dec_int lim)
  | List [ Atom "limit"; x; n ] -> Physical.Limit (dec_plan x, dec_int n)
  | List [ Atom "skip"; x; n ] -> Physical.Skip (dec_plan x, dec_int n)
  | List [ Atom "unfold"; x; e; Atom a ] -> Physical.Unfold (dec_plan x, dec_expr e, a)
  | List [ Atom "dedup"; x; tags ] -> Physical.Dedup (dec_plan x, dec_strings tags)
  | List [ Atom "union"; a; b ] -> Physical.Union (dec_plan a, dec_plan b)
  | List [ Atom "all-distinct"; x; tags ] ->
    Physical.All_distinct (dec_plan x, dec_strings tags)
  | List [ Atom "with-common"; comb; common; left; right ] ->
    let combine =
      match comb with
      | List [ Atom "c-union" ] -> Logical.C_union
      | List [ Atom "c-join"; Atom kind; keys ] ->
        Logical.C_join (dec_strings keys, kind_of kind)
      | _ -> fail "malformed combine"
    in
    Physical.With_common
      { common = dec_plan common; left = dec_plan left; right = dec_plan right; combine }
  | List [ Atom "common-ref"; fields ] -> Physical.Common_ref (dec_strings fields)
  | List [ Atom "empty"; fields ] -> Physical.Empty (dec_strings fields)
  | other -> fail "malformed plan node: %s" (Sexp.to_string other)

let decode src =
  match Sexp.of_string src with
  | List [ Atom "gopt-plan"; Atom "v1"; plan ] -> dec_plan plan
  | List (Atom "gopt-plan" :: Atom v :: _) -> fail "unsupported plan version %s" v
  | _ -> fail "not a gopt plan"

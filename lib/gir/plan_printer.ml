module Expr = Gopt_pattern.Expr
module Pattern = Gopt_pattern.Pattern

let agg_name = function
  | Logical.Count -> "COUNT"
  | Logical.Count_distinct -> "COUNT_DISTINCT"
  | Logical.Sum -> "SUM"
  | Logical.Avg -> "AVG"
  | Logical.Min -> "MIN"
  | Logical.Max -> "MAX"
  | Logical.Collect -> "COLLECT"

let kind_name = function
  | Logical.Inner -> "INNER"
  | Logical.Left_outer -> "LEFT_OUTER"
  | Logical.Semi -> "SEMI"
  | Logical.Anti -> "ANTI"

let pattern_inline ?schema p =
  Pattern.to_string ?schema p
  |> String.split_on_char '\n'
  |> List.filter (fun s -> String.trim s <> "")
  |> String.concat ", "

let pp ?schema ppf plan =
  let rec go indent plan =
    let pad = String.make (2 * indent) ' ' in
    let line fmt = Format.fprintf ppf ("%s" ^^ fmt ^^ "@,") pad in
    match plan with
    | Logical.Match p -> line "MATCH_PATTERN %s" (pattern_inline ?schema p)
    | Logical.Pattern_cont (x, p) ->
      line "PATTERN_CONT %s" (pattern_inline ?schema p);
      go (indent + 1) x
    | Logical.Common_ref -> line "COMMON_REF"
    | Logical.With_common { common; left; right; combine } ->
      let comb =
        match combine with
        | Logical.C_union -> "UNION"
        | Logical.C_join (keys, kind) ->
          Printf.sprintf "JOIN[%s] ON %s" (kind_name kind) (String.concat ", " keys)
      in
      line "WITH_COMMON combine=%s" comb;
      go (indent + 1) common;
      go (indent + 1) left;
      go (indent + 1) right
    | Logical.Select (x, e) ->
      line "SELECT %s" (Expr.to_string ?schema e);
      go (indent + 1) x
    | Logical.Project (x, ps) ->
      line "PROJECT %s"
        (String.concat ", "
           (List.map (fun (e, a) -> Printf.sprintf "%s AS %s" (Expr.to_string e) a) ps));
      go (indent + 1) x
    | Logical.Join { left; right; keys; kind } ->
      line "JOIN[%s] ON %s" (kind_name kind) (String.concat ", " keys);
      go (indent + 1) left;
      go (indent + 1) right
    | Logical.Group (x, ks, aggs) ->
      line "GROUP keys=[%s] aggs=[%s]"
        (String.concat ", "
           (List.map (fun (e, a) -> Printf.sprintf "%s AS %s" (Expr.to_string e) a) ks))
        (String.concat ", "
           (List.map
              (fun a ->
                Printf.sprintf "%s(%s) AS %s" (agg_name a.Logical.agg_fn)
                  (match a.Logical.agg_arg with Some e -> Expr.to_string e | None -> "*")
                  a.Logical.agg_alias)
              aggs));
      go (indent + 1) x
    | Logical.Order (x, ks, lim) ->
      line "ORDER [%s]%s"
        (String.concat ", "
           (List.map
              (fun (e, d) ->
                Printf.sprintf "%s %s" (Expr.to_string e)
                  (match d with Logical.Asc -> "ASC" | Logical.Desc -> "DESC"))
              ks))
        (match lim with None -> "" | Some n -> Printf.sprintf " LIMIT %d" n);
      go (indent + 1) x
    | Logical.Limit (x, n) ->
      line "LIMIT %d" n;
      go (indent + 1) x
    | Logical.Skip (x, n) ->
      line "SKIP %d" n;
      go (indent + 1) x
    | Logical.Unwind (x, e, a) ->
      line "UNWIND %s AS %s" (Expr.to_string e) a;
      go (indent + 1) x
    | Logical.Dedup (x, tags) ->
      line "DEDUP [%s]" (String.concat ", " tags);
      go (indent + 1) x
    | Logical.Union (a, b) ->
      line "UNION";
      go (indent + 1) a;
      go (indent + 1) b
    | Logical.All_distinct (x, tags) ->
      line "ALL_DISTINCT [%s]" (String.concat ", " tags);
      go (indent + 1) x
  in
  Format.fprintf ppf "@[<v>";
  go 0 plan;
  Format.fprintf ppf "@]"

let to_string ?schema plan = Format.asprintf "%a" (pp ?schema) plan

(* Tie-aware comparison of query results.

   Two correct executions of a query return the same bag of rows, unless the
   plan cuts at a possibly-tied boundary (LIMIT, SKIP, or a fused top-k):
   then each may keep a different subset of the tied rows. When that cut is
   an ORDER BY at the root whose keys are output columns, the bag of sort
   keys is still fixed; otherwise only the row count is. *)

module Physical = Gopt_opt.Physical
module Batch = Gopt_exec.Batch
module Rval = Gopt_exec.Rval

type rule =
  | Bag  (** Same bag of rows. *)
  | Keys of string list  (** Same bag of values of these columns. *)
  | Count  (** Same number of rows. *)

let rec has_tie_cut (p : Physical.t) =
  match p with
  | Limit _ | Skip _ -> true
  | Order (x, _, lim) -> lim <> None || has_tie_cut x
  | Scan _ | Common_ref _ | Empty _ -> false
  | Expand_all (x, _)
  | Expand_into (x, _)
  | Expand_intersect (x, _)
  | Path_expand (x, _)
  | Select (x, _)
  | Project (x, _)
  | Group (x, _, _)
  | Unfold (x, _, _)
  | Dedup (x, _)
  | All_distinct (x, _) -> has_tie_cut x
  | Hash_join { left; right; _ } | Union (left, right) -> has_tie_cut left || has_tie_cut right
  | With_common { common; left; right; _ } ->
    has_tie_cut common || has_tie_cut left || has_tie_cut right

let rule_of_plan (p : Physical.t) =
  let fields = Physical.output_fields p in
  let rec top (p : Physical.t) =
    match p with
    | Limit (x, _) | Skip (x, _) -> top x
    | Order (x, keys, _) when not (has_tie_cut x) ->
      let vars =
        List.filter_map
          (function Gopt_pattern.Expr.Var v, _ when List.mem v fields -> Some v | _ -> None)
          keys
      in
      if List.length vars = List.length keys then Keys vars else Count
    | _ -> Count
  in
  if has_tie_cut p then top p else Bag

(* The rule that holds for both of two plans of one query. *)
let weaker a b =
  match (a, b) with
  | Bag, r | r, Bag -> r
  | Keys x, Keys y when x = y -> a
  | _ -> Count

(* A result with its rows in canonical order, so that bags compare as
   lists. *)
type canonical = { fields : string list; rows : Rval.t array list }

let compare_rows a b = List.compare Rval.compare (Array.to_list a) (Array.to_list b)

let canonical b =
  let rows = ref [] in
  Batch.iter (fun r -> rows := Array.copy r :: !rows) b;
  { fields = Batch.fields b; rows = List.sort compare_rows !rows }

let index_of fields k =
  let rec go i = function
    | [] -> invalid_arg ("Result_check: no column " ^ k)
    | f :: rest -> if f = k then i else go (i + 1) rest
  in
  go 0 fields

let project rule c =
  match rule with
  | Bag -> Some c.rows
  | Count -> None
  | Keys ks ->
    let pos = List.map (index_of c.fields) ks in
    Some
      (List.sort compare_rows
         (List.map (fun r -> Array.of_list (List.map (fun i -> r.(i)) pos)) c.rows))

let same_rows a b =
  List.equal (fun x y -> Array.length x = Array.length y && Array.for_all2 Rval.equal x y) a b

(* [matcher rule expected] tests a result against [expected] under [rule]:
   same fields and row count, and unless [rule] is [Count] the same bag of
   the rows or sort keys it fixes. *)
let matcher rule expected =
  let n = List.length expected.rows in
  let want = project rule expected in
  fun c ->
    c.fields = expected.fields
    && List.length c.rows = n
    && match want with None -> true | Some w -> same_rows w (Option.get (project rule c))

let agree = matcher

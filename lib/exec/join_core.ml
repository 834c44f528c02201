(* Hash-join core shared by the pipelined engine ([Operator]) and the
   parallel engine's probe stage ([Parallel]) — one implementation of all
   four join kinds.

   The build side is one collected {!Batch.t}; the table maps each key to
   the index of its last build row, and [next] chains every build row to
   the previous row with the same key. Walking a chain from its head
   therefore yields matches in reverse build-arrival order (the order the
   reference engine's consed lists produce). When the join has one key
   whose build column is a dense vertex or edge id column spanning a
   compact id range, the table is a direct-address array over the ids;
   every other case (multi-key joins, scalar or null-padded key columns,
   cartesian joins with no key, sparse ids) hashes [Rval.t list] keys.

   The probe joins one left chunk: Inner and Left_outer collect (left row,
   build row) index pairs and gather the output columns slice by slice
   ({!Batch.gather}; Left_outer pads with [-1], i.e. [Rnull]); Semi and
   Anti select rows of the chunk itself. The table is read-only once
   built, so one core serves every worker domain. *)

module KeyTbl = Agg.KeyTbl
module Logical = Gopt_gir.Logical

type id_kind = Vertex_ids | Edge_ids

type index =
  | Direct of { ids : id_kind; lo : int; head : int array }
      (** Head row of id [k] at [head.(k - lo)]; -1 = none. *)
  | Keyed of int KeyTbl.t

type t = {
  lkeys : int list;
  rkeys : int list;
  left_width : int;
  right_extra_pos : int list;
  kind : Logical.join_kind;
  out_fields : string list;
  mutable build : Batch.t;
  mutable next : int array;
  mutable index : index;
}

let create ~left_fields ~right_fields ~keys ~kind =
  let l_layout = Batch.create left_fields in
  let r_layout = Batch.create right_fields in
  let right_extra = List.filter (fun f -> not (Batch.has_field l_layout f)) right_fields in
  let out_fields =
    match kind with
    | Logical.Semi | Logical.Anti -> left_fields
    | Logical.Inner | Logical.Left_outer -> left_fields @ right_extra
  in
  {
    lkeys = List.map (Batch.pos l_layout) keys;
    rkeys = List.map (Batch.pos r_layout) keys;
    left_width = List.length left_fields;
    right_extra_pos = List.map (Batch.pos r_layout) right_extra;
    kind;
    out_fields;
    build = r_layout;
    next = [||];
    index = Keyed (KeyTbl.create 1);
  }

let out_fields t = t.out_fields
let size t = Batch.n_rows t.build

(* physical index of logical row [i] *)
let phys b i = match Batch.selection b with None -> i | Some s -> s.(i)

let build t (b : Batch.t) =
  let n = Batch.n_rows b in
  let next = Array.make n (-1) in
  (* the id span (lowest id, width) a direct-address array would cover *)
  let range a =
    let lo = ref max_int and hi = ref min_int in
    for i = 0 to n - 1 do
      let k = a.(phys b i) in
      if k < !lo then lo := k;
      if k > !hi then hi := k
    done;
    (!lo, !hi - !lo + 1)
  in
  let direct =
    match t.rkeys with
    | [ j ] when n > 0 -> (
      match Batch.col b j with
      | Batch.D_vertex a -> Some (Vertex_ids, a, range a)
      | Batch.D_edge a -> Some (Edge_ids, a, range a)
      | Batch.D_boxed _ -> None)
    | _ -> None
  in
  let index =
    match direct with
    | Some (ids, a, (lo, span)) when span <= (2 * n) + 4096 ->
      let head = Array.make span (-1) in
      for i = 0 to n - 1 do
        let k = a.(phys b i) - lo in
        next.(i) <- head.(k);
        head.(k) <- i
      done;
      Direct { ids; lo; head }
    | _ ->
      let tbl = KeyTbl.create (max 16 n) in
      for i = 0 to n - 1 do
        let key = List.map (fun j -> Batch.get b i j) t.rkeys in
        next.(i) <- Option.value ~default:(-1) (KeyTbl.find_opt tbl key);
        KeyTbl.replace tbl key i
      done;
      Keyed tbl
  in
  t.build <- b;
  t.next <- next;
  t.index <- index

(* [heads t b] is, per logical row of the probe chunk [b], the head of its
   match chain (-1 when nothing matches) *)
let heads t b =
  let n = Batch.n_rows b in
  match t.index with
  | Keyed tbl ->
    Array.init n (fun i ->
        let key = List.map (fun j -> Batch.get b i j) t.lkeys in
        Option.value ~default:(-1) (KeyTbl.find_opt tbl key))
  | Direct { ids; lo; head } ->
    let find k =
      let k = k - lo in
      if k >= 0 && k < Array.length head then head.(k) else -1
    in
    let j = List.hd t.lkeys in
    let sel = Batch.selection b in
    (match Batch.col b j, ids with
    | Batch.D_vertex a, Vertex_ids | Batch.D_edge a, Edge_ids -> (
      match sel with
      | None -> Array.init n (fun i -> find a.(i))
      | Some s -> Array.init n (fun i -> find a.(s.(i))))
    | Batch.D_boxed vals, ids ->
      (* a boxed probe key (e.g. padded by an outer join) matches only ids
         of the build column's kind *)
      Array.init n (fun i ->
          match vals.(phys b i), ids with
          | Rval.Rvertex v, Vertex_ids | Rval.Redge v, Edge_ids -> find v
          | _ -> -1)
    | (Batch.D_vertex _ | Batch.D_edge _), _ -> Array.make n (-1))

let probe ?(window = max_int) t (b : Batch.t) emit =
  let n = Batch.n_rows b in
  let hs = heads t b in
  match t.kind with
  | Logical.Semi | Logical.Anti ->
    let want = t.kind = Logical.Semi in
    let sel = Ibuf.create ~cap:n () in
    for i = 0 to n - 1 do
      if (hs.(i) >= 0) = want then Ibuf.push sel i
    done;
    let kept = Ibuf.length sel in
    let view = if kept = n then b else Batch.select b (Ibuf.to_array sel) in
    if kept > 0 then
      emit kept (fun pos len -> if pos = 0 && len = kept then view else Batch.sub view ~pos ~len)
  | Logical.Inner | Logical.Left_outer ->
    let outer = t.kind = Logical.Left_outer in
    let lidx = Ibuf.create ~cap:(min n window) () and ridx = Ibuf.create ~cap:(min n window) () in
    let flush () =
      let m = Ibuf.length lidx in
      if m > 0 then begin
        let li = Ibuf.data lidx and ri = Ibuf.data ridx in
        emit m (fun pos len ->
            Batch.of_columns t.out_fields
              (List.init t.left_width (fun j -> Batch.gather ~pos b j li len)
              @ List.map (fun j -> Batch.gather ~pos t.build j ri len) t.right_extra_pos)
              len);
        Ibuf.clear lidx;
        Ibuf.clear ridx
      end
    in
    for i = 0 to n - 1 do
      let r = ref hs.(i) in
      if !r < 0 && outer then begin
        Ibuf.push lidx i;
        Ibuf.push ridx (-1)
      end;
      while !r >= 0 do
        Ibuf.push lidx i;
        Ibuf.push ridx !r;
        r := t.next.(!r)
      done;
      if Ibuf.length lidx >= window then flush ()
    done;
    flush ()

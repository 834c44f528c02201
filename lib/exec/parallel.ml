(* Morsel-driven intra-query parallelism on OCaml 5 domains.

   The plan is decomposed into linear {e streaming fragments} (chains of
   streaming operators over a single leaf) separated by pipeline breakers.
   A fragment's input is partitioned into fixed-size {e morsels} — vertex
   ranges for scans, row ranges for materialized intermediates — and a small
   domain pool pulls morsel indices off an atomic counter, running a private
   clone of the fragment per morsel through the ordinary push engine
   ([Operator.run] with a [Common_ref] leaf fed via [?source]). Pipeline
   breakers become {e merge points} on the coordinating domain: partial
   aggregation states combine via [Agg.merge], sorted runs combine via a
   k-way merge, Dedup re-filters local survivors against a global seen-set,
   and the hash-join build side is materialized once and probed read-only by
   all workers.

   Determinism: morsel partitioning depends only on the plan, the graph and
   [morsel_size] — never on the worker count — and every merge point folds
   per-morsel partials in morsel-index order. Per-morsel work is sequential
   and deterministic, so the full result (including float-summation order,
   COLLECT order, and ORDER BY tie resolution) is byte-identical for every
   [workers] value. Plans whose output order is a set-semantics artifact
   (e.g. GROUP BY without ORDER BY) may order rows differently from the
   sequential engine; differential tests compare those as bags.

   Accounting: rows handed from a morsel task to its merge point count as
   {e exchange} rows ([stats.exchange_rows]); profiles with [parallel =
   true] additionally charge them to the communication counters, applying
   the paper's communication-cost definition to this engine. [peak_rows] is
   an approximation: coordinator-side accumulated rows plus the largest
   single-task peak (concurrent task peaks are not summed). *)

module G = Gopt_graph.Property_graph
module Schema = Gopt_graph.Schema
module Value = Gopt_graph.Value
module Expr = Gopt_pattern.Expr
module Tc = Gopt_pattern.Type_constraint
module Logical = Gopt_gir.Logical
module Physical = Gopt_opt.Physical
module KeyTbl = Agg.KeyTbl
module Vec = Gopt_util.Vec

let default_morsel_size = 1024

(* --- plan decomposition ------------------------------------------------- *)

type input =
  | In_scan of {
      verts : int array;  (** All vertices of one vtype (shared, read-only). *)
      start : int;
      len : int;
      alias : string;
      kernel : Eval.kernel option;
          (** Scan predicate compiled once on the coordinator; kernels are
              pure readers, so one compiled kernel serves every domain. *)
    }
  | In_rows of Batch.t

type morsel = {
  m_input : input;
  m_in_fields : string list;  (** Layout of the batch fed into the fragment. *)
  m_fragment : Physical.t option;
      (** Streaming fragment with a [Common_ref m_in_fields] leaf; [None]
          passes the input rows through unchanged. *)
}

type src = {
  s_fields : string list;  (** Output layout of every morsel's fragment. *)
  s_morsels : morsel list;
  s_traces : Op_trace.t list;  (** Traces of nested upstream merge stages. *)
}

type 'a task_result = {
  r_val : 'a;
  r_xrows : int;  (** Rows this task hands across the exchange. *)
  r_scan_rows : int;  (** Scan rows materialized by the task (post-filter). *)
  r_stats : Op_trace.stats option;  (** Fragment-run stats, if any. *)
  r_trace : Op_trace.t option;
}

let run ?(profile = Op_trace.graphscope_profile) ?budget
    ?(chunk_size = Operator.default_chunk_size)
    ?(morsel_size = default_morsel_size) ?(vectorize = true) ~workers g plan =
  if workers < 1 then invalid_arg "Parallel.run: workers must be >= 1";
  if morsel_size < 1 then invalid_arg "Parallel.run: morsel_size must be >= 1";
  let schema = G.schema g in
  let vuniv = Schema.n_vtypes schema in
  let st = Op_trace.fresh_stats () in
  st.Op_trace.workers_used <- workers;
  let start = Sys.time () in
  (* Workers receive the budget's unspent remainder at task start. Sys.time
     is process-wide CPU, so with w workers the budget is w-fold
     conservative — acceptable for a cutoff. *)
  let remaining_budget () =
    Option.map (fun b -> Float.max 0.0 (b -. (Sys.time () -. start))) budget
  in
  let cancelled = Atomic.make false in
  (* rows produced by a merge point itself, mirroring the sequential
     operator's emitter accounting *)
  let count_rows n width =
    st.Op_trace.intermediate_rows <- st.Op_trace.intermediate_rows + n;
    st.Op_trace.intermediate_cells <- st.Op_trace.intermediate_cells + (n * width);
    if profile.Op_trace.count_comm then begin
      st.Op_trace.comm_rows <- st.Op_trace.comm_rows + n;
      st.Op_trace.comm_cells <- st.Op_trace.comm_cells + (n * width)
    end
  in
  (* [run_morsels ~label ~out_width src post] runs one exchange stage: every
     morsel task on the worker pool, [post] applied to the fragment output
     inside the task (returning the value crossing the exchange and its row
     count). Results come back in morsel order together with the stage's
     trace node. [early_stop] stops issuing new morsels once the contiguous
     prefix of completed tasks has produced that many rows (tasks are
     claimed in index order, so every skipped morsel lies beyond the
     prefix); skipped slots yield [on_skip ()]. *)
  let run_morsels ~label ~out_width ?early_stop ?on_skip (s : src) post =
    let morsels = Array.of_list s.s_morsels in
    let n = Array.length morsels in
    let task i =
      let m = morsels.(i) in
      let source, scan_rows =
        match m.m_input with
        | In_rows b -> (b, 0)
        | In_scan { verts; start; len; alias; kernel } ->
          (* columnar morsel: slice the type index into an id column, then
             narrow it with the precompiled kernel — survivors stay a
             selection-vector view, no row materialization *)
          let b = Batch.of_vertex_ids alias verts ~pos:start ~len in
          let b =
            match kernel with
            | None -> b
            | Some k ->
              let selected = Eval.run_kernel k b (Array.init len Fun.id) in
              if Array.length selected = len then b else Batch.select b selected
          in
          (b, Batch.n_rows b)
      in
      let out, tstats, ttrace =
        match m.m_fragment with
        | None -> (source, None, None)
        | Some frag ->
          if Batch.n_rows source = 0 then (Batch.create (Physical.output_fields frag), None, None)
          else begin
            let out, fs =
              Operator.run ~profile ?budget:(remaining_budget ())
                ~stop_poll:(fun () -> Atomic.get cancelled)
                ~chunk_size ~vectorize ~source g frag
            in
            (out, Some fs, fs.Op_trace.op_trace)
          end
      in
      let v, xrows = post out in
      { r_val = v; r_xrows = xrows; r_scan_rows = scan_rows; r_stats = tstats;
        r_trace = ttrace }
    in
    let results = Array.make n None in
    let errors = Array.make n None in
    let worker_of = Array.make n (-1) in
    let next = Atomic.make 0 in
    let stop = Atomic.make false in
    (match early_stop with Some t when t <= 0 -> Atomic.set stop true | _ -> ());
    let prefix_mutex = Mutex.create () in
    let done_rows = Array.make n (-1) in
    let frontier = ref 0 in
    let prefix_rows = ref 0 in
    let note_done i rows =
      match early_stop with
      | None -> ()
      | Some target ->
        Mutex.lock prefix_mutex;
        done_rows.(i) <- rows;
        while !frontier < n && done_rows.(!frontier) >= 0 do
          prefix_rows := !prefix_rows + done_rows.(!frontier);
          incr frontier
        done;
        if !prefix_rows >= target then Atomic.set stop true;
        Mutex.unlock prefix_mutex
    in
    let body wid =
      let continue_ = ref true in
      while !continue_ do
        if Atomic.get stop || Atomic.get cancelled then continue_ := false
        else begin
          let i = Atomic.fetch_and_add next 1 in
          if i >= n then continue_ := false
          else begin
            worker_of.(i) <- wid;
            match task i with
            | r ->
              results.(i) <- Some r;
              note_done i r.r_xrows
            | exception e ->
              errors.(i) <- Some e;
              Atomic.set cancelled true
          end
        end
      done
    in
    let w = max 1 (min workers n) in
    if w = 1 then body 0
    else begin
      let doms = Array.init (w - 1) (fun k -> Domain.spawn (fun () -> body (k + 1))) in
      body 0;
      Array.iter Domain.join doms
    end;
    (* Re-raise the first genuine error in morsel order; a cancellation-
       induced Timeout only wins when every error is a Timeout. *)
    let first_err p =
      Array.fold_left
        (fun acc e -> match acc, e with None, Some x when p x -> Some x | _ -> acc)
        None errors
    in
    (match first_err (fun e -> e <> Op_trace.Timeout) with
    | Some e -> raise e
    | None -> (match first_err (fun _ -> true) with Some e -> raise e | None -> ()));
    (* fold task stats into the run stats *)
    let xrows_total = ref 0 in
    let max_peak = ref 0 in
    Array.iter
      (function
        | None -> ()
        | Some r ->
          xrows_total := !xrows_total + r.r_xrows;
          if r.r_scan_rows > 0 then count_rows r.r_scan_rows 1;
          (match r.r_stats with
          | None -> ()
          | Some ts ->
            st.Op_trace.intermediate_rows <-
              st.Op_trace.intermediate_rows + ts.Op_trace.intermediate_rows;
            st.Op_trace.intermediate_cells <-
              st.Op_trace.intermediate_cells + ts.Op_trace.intermediate_cells;
            st.Op_trace.comm_rows <- st.Op_trace.comm_rows + ts.Op_trace.comm_rows;
            st.Op_trace.comm_cells <- st.Op_trace.comm_cells + ts.Op_trace.comm_cells;
            st.Op_trace.edges_touched <-
              st.Op_trace.edges_touched + ts.Op_trace.edges_touched;
            if ts.Op_trace.peak_rows > !max_peak then max_peak := ts.Op_trace.peak_rows))
      results;
    if st.Op_trace.live_rows + !max_peak > st.Op_trace.peak_rows then
      st.Op_trace.peak_rows <- st.Op_trace.live_rows + !max_peak;
    Op_trace.live_add st !xrows_total;
    st.Op_trace.exchange_rows <- st.Op_trace.exchange_rows + !xrows_total;
    st.Op_trace.exchange_cells <- st.Op_trace.exchange_cells + (!xrows_total * out_width);
    if profile.Op_trace.parallel then begin
      st.Op_trace.comm_rows <- st.Op_trace.comm_rows + !xrows_total;
      st.Op_trace.comm_cells <- st.Op_trace.comm_cells + (!xrows_total * out_width)
    end;
    (* per-worker rollups of the fragment traces *)
    let worker_nodes =
      List.filter_map
        (fun wid ->
          let idxs = ref [] in
          Array.iteri (fun i w' -> if w' = wid then idxs := i :: !idxs) worker_of;
          let idxs = List.rev !idxs in
          if idxs = [] then None
          else begin
            let traces =
              List.filter_map
                (fun i -> Option.bind results.(i) (fun r -> r.r_trace))
                idxs
            in
            let rows =
              List.fold_left
                (fun acc i ->
                  match results.(i) with Some r -> acc + r.r_xrows | None -> acc)
                0 idxs
            in
            let node =
              Op_trace.make
                (Printf.sprintf "worker %d (morsels=%d)" wid (List.length idxs))
                (Op_trace.rollup traces)
            in
            node.Op_trace.rows_out <- rows;
            Some node
          end)
        (List.init w Fun.id)
    in
    let skipped = Array.fold_left (fun acc r -> if r = None then acc + 1 else acc) 0 results in
    let xnode =
      Op_trace.make
        (Printf.sprintf "exchange[%s] (morsels=%d%s, workers=%d)" label n
           (if skipped > 0 then Printf.sprintf ", skipped=%d" skipped else "")
           w)
        (worker_nodes @ s.s_traces)
    in
    xnode.Op_trace.rows_in <- !xrows_total;
    xnode.Op_trace.rows_out <- !xrows_total;
    let values =
      Array.map
        (function
          | Some r -> r.r_val
          | None -> (
            match on_skip with
            | Some f -> f ()
            | None -> invalid_arg "Parallel: morsel skipped without on_skip"))
        results
    in
    (values, xnode)
  in
  (* slice a materialized batch into row-range morsels *)
  let slice_rows (b : Batch.t) =
    let fields = Batch.fields b in
    let nr = Batch.n_rows b in
    let out = ref [] in
    let pos = ref 0 in
    while !pos < nr do
      let len = min morsel_size (nr - !pos) in
      out :=
        { m_input = In_rows (Batch.sub b ~pos:!pos ~len); m_in_fields = fields;
          m_fragment = None }
        :: !out;
      pos := !pos + len
    done;
    List.rev !out
  in
  let leaf_of m =
    match m.m_fragment with Some f -> f | None -> Physical.Common_ref m.m_in_fields
  in
  let mk_node lbl children out =
    let tr = Op_trace.make lbl children in
    tr.Op_trace.rows_out <- Batch.n_rows out;
    (out, tr)
  in
  (* [psource env p] decomposes the streaming region rooted at [p] into
     morsels; breakers below it are executed recursively by [exec] and their
     output sliced. [exec env p] fully evaluates [p] (merge points run
     here on the coordinator). *)
  let rec psource env (p : Physical.t) : src =
    let extend child wrap =
      let s = psource env child in
      {
        s_fields = Physical.output_fields p;
        s_morsels =
          List.map (fun m -> { m with m_fragment = Some (wrap (leaf_of m)) }) s.s_morsels;
        s_traces = s.s_traces;
      }
    in
    match p with
    | Physical.Scan { alias; con; pred } ->
      let kernel = Option.map (fun p -> Eval.compile ~vectorize g ~fields:[ alias ] p) pred in
      let morsels = ref [] in
      List.iter
        (fun t ->
          let verts = G.vertices_of_vtype g t in
          let nv = Array.length verts in
          let pos = ref 0 in
          while !pos < nv do
            let len = min morsel_size (nv - !pos) in
            morsels :=
              { m_input = In_scan { verts; start = !pos; len; alias; kernel };
                m_in_fields = [ alias ]; m_fragment = None }
              :: !morsels;
            pos := !pos + len
          done)
        (Tc.to_list ~universe:vuniv con);
      { s_fields = [ alias ]; s_morsels = List.rev !morsels; s_traces = [] }
    | Physical.Common_ref fields -> begin
      match env with
      | None -> failwith "Parallel: CommonRef outside WithCommon"
      | Some cb -> { s_fields = fields; s_morsels = slice_rows cb; s_traces = [] }
    end
    | Physical.Empty fields -> { s_fields = fields; s_morsels = []; s_traces = [] }
    | Physical.Select (x, pred) -> extend x (fun l -> Physical.Select (l, pred))
    | Physical.Project (x, ps) -> extend x (fun l -> Physical.Project (l, ps))
    | Physical.Expand_all (x, step) -> extend x (fun l -> Physical.Expand_all (l, step))
    | Physical.Expand_into (x, step) -> extend x (fun l -> Physical.Expand_into (l, step))
    | Physical.Expand_intersect (x, steps) ->
      extend x (fun l -> Physical.Expand_intersect (l, steps))
    | Physical.Path_expand (x, step) -> extend x (fun l -> Physical.Path_expand (l, step))
    | Physical.Unfold (x, e, alias) -> extend x (fun l -> Physical.Unfold (l, e, alias))
    | Physical.All_distinct (x, fs) -> extend x (fun l -> Physical.All_distinct (l, fs))
    | Physical.Union (a, b) ->
      let sa = psource env a in
      let sb = psource env b in
      let fields = sa.s_fields in
      let sb_morsels =
        if sb.s_fields = fields then sb.s_morsels
        else
          (* unify the right branch's layout, like the sequential Union's
             forwarding projection *)
          let ps = List.map (fun f -> (Expr.Var f, f)) fields in
          List.map
            (fun m -> { m with m_fragment = Some (Physical.Project (leaf_of m, ps)) })
            sb.s_morsels
      in
      {
        s_fields = fields;
        s_morsels = sa.s_morsels @ sb_morsels;
        s_traces = sa.s_traces @ sb.s_traces;
      }
    | Physical.Group _ | Physical.Order _ | Physical.Limit _ | Physical.Skip _
    | Physical.Dedup _ | Physical.Hash_join _ | Physical.With_common _ ->
      let b, tr = exec env p in
      { s_fields = Batch.fields b; s_morsels = slice_rows b; s_traces = [ tr ] }
  and exec env (p : Physical.t) : Batch.t * Op_trace.t =
    let lbl = Physical.node_label ~schema p in
    (* run a probe-side exchange against a read-only shared hash table *)
    let join_probe env lbl ~left ~right_batch ~keys ~kind extra_traces =
      let s = psource env left in
      let jc =
        Join_core.create ~left_fields:s.s_fields ~right_fields:(Batch.fields right_batch) ~keys
          ~kind
      in
      Join_core.build jc right_batch;
      Op_trace.live_add st (Batch.n_rows right_batch);
      let out_fields = Join_core.out_fields jc in
      let post b =
        (* unbounded window: at most one slice, the whole output *)
        let out = ref (Batch.create out_fields) in
        Join_core.probe jc b (fun n slice -> out := slice 0 n);
        (!out, Batch.n_rows !out)
      in
      let parts, xnode =
        run_morsels ~label:lbl ~out_width:(List.length out_fields) s post
      in
      Op_trace.live_sub st (Batch.n_rows right_batch);
      let out = Batch.concat out_fields (Array.to_list parts) in
      count_rows (Batch.n_rows out) (List.length out_fields);
      mk_node lbl (xnode :: extra_traces) out
    in
    match p with
    | Physical.Group (x, ks, aggs) when Agg.counts_rows ks aggs ->
      let s = psource env x in
      let out_fields = List.map (fun a -> a.Logical.agg_alias) aggs in
      (* a morsel's partial is its row count (one partial group when > 0) *)
      let post b =
        let n = Batch.n_rows b in
        (n, if n > 0 then 1 else 0)
      in
      let parts, xnode = run_morsels ~label:lbl ~out_width:(List.length out_fields) s post in
      let out = Batch.create out_fields in
      Batch.add out (Agg.count_row aggs (Array.fold_left ( + ) 0 parts));
      count_rows 1 (List.length out_fields);
      mk_node lbl [ xnode ] out
    | Physical.Group (x, ks, aggs) ->
      let s = psource env x in
      let out_fields = List.map snd ks @ List.map (fun a -> a.Logical.agg_alias) aggs in
      let post b =
        let tbl : Agg.state array KeyTbl.t = KeyTbl.create 64 in
        let order : Rval.t list Vec.t = Vec.create () in
        for i = 0 to Batch.n_rows b - 1 do
          let lk = Batch.lookup b i in
          let key = List.map (fun (e, _) -> Eval.eval_rval g lk e) ks in
          let states =
            match KeyTbl.find_opt tbl key with
            | Some states -> states
            | None ->
              let states = Array.of_list (List.map Agg.init aggs) in
              KeyTbl.add tbl key states;
              Vec.push order key;
              states
          in
          Agg.update_all g lk states aggs
        done;
        ((tbl, order), Vec.length order)
      in
      let parts, xnode =
        run_morsels ~label:lbl ~out_width:(List.length out_fields) s post
      in
      (* merge partial states in morsel order; key order = first sighting *)
      let tbl : Agg.state array KeyTbl.t = KeyTbl.create 64 in
      let order : Rval.t list Vec.t = Vec.create () in
      Array.iter
        (fun (ptbl, porder) ->
          Vec.iter
            (fun key ->
              let pstates = KeyTbl.find ptbl key in
              match KeyTbl.find_opt tbl key with
              | Some states ->
                List.iteri (fun i a -> Agg.merge states.(i) pstates.(i) a) aggs
              | None ->
                KeyTbl.add tbl key pstates;
                Vec.push order key)
            porder)
        parts;
      let out = Batch.create out_fields in
      if Vec.length order = 0 && ks = [] then
        (* aggregate over an empty input still yields one row *)
        Batch.add out (Array.of_list (List.map (fun a -> Agg.finish (Agg.init a) a) aggs))
      else
        Vec.iter
          (fun key ->
            let states = KeyTbl.find tbl key in
            let agg_vals = List.mapi (fun i a -> Agg.finish states.(i) a) aggs in
            Batch.add out (Array.of_list (key @ agg_vals)))
          order;
      count_rows (Batch.n_rows out) (List.length out_fields);
      mk_node lbl [ xnode ] out
    | Physical.Order (x, ks, lim) ->
      let s = psource env x in
      let layout = Batch.create s.s_fields in
      let width = List.length s.s_fields in
      let cmp (ka, _) (kb, _) = Operator.compare_keys ks ka kb in
      let post b =
        let v : (Value.t list * Rval.t array) Vec.t = Vec.create () in
        Batch.iter
          (fun row ->
            let lk = Eval.lookup_of_row layout row in
            Vec.push v (List.map (fun (e, _) -> Eval.eval g lk e) ks, row))
          b;
        Vec.sort cmp v;
        (* any row beyond the limit within its own run cannot make the
           global top-k *)
        let keep = match lim with Some l -> min l (Vec.length v) | None -> Vec.length v in
        (Array.init keep (Vec.get v), keep)
      in
      let parts, xnode = run_morsels ~label:lbl ~out_width:width s post in
      (* k-way merge of the sorted runs; ties resolve to the lower morsel
         index, making tie order independent of the worker count *)
      let m = Array.length parts in
      let idx = Array.make m 0 in
      let total = Array.fold_left (fun acc a -> acc + Array.length a) 0 parts in
      let keep = match lim with Some l -> min l total | None -> total in
      let out = Batch.create s.s_fields in
      for _ = 1 to keep do
        let best = ref (-1) in
        for i = 0 to m - 1 do
          if idx.(i) < Array.length parts.(i) then
            if !best < 0 then best := i
            else begin
              let ka, _ = parts.(i).(idx.(i)) in
              let kb, _ = parts.(!best).(idx.(!best)) in
              if Operator.compare_keys ks ka kb < 0 then best := i
            end
        done;
        let _, row = parts.(!best).(idx.(!best)) in
        idx.(!best) <- idx.(!best) + 1;
        Batch.add out row
      done;
      count_rows keep width;
      mk_node lbl [ xnode ] out
    | Physical.Dedup (x, tags) ->
      let s = psource env x in
      let layout = Batch.create s.s_fields in
      let width = List.length s.s_fields in
      let positions =
        match tags with
        | [] -> List.init width Fun.id
        | tags -> List.map (Batch.pos layout) tags
      in
      let key_of row = List.map (fun pos -> row.(pos)) positions in
      let post b =
        let local : unit KeyTbl.t = KeyTbl.create 64 in
        let out = Batch.create s.s_fields in
        Batch.iter
          (fun row ->
            let key = key_of row in
            if not (KeyTbl.mem local key) then begin
              KeyTbl.add local key ();
              Batch.add out row
            end)
          b;
        (out, Batch.n_rows out)
      in
      let parts, xnode = run_morsels ~label:lbl ~out_width:width s post in
      let seen : unit KeyTbl.t = KeyTbl.create 64 in
      let out = Batch.create s.s_fields in
      Array.iter
        (fun pb ->
          Batch.iter
            (fun row ->
              let key = key_of row in
              if not (KeyTbl.mem seen key) then begin
                KeyTbl.add seen key ();
                Batch.add out row
              end)
            pb)
        parts;
      count_rows (Batch.n_rows out) width;
      mk_node lbl [ xnode ] out
    | Physical.Hash_join { left; right; keys; kind } ->
      let rb, rtr = exec env right in
      join_probe env lbl ~left ~right_batch:rb ~keys ~kind [ rtr ]
    | Physical.With_common { common = c; left; right; combine } ->
      let cb, ctr = exec env c in
      let env' = Some cb in
      begin
        match combine with
        | Logical.C_union ->
          let fields = Physical.output_fields left in
          let lb, ltr = exec env' left in
          let rb, rtr = exec env' right in
          let r_layout = Batch.create (Batch.fields rb) in
          let out = Batch.create fields in
          if Batch.fields lb = fields then Batch.append_batch out lb
          else Batch.iter (Batch.add out) lb;
          Batch.iter (fun row -> Batch.add out (Batch.project_to r_layout fields row)) rb;
          count_rows (Batch.n_rows out) (List.length fields);
          mk_node lbl [ ctr; ltr; rtr ] out
        | Logical.C_join (keys, kind) ->
          let rb, rtr = exec env' right in
          join_probe env' lbl ~left ~right_batch:rb ~keys ~kind [ ctr; rtr ]
      end
    | Physical.Limit (x, n) ->
      let s = psource env x in
      let width = List.length s.s_fields in
      let post b = (b, Batch.n_rows b) in
      let parts, xnode =
        run_morsels ~label:lbl ~out_width:width ~early_stop:n
          ~on_skip:(fun () -> Batch.create s.s_fields)
          s post
      in
      let out = Batch.create s.s_fields in
      (try
         Array.iter
           (fun pb ->
             Batch.iter
               (fun row -> if Batch.n_rows out < n then Batch.add out row else raise Exit)
               pb)
           parts
       with Exit -> ());
      count_rows (Batch.n_rows out) width;
      mk_node lbl [ xnode ] out
    | Physical.Skip (x, n) ->
      let s = psource env x in
      let width = List.length s.s_fields in
      let post b = (b, Batch.n_rows b) in
      let parts, xnode = run_morsels ~label:lbl ~out_width:width s post in
      let out = Batch.create s.s_fields in
      let seen = ref 0 in
      Array.iter
        (fun pb ->
          Batch.iter
            (fun row ->
              incr seen;
              if !seen > n then Batch.add out row)
            pb)
        parts;
      count_rows (Batch.n_rows out) width;
      mk_node lbl [ xnode ] out
    | Physical.Scan _ | Physical.Select _ | Physical.Project _ | Physical.Expand_all _
    | Physical.Expand_into _ | Physical.Expand_intersect _ | Physical.Path_expand _
    | Physical.Unfold _ | Physical.All_distinct _ | Physical.Union _
    | Physical.Common_ref _ | Physical.Empty _ ->
      (* streaming region at the root: a plain collecting exchange; the
         fragment operators already accounted for their emissions *)
      let s = psource env p in
      let post b = (b, Batch.n_rows b) in
      let parts, xnode =
        run_morsels ~label:lbl ~out_width:(List.length s.s_fields) s post
      in
      let out = Batch.concat s.s_fields (Array.to_list parts) in
      (out, xnode)
  in
  let result, root_tr = exec None plan in
  st.Op_trace.operators <- Physical.operator_count plan;
  st.Op_trace.op_trace <- Some root_tr;
  (result, st)

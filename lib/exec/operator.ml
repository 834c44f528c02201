(* Push-based pipelined execution.

   Each Physical.t node compiles into an operator with consume/close
   callbacks; rows flow through pipelines in chunks of [chunk_size] rows of
   the Batch representation. Pipelines break only where semantics require
   materialization: the Hash_join build side, Group, Order, and the
   With_common common sub-plan (Dedup streams but holds its seen-set).

   Stop protocol: Limit raises the internal [Stop] exception once satisfied;
   it unwinds through the upstream operator frames to the pipeline's source
   (Scan / Common_ref / branch driver), which catches it and closes the
   pipeline. Sources additionally poll their sink's [k_alive] chain before
   producing, so sibling pipelines that feed an already-satisfied Limit
   (e.g. the second Union branch) never start. *)

module G = Gopt_graph.Property_graph
module Schema = Gopt_graph.Schema
module Value = Gopt_graph.Value
module Pattern = Gopt_pattern.Pattern
module Tc = Gopt_pattern.Type_constraint
module Logical = Gopt_gir.Logical
module Physical = Gopt_opt.Physical
module KeyTbl = Agg.KeyTbl
module Vec = Gopt_util.Vec

exception Stop

let default_chunk_size = 1024

type sink = {
  k_consume : Batch.t -> unit;  (** Receive a chunk (never empty). *)
  k_close : unit -> unit;  (** End of stream; called exactly once. *)
  k_alive : unit -> bool;  (** Does anything downstream still want rows? *)
}

(* --- shared operator cores ------------------------------------------------ *)

(* ORDER BY comparator over evaluated sort keys, shared with the parallel
   engine's k-way merge. *)
let compare_keys ks ka kb =
  let rec go ks ka kb =
    match ks, ka, kb with
    | [], _, _ -> 0
    | (_, dir) :: ks', a :: ka', b :: kb' ->
      let c = Value.compare a b in
      let c = match dir with Logical.Asc -> c | Logical.Desc -> -c in
      if c <> 0 then c else go ks' ka' kb'
    | _ -> 0
  in
  go ks ka kb

(* the output side of an operator, built by [emitter] inside [run] *)
type emitter = {
  emit : Rval.t array -> unit;  (** One row, buffered into chunks. *)
  emit_chunk : Batch.t -> unit;  (** A whole chunk, passed on as is. *)
  emit_rows : ?commit:(int -> unit) -> Batch.t -> unit;
      (** Rows re-cut at [chunk_size] boundaries. *)
  emit_slices : ?commit:(int -> unit) -> int -> (int -> int -> Batch.t) -> unit;
      (** [n] rows built slice by slice, cut like [emit_rows]. *)
  close : unit -> unit;
}

let run ?(profile = Op_trace.graphscope_profile) ?budget ?stop_poll
    ?(chunk_size = default_chunk_size) ?(vectorize = true) ?source g plan =
  let schema = G.schema g in
  let vuniv = Schema.n_vtypes schema and euniv = Schema.n_etypes schema in
  let st = Op_trace.fresh_stats () in
  let clk = Op_trace.clock () in
  let start = Sys.time () in
  let ticks = ref 0 in
  let tick_check () =
    (match budget with
    | Some b when Sys.time () -. start > b -> raise Op_trace.Timeout
    | _ -> ());
    match stop_poll with
    | Some poll when poll () -> raise Op_trace.Timeout
    | _ -> ()
  in
  let tick () =
    incr ticks;
    if !ticks land 8191 = 0 then tick_check ()
  in
  (* chunk-granular tick: fires whenever the counter crosses an 8192
     boundary, so budget polling frequency matches the row-at-a-time path *)
  let tick_n n =
    let before = !ticks in
    ticks := before + n;
    if !ticks lsr 13 <> before lsr 13 then tick_check ()
  in
  (* run a compiled predicate kernel, charging kernel-level counters to the
     operator's trace node (only genuinely vectorized kernels are counted —
     fallback kernels are the row interpreter under another name) *)
  let run_kern tr kern b cand =
    if Eval.vectorized kern then begin
      let t0 = Sys.time () in
      let out = Eval.run_kernel kern b cand in
      tr.Op_trace.kernel_ns <- tr.Op_trace.kernel_ns +. ((Sys.time () -. t0) *. 1e9);
      tr.Op_trace.rows_selected <- tr.Op_trace.rows_selected + Array.length out;
      out
    end
    else Eval.run_kernel kern b cand
  in
  let mk_trace ?(count_op = true) label =
    if count_op then st.Op_trace.operators <- st.Op_trace.operators + 1;
    Op_trace.make label []
  in
  (* wrap an operator body into a sink; consume/close are timed against the
     operator's trace node and rows-in is counted *)
  let mk_sink tr ~consume ~close ~alive =
    {
      k_consume =
        (fun chunk ->
          if Batch.n_rows chunk = 0 then
            invalid_arg "Operator: empty chunk pushed downstream";
          Op_trace.timed clk tr (fun () ->
              tr.Op_trace.rows_in <- tr.Op_trace.rows_in + Batch.n_rows chunk;
              consume chunk));
      k_close = (fun () -> Op_trace.timed clk tr close);
      k_alive = alive;
    }
  in
  (* chunked output buffer: counts emissions into the trace and the engine
     stats, flushes full chunks downstream, and raises Stop when the
     downstream chain no longer wants rows. [count] is false only for
     Common_ref re-emission (those rows were accounted when the common
     sub-plan materialized). *)
  let emitter ?(count = true) tr fields sink =
    let buf = ref (Batch.create fields) in
    let width = List.length fields in
    let flush () =
      if Batch.n_rows !buf > 0 then begin
        let b = !buf in
        buf := Batch.create fields;
        sink.k_consume b
      end
    in
    let account n =
      tr.Op_trace.rows_out <- tr.Op_trace.rows_out + n;
      if count then begin
        st.Op_trace.intermediate_rows <- st.Op_trace.intermediate_rows + n;
        st.Op_trace.intermediate_cells <- st.Op_trace.intermediate_cells + (n * width);
        if profile.Op_trace.count_comm then begin
          st.Op_trace.comm_rows <- st.Op_trace.comm_rows + n;
          st.Op_trace.comm_cells <- st.Op_trace.comm_cells + (n * width)
        end
      end
    in
    let emit row =
      Batch.add !buf row;
      account 1;
      if Batch.n_rows !buf >= chunk_size then begin
        flush ();
        if not (sink.k_alive ()) then raise Stop
      end
    in
    (* push a pre-built chunk (a filtered view or a column swap) downstream
       without row-at-a-time rebuffering; any buffered rows flush first so
       output order is preserved *)
    let emit_chunk b =
      let n = Batch.n_rows b in
      if n > 0 then begin
        flush ();
        account n;
        sink.k_consume b;
        if not (sink.k_alive ()) then raise Stop
      end
    in
    (* append [n] finished rows, cut at the same [chunk_size] boundaries
       row-at-a-time emission produces. [slice pos len] builds rows
       [pos .. pos+len-1] as a batch: a slice that completes the pending
       buffer, or is a whole chunk on its own, goes downstream as built; a
       shorter tail is copied into the buffer. [commit k] runs right before
       each push with the number of rows handed over so far — expansions
       charge [edges_touched] through it up to exactly the row at which the
       downstream chain may stop *)
    let emit_slices ?(commit = ignore) n slice =
      let at = ref 0 in
      while !at < n do
        let pending = Batch.n_rows !buf in
        let take = min (chunk_size - pending) (n - !at) in
        let piece = slice !at take in
        account take;
        at := !at + take;
        if pending + take < chunk_size then Batch.append_batch !buf piece
        else begin
          commit !at;
          if pending = 0 then sink.k_consume piece
          else begin
            Batch.append_batch !buf piece;
            flush ()
          end;
          if not (sink.k_alive ()) then raise Stop
        end
      done
    in
    (* the rows of [b], re-cut as zero-copy slices *)
    let emit_rows ?commit b =
      let n = Batch.n_rows b in
      emit_slices ?commit n (fun pos len -> if len = n then b else Batch.sub b ~pos ~len)
    in
    let close () =
      (try flush () with Stop -> ());
      sink.k_close ()
    in
    { emit; emit_chunk; emit_rows; emit_slices; close }
  in
  (* collect a pipeline's output into a batch (final results, the common
     sub-plan, join build inputs); collected rows are live *)
  let collector fields =
    let out = Batch.create fields in
    let sink =
      {
        k_consume =
          (fun chunk ->
            Batch.append_batch out chunk;
            Op_trace.live_add st (Batch.n_rows chunk));
        k_close = ignore;
        k_alive = (fun () -> true);
      }
    in
    (out, sink)
  in
  let etypes con = Tc.to_list ~universe:euniv con in
  let vcheck con v = Tc.mem ~universe:vuniv con (G.vtype g v) in
  (* [step_adj step] iterates [v]'s adjacency along [step] (edge types
     resolved once per operator), calling [f eid other] per entry *)
  let step_adj (step : Physical.edge_step) =
    let e = step.Physical.s_edge in
    let ets = etypes e.Pattern.e_con in
    let directed = e.Pattern.e_directed and forward = step.Physical.s_forward in
    fun v f ->
      List.iter
        (fun et ->
          if (not directed) || forward then
            G.iter_out_etype g v et (fun eid -> f eid (G.edst g eid));
          if (not directed) || not forward then
            G.iter_in_etype g v et (fun eid -> f eid (G.esrc g eid)))
        ets
  in
  (* [step_between step u w]: the edges along [step] from [u] to [w] *)
  let step_between (step : Physical.edge_step) =
    let e = step.Physical.s_edge in
    let ets = etypes e.Pattern.e_con in
    let directed = e.Pattern.e_directed and forward = step.Physical.s_forward in
    fun u w ->
      List.concat_map
        (fun et ->
          if directed then
            if forward then G.find_out_edges g ~src:u ~etype:et ~dst:w
            else G.find_out_edges g ~src:w ~etype:et ~dst:u
          else
            G.find_out_edges g ~src:u ~etype:et ~dst:w
            @ G.find_out_edges g ~src:w ~etype:et ~dst:u)
        ets
  in
  let sorted_step_neighbors (step : Physical.edge_step) v =
    let e = step.Physical.s_edge in
    let arrays =
      List.concat_map
        (fun et ->
          if e.Pattern.e_directed then
            if step.Physical.s_forward then [ G.out_neighbors_etype g v et ]
            else [ G.in_neighbors_etype g v et ]
          else [ G.out_neighbors_etype g v et; G.in_neighbors_etype g v et ])
        (etypes e.Pattern.e_con)
    in
    let merged =
      match arrays with
      | [ single ] -> single (* per-etype adjacency is already sorted *)
      | _ ->
        let m = Array.concat arrays in
        Array.sort Int.compare m;
        m
    in
    let out = Vec.create () in
    Array.iteri (fun i x -> if i = 0 || merged.(i - 1) <> x then Vec.push out x) merged;
    Vec.to_array out
  in
  let vertex_of rv =
    match rv with
    | Rval.Rvertex v -> v
    | _ -> invalid_arg "Engine: expected a vertex binding"
  in
  (* vertex id of logical row [i] of column [j], read without boxing from a
     dense column *)
  let vertex_reader b j =
    let sel = Batch.selection b in
    match Batch.col b j, sel with
    | Batch.D_vertex a, None -> fun i -> a.(i)
    | Batch.D_vertex a, Some s -> fun i -> a.(s.(i))
    | Batch.D_boxed vals, None -> fun i -> vertex_of vals.(i)
    | Batch.D_boxed vals, Some s -> fun i -> vertex_of vals.(s.(i))
    | Batch.D_edge _, _ -> fun _ -> invalid_arg "Engine: expected a vertex binding"
  in
  let label plan = Physical.node_label ~schema plan in
  (* [run_plan common plan sink] executes the subtree rooted at [plan],
     pushing chunks into [sink] and closing it exactly once; returns the
     subtree's trace *)
  let rec run_plan common plan sink : Op_trace.t =
    (* drive a source iteration: honour the stop signal, then close *)
    let drive tr close iterate =
      (try
         Op_trace.timed clk tr (fun () ->
             if not (sink.k_alive ()) then raise Stop;
             iterate ())
       with Stop -> ());
      Op_trace.timed clk tr close;
      tr
    in
    (* unary operator over whole chunks *)
    let chunked ?alive x tr ~close consume =
      let alive = match alive with Some f -> f | None -> sink.k_alive in
      let ctr = run_plan common x (mk_sink tr ~alive ~close ~consume) in
      tr.Op_trace.children <- [ ctr ];
      tr
    in
    (* streaming unary operator: per-input-row body emitting via [emit] *)
    let streaming ?alive x tr fields on_row =
      let em = emitter tr fields sink in
      chunked ?alive x tr ~close:em.close (fun chunk ->
          Batch.iter (fun row -> on_row em.emit row) chunk)
    in
    (* Columnar expansion. [gen chunk ~start ~full ~visit ~cand ids] walks
       the chunk's rows from [start] until [full ()] holds after a row:
       [visit ()] per adjacency entry examined, [cand i] per output row
       derived from input row [i], after pushing that row's new ids onto
       [ids] (one buffer per appended column, edge or vertex ids per
       [id_cols]); it returns the next row and the row-work count for the
       budget tick. Windows of about [16 * chunk_size] candidate rows are
       narrowed by [preds] (compiled kernels; over the new id columns alone
       when the predicates read nothing else), then each output slice
       gathers the input columns by row index and the new ids. Adjacency
       entries are charged to [edges_touched] through the emitter's commit
       hook, so a downstream stop sees the same count as row-at-a-time
       expansion would. *)
    let expansion x tr fields ~id_cols ~preds gen =
      let child_width = List.length (Physical.output_fields x) in
      let new_fields = List.filteri (fun j _ -> j >= child_width) fields in
      let em = emitter tr fields sink in
      (* predicates over the new columns only run on those columns, before
         the input columns are gathered for the survivors *)
      let preds = List.filter_map Fun.id preds in
      let early =
        List.for_all
          (fun p -> List.for_all (fun t -> List.mem t new_fields) (Gopt_pattern.Expr.free_tags p))
          preds
      in
      let kernels =
        List.map (Eval.compile ~vectorize g ~fields:(if early then new_fields else fields)) preds
      in
      let narrow b m =
        List.fold_left
          (fun s k -> if Array.length s = 0 then s else run_kern tr k b s)
          (Array.init m Fun.id) kernels
      in
      let rows = Ibuf.create () and touched_at = Ibuf.create () in
      let ids = List.map (fun _ -> Ibuf.create ()) id_cols in
      let touched = ref 0 in
      let visit () = incr touched in
      let cand i =
        Ibuf.push rows i;
        Ibuf.push touched_at !touched
      in
      let full () = Ibuf.length rows >= 16 * chunk_size in
      let window chunk start =
        Ibuf.clear rows;
        Ibuf.clear touched_at;
        List.iter Ibuf.clear ids;
        touched := 0;
        let next, work = gen chunk ~start ~full ~visit ~cand ids in
        tick_n work;
        let committed = ref 0 in
        let commit c =
          st.Op_trace.edges_touched <- st.Op_trace.edges_touched + c - !committed;
          committed := c
        in
        let m = Ibuf.length rows in
        if m > 0 then begin
          let ri = Ibuf.data rows in
          (* the new id columns over the window's buffers: read here, copied
             into every output slice *)
          let new_cols =
            Batch.of_columns new_fields
              (List.map2
                 (fun kind buf ->
                   match kind with
                   | `Edge -> Batch.D_edge (Ibuf.data buf)
                   | `Vertex -> Batch.D_vertex (Ibuf.data buf))
                 id_cols ids)
              m
          in
          let n_new = List.length id_cols in
          (* [picks]: the candidates that pass [preds], in order *)
          let all = Array.init m Fun.id in
          let picks =
            if kernels = [] then all
            else if early then narrow new_cols m
            else
              (* a predicate reads input columns: filter the whole window *)
              narrow
                (Batch.of_columns fields
                   (List.init child_width (fun j -> Batch.gather chunk j ri m)
                   @ List.init n_new (fun j -> Batch.gather new_cols j all m))
                   m)
                m
          in
          let n = Array.length picks in
          let in_rows = if n = m then ri else Array.map (fun k -> ri.(k)) picks in
          em.emit_slices
            ~commit:(fun k -> commit (Ibuf.get touched_at picks.(k - 1)))
            n
            (fun pos len ->
              Batch.of_columns fields
                (List.init child_width (fun j -> Batch.gather ~pos chunk j in_rows len)
                @ List.init n_new (fun j -> Batch.gather ~pos new_cols j picks len))
                len)
        end;
        commit !touched;
        next
      in
      chunked x tr ~close:em.close (fun chunk ->
          let n = Batch.n_rows chunk in
          let at = ref 0 in
          while !at < n do
            at := window chunk !at
          done)
    in
    (* hash-join machinery shared by Hash_join and With_common's C_join:
       collects the build side via [run_build] into one batch, indexes it,
       then streams the probe side through [Join_core.probe] *)
    let hash_join tr ~left_fields ~right_fields ~keys ~kind ~run_build ~run_probe =
      let jc = Join_core.create ~left_fields ~right_fields ~keys ~kind in
      let build_rows = Batch.create right_fields in
      let build_sink =
        mk_sink tr ~alive:sink.k_alive ~close:ignore ~consume:(fun chunk ->
            let n = Batch.n_rows chunk in
            tick_n n;
            Batch.append_batch build_rows chunk;
            Op_trace.live_add st n)
      in
      let build_tr = run_build build_sink in
      Op_trace.timed clk tr (fun () -> Join_core.build jc build_rows);
      let em = emitter tr (Join_core.out_fields jc) sink in
      let probe_sink =
        mk_sink tr ~alive:sink.k_alive
          ~consume:(fun chunk ->
            tick_n (Batch.n_rows chunk);
            Join_core.probe ~window:(16 * chunk_size) jc chunk (fun n slice ->
                em.emit_slices n slice))
          ~close:(fun () ->
            Op_trace.live_sub st (Join_core.size jc);
            em.close ())
      in
      let probe_tr = run_probe probe_sink in
      (build_tr, probe_tr)
    in
    match plan with
    | Physical.Empty _ ->
      let tr = mk_trace (label plan) in
      drive tr (fun () -> sink.k_close ()) (fun () -> ())
    | Physical.Common_ref _ -> begin
      match common with
      | None -> failwith "Engine: CommonRef outside WithCommon"
      | Some cb ->
        let tr = mk_trace ~count_op:false (label plan) in
        (* zero-copy re-emission: full chunks go out as slices of [cb] *)
        let em = emitter ~count:false tr (Batch.fields cb) sink in
        drive tr em.close (fun () -> em.emit_rows cb)
    end
    | Physical.Scan { alias; con; pred } ->
      let tr = mk_trace (label plan) in
      let fields = [ alias ] in
      let kernel = Option.map (fun p -> Eval.compile ~vectorize g ~fields p) pred in
      let em = emitter tr fields sink in
      (* vectorized scan: fill a dense id column per chunk straight from the
         type index, then narrow it with the compiled predicate kernel — no
         per-vertex boxing, no per-row closure dispatch *)
      drive tr em.close (fun () ->
          List.iter
            (fun t ->
              let verts = G.vertices_of_vtype g t in
              let nv = Array.length verts in
              let at = ref 0 in
              while !at < nv do
                let len = min chunk_size (nv - !at) in
                tick_n len;
                let b = Batch.of_vertex_ids alias verts ~pos:!at ~len in
                at := !at + len;
                match kernel with
                | None -> em.emit_chunk b
                | Some k ->
                  let selected = run_kern tr k b (Array.init len Fun.id) in
                  if Array.length selected = len then em.emit_chunk b
                  else if Array.length selected > 0 then
                    em.emit_chunk (Batch.select b selected)
              done)
            (Tc.to_list ~universe:vuniv con))
    | Physical.Expand_all (x, step) ->
      let child_fields = Physical.output_fields x in
      let e_alias = step.Physical.s_edge.Pattern.e_alias in
      let fields = child_fields @ [ e_alias; step.Physical.s_to ] in
      let from_pos = Batch.pos (Batch.create fields) step.Physical.s_from in
      let to_con = step.Physical.s_to_con in
      let adj = step_adj step in
      let tr = mk_trace (label plan) in
      expansion x tr fields ~id_cols:[ `Edge; `Vertex ]
        ~preds:[ step.Physical.s_edge.Pattern.e_pred; step.Physical.s_to_pred ]
        (fun chunk ~start ~full ~visit ~cand ids ->
          let eids, vids = match ids with [ e; v ] -> (e, v) | _ -> assert false in
          let vertex = vertex_reader chunk from_pos in
          let n = Batch.n_rows chunk in
          let visits = ref 0 and i = ref start in
          while !i < n && not (full ()) do
            let row = !i in
            adj (vertex row) (fun eid other ->
                visit ();
                incr visits;
                if vcheck to_con other then begin
                  Ibuf.push eids eid;
                  Ibuf.push vids other;
                  cand row
                end);
            incr i
          done;
          (!i, !visits))
    | Physical.Expand_into (x, step) ->
      let child_fields = Physical.output_fields x in
      let e_alias = step.Physical.s_edge.Pattern.e_alias in
      let fields = child_fields @ [ e_alias ] in
      let layout = Batch.create fields in
      let from_pos = Batch.pos layout step.Physical.s_from in
      let to_pos = Batch.pos layout step.Physical.s_to in
      let between = step_between step in
      let tr = mk_trace (label plan) in
      expansion x tr fields ~id_cols:[ `Edge ] ~preds:[ step.Physical.s_edge.Pattern.e_pred ]
        (fun chunk ~start ~full ~visit ~cand ids ->
          let eids = List.hd ids in
          let src = vertex_reader chunk from_pos and dst = vertex_reader chunk to_pos in
          let n = Batch.n_rows chunk in
          let i = ref start in
          while !i < n && not (full ()) do
            let row = !i in
            List.iter
              (fun eid ->
                visit ();
                Ibuf.push eids eid;
                cand row)
              (between (src row) (dst row));
            incr i
          done;
          (!i, !i - start))
    | Physical.Expand_intersect (x, steps) ->
      let child_fields = Physical.output_fields x in
      let to_alias = (List.hd steps).Physical.s_to in
      let edge_aliases = List.map (fun s -> s.Physical.s_edge.Pattern.e_alias) steps in
      let fields = child_fields @ edge_aliases @ [ to_alias ] in
      let child_layout = Batch.create child_fields in
      let from_pos = List.map (fun s -> Batch.pos child_layout s.Physical.s_from) steps in
      let to_con = (List.hd steps).Physical.s_to_con in
      let to_pred = (List.hd steps).Physical.s_to_pred in
      let betweens = List.map step_between steps in
      let n_steps = List.length steps in
      (* hub vertices recur across rows: memoize their extracted adjacency;
         a fresh extraction's entries count as touched *)
      let nbr_cache : (int * int, int array) Hashtbl.t = Hashtbl.create 256 in
      let step_neighbors ~visit idx step v =
        match Hashtbl.find_opt nbr_cache (idx, v) with
        | Some a -> a
        | None ->
          let a = sorted_step_neighbors step v in
          for _ = 1 to Array.length a do
            visit ()
          done;
          Hashtbl.add nbr_cache (idx, v) a;
          a
      in
      let tr = mk_trace (label plan) in
      expansion x tr fields
        ~id_cols:(List.map (fun _ -> `Edge) steps @ [ `Vertex ])
        ~preds:(to_pred :: List.map (fun s -> s.Physical.s_edge.Pattern.e_pred) steps)
        (fun chunk ~start ~full ~visit ~cand ids ->
          let ids = Array.of_list ids in
          let readers = List.map (vertex_reader chunk) from_pos in
          let combo = Array.make n_steps 0 in
          let n = Batch.n_rows chunk in
          let work = ref 0 and row = ref start in
          while !row < n && not (full ()) do
            let i = !row in
            incr row;
            incr work;
            let anchors = List.map (fun r -> r i) readers in
            let nbr_arrays =
              List.mapi (fun k (s, v) -> step_neighbors ~visit k s v) (List.combine steps anchors)
            in
            let first =
              List.fold_left
                (fun acc a -> if Array.length a < Array.length acc then a else acc)
                (List.hd nbr_arrays) (List.tl nbr_arrays)
            in
            let rest = List.filter (fun a -> a != first) nbr_arrays in
            Array.iter
              (fun c ->
                incr work;
                if
                  List.for_all
                    (fun arr ->
                      let lo = ref 0 and hi = ref (Array.length arr) in
                      while !lo < !hi do
                        let mid = (!lo + !hi) / 2 in
                        if arr.(mid) < c then lo := mid + 1 else hi := mid
                      done;
                      !lo < Array.length arr && arr.(!lo) = c)
                    rest
                  && vcheck to_con c
                then begin
                  (* one output row per combination of parallel edges, in
                     step order *)
                  let rec assemble k = function
                    | [] ->
                      Array.iteri (fun s eid -> Ibuf.push ids.(s) eid) combo;
                      Ibuf.push ids.(n_steps) c;
                      cand i
                    | (between, v) :: more ->
                      List.iter
                        (fun eid ->
                          combo.(k) <- eid;
                          assemble (k + 1) more)
                        (between v c)
                  in
                  assemble 0 (List.combine betweens anchors)
                end)
              first
          done;
          (!row, !work))
    | Physical.Path_expand (x, step) ->
      let child_fields = Physical.output_fields x in
      let lo, hi =
        match step.Physical.s_edge.Pattern.e_hops with
        | Some (lo, hi) -> (lo, hi)
        | None -> (1, 1)
      in
      let sem = step.Physical.s_edge.Pattern.e_path in
      let e_alias = step.Physical.s_edge.Pattern.e_alias in
      let bound_mode = List.mem step.Physical.s_to child_fields in
      let fields =
        if bound_mode then child_fields @ [ e_alias ]
        else child_fields @ [ e_alias; step.Physical.s_to ]
      in
      let layout = Batch.create fields in
      let from_pos = Batch.pos layout step.Physical.s_from in
      let to_pos = if bound_mode then Some (Batch.pos layout step.Physical.s_to) else None in
      let adj = step_adj step in
      let tr = mk_trace (label plan) in
      streaming x tr fields (fun emit row ->
          let v0 = vertex_of row.(from_pos) in
          let target = Option.map (fun p -> vertex_of row.(p)) to_pos in
          let rec dfs v depth edges_rev verts_rev =
            tick ();
            if depth >= lo && depth <= hi then begin
              let ok_endpoint =
                match target with Some t -> t = v | None -> vcheck step.Physical.s_to_con v
              in
              if ok_endpoint then begin
                let path =
                  Rval.Rpath { edges = List.rev edges_rev; verts = List.rev verts_rev }
                in
                let row' =
                  if bound_mode then Array.append row [| path |]
                  else Array.append row [| path; Rval.Rvertex v |]
                in
                let lk = Eval.lookup_of_row layout row' in
                let keep =
                  match step.Physical.s_to_pred with
                  | None -> true
                  | Some p -> if bound_mode then true else Eval.is_true (Eval.eval g lk p)
                in
                if keep then emit row'
              end
            end;
            if depth < hi then
              adj v (fun eid other ->
                  tick ();
                  st.Op_trace.edges_touched <- st.Op_trace.edges_touched + 1;
                  let ok =
                    match sem with
                    | Pattern.Arbitrary -> true
                    | Pattern.Simple -> not (List.mem other verts_rev)
                    | Pattern.Trail -> not (List.mem eid edges_rev)
                  in
                  if ok then dfs other (depth + 1) (eid :: edges_rev) (other :: verts_rev))
          in
          dfs v0 0 [] [ v0 ])
    | Physical.Hash_join { left; right; keys; kind } ->
      let tr = mk_trace (label plan) in
      let build_tr, probe_tr =
        hash_join tr
          ~left_fields:(Physical.output_fields left)
          ~right_fields:(Physical.output_fields right)
          ~keys ~kind
          ~run_build:(fun s -> run_plan common right s)
          ~run_probe:(fun s -> run_plan common left s)
      in
      tr.Op_trace.children <- [ probe_tr; build_tr ];
      tr
    | Physical.Select (x, pred) ->
      let fields = Physical.output_fields x in
      let tr = mk_trace (label plan) in
      let kernel = Eval.compile ~vectorize g ~fields pred in
      let em = emitter tr fields sink in
      (* vectorized filter: the kernel marks survivors and the chunk is
         forwarded as a selection-vector view — no row copying *)
      chunked x tr ~close:em.close (fun chunk ->
          let n = Batch.n_rows chunk in
          tick_n n;
          let selected = run_kern tr kernel chunk (Array.init n Fun.id) in
          if Array.length selected = n then em.emit_chunk chunk
          else if Array.length selected > 0 then em.emit_chunk (Batch.select chunk selected))
    | Physical.Project (x, ps) ->
      let child_fields = Physical.output_fields x in
      let child_layout = Batch.create child_fields in
      let fields = List.map snd ps in
      let tr = mk_trace (label plan) in
      (* when every projection is a bound [Var], the whole operator is a
         column swap: the output chunk shares the input's columns and
         selection vector *)
      let var_positions =
        let rec go acc = function
          | [] -> Some (List.rev acc)
          | (Gopt_pattern.Expr.Var tag, alias) :: rest -> begin
            match Batch.pos_opt child_layout tag with
            | Some j -> go ((j, alias) :: acc) rest
            | None -> None
          end
          | _ -> None
        in
        if vectorize then go [] ps else None
      in
      begin
        match var_positions with
        | Some pairs ->
          let em = emitter tr fields sink in
          chunked x tr ~close:em.close (fun chunk ->
              let n = Batch.n_rows chunk in
              tick_n n;
              let t0 = Sys.time () in
              let out = Batch.project chunk pairs in
              tr.Op_trace.kernel_ns <- tr.Op_trace.kernel_ns +. ((Sys.time () -. t0) *. 1e9);
              tr.Op_trace.rows_selected <- tr.Op_trace.rows_selected + n;
              em.emit_chunk out)
        | None ->
          streaming x tr fields (fun emit row ->
              tick ();
              let lk = Eval.lookup_of_row child_layout row in
              emit (Array.of_list (List.map (fun (e, _) -> Eval.eval_rval g lk e) ps)))
      end
    | Physical.Group (x, ks, aggs) when Agg.counts_rows ks aggs ->
      (* keyless row count: chunk sizes add up, no per-row state *)
      let fields = List.map (fun a -> a.Logical.agg_alias) aggs in
      let tr = mk_trace (label plan) in
      let em = emitter tr fields sink in
      let count = ref 0 in
      chunked x tr
        ~close:(fun () ->
          (try em.emit (Agg.count_row aggs !count) with Stop -> ());
          if !count > 0 then Op_trace.live_sub st 1;
          em.close ())
        (fun chunk ->
          let n = Batch.n_rows chunk in
          tick_n n;
          (* the single group becomes live with its first row *)
          if !count = 0 then Op_trace.live_add st 1;
          count := !count + n)
    | Physical.Group (x, ks, aggs) ->
      let fields = List.map snd ks @ List.map (fun a -> a.Logical.agg_alias) aggs in
      let tr = mk_trace (label plan) in
      let em = emitter tr fields sink in
      let groups : (Rval.t list * Agg.state array) KeyTbl.t = KeyTbl.create 64 in
      chunked x tr
        ~close:(fun () ->
          (try
             if KeyTbl.length groups = 0 && ks = [] then
               (* aggregate over an empty input still yields one row *)
               em.emit (Array.of_list (List.map (fun a -> Agg.finish (Agg.init a) a) aggs))
             else
               KeyTbl.iter
                 (fun key (_, states) ->
                   let agg_vals = List.mapi (fun i a -> Agg.finish states.(i) a) aggs in
                   em.emit (Array.of_list (key @ agg_vals)))
                 groups
           with Stop -> ());
          Op_trace.live_sub st (KeyTbl.length groups);
          em.close ())
        (fun chunk ->
          let n = Batch.n_rows chunk in
          tick_n n;
          for i = 0 to n - 1 do
            let lk = Batch.lookup chunk i in
            let key = List.map (fun (e, _) -> Eval.eval_rval g lk e) ks in
            let _, states =
              match KeyTbl.find_opt groups key with
              | Some entry -> entry
              | None ->
                let entry = (key, Array.of_list (List.map Agg.init aggs)) in
                KeyTbl.add groups key entry;
                Op_trace.live_add st 1;
                entry
            in
            Agg.update_all g lk states aggs
          done)
    | Physical.Order (x, ks, lim) ->
      let fields = Physical.output_fields x in
      let layout = Batch.create fields in
      let tr = mk_trace (label plan) in
      let em = emitter tr fields sink in
      let cmp (ka, _) (kb, _) = compare_keys ks ka kb in
      let buf : (Value.t list * Rval.t array) Vec.t = Vec.create () in
      (* with a limit, keep the buffer bounded: sort-and-truncate whenever it
         overflows a small multiple of the target (amortized O(n log k)) *)
      let prune_at =
        match lim with Some l -> max (4 * l) chunk_size | None -> max_int
      in
      let truncate k =
        Vec.sort cmp buf;
        let kept = min k (Vec.length buf) in
        let dropped = Vec.length buf - kept in
        if dropped > 0 then begin
          let keep = Array.init kept (Vec.get buf) in
          Vec.clear buf;
          Array.iter (Vec.push buf) keep;
          Op_trace.live_sub st dropped
        end
      in
      let op =
        mk_sink tr ~alive:sink.k_alive
          ~consume:(fun chunk ->
            Batch.iter
              (fun row ->
                tick ();
                let lk = Eval.lookup_of_row layout row in
                Vec.push buf (List.map (fun (e, _) -> Eval.eval g lk e) ks, row);
                Op_trace.live_add st 1;
                if Vec.length buf > prune_at then
                  truncate (match lim with Some l -> l | None -> max_int))
              chunk)
          ~close:(fun () ->
            Vec.sort cmp buf;
            let n =
              match lim with Some l -> min l (Vec.length buf) | None -> Vec.length buf
            in
            (try
               for i = 0 to n - 1 do
                 em.emit (snd (Vec.get buf i))
               done
             with Stop -> ());
            Op_trace.live_sub st (Vec.length buf);
            em.close ())
      in
      let ctr = run_plan common x op in
      tr.Op_trace.children <- [ ctr ];
      tr
    | Physical.Limit (x, n) ->
      let fields = Physical.output_fields x in
      let tr = mk_trace (label plan) in
      let count = ref 0 in
      streaming
        ~alive:(fun () -> !count < n && sink.k_alive ())
        x tr fields
        (fun emit row ->
          if !count < n then begin
            emit row;
            incr count;
            (* stop signal: unwinds to this pipeline's source *)
            if !count >= n then raise Stop
          end)
    | Physical.Skip (x, n) ->
      let fields = Physical.output_fields x in
      let tr = mk_trace (label plan) in
      let seen = ref 0 in
      streaming x tr fields (fun emit row ->
          incr seen;
          if !seen > n then emit row)
    | Physical.Unfold (x, e, alias) ->
      let child_fields = Physical.output_fields x in
      let child_layout = Batch.create child_fields in
      let fields = child_fields @ [ alias ] in
      let tr = mk_trace (label plan) in
      streaming x tr fields (fun emit row ->
          tick ();
          let emit1 v = emit (Array.append row [| v |]) in
          match Eval.eval_rval g (Eval.lookup_of_row child_layout row) e with
          | Rval.Rlist items -> List.iter emit1 items
          | Rval.Rpath { verts; _ } -> List.iter (fun v -> emit1 (Rval.Rvertex v)) verts
          | Rval.Rnull -> ()
          | single -> emit1 single)
    | Physical.Dedup (x, tags) ->
      let fields = Physical.output_fields x in
      let layout = Batch.create fields in
      let positions =
        match tags with
        | [] -> List.init (List.length fields) Fun.id
        | tags -> List.map (Batch.pos layout) tags
      in
      let tr = mk_trace (label plan) in
      let seen = KeyTbl.create 64 in
      let em = emitter tr fields sink in
      let op =
        mk_sink tr ~alive:sink.k_alive
          ~consume:(fun chunk ->
            Batch.iter
              (fun row ->
                tick ();
                let key = List.map (fun p -> row.(p)) positions in
                if not (KeyTbl.mem seen key) then begin
                  KeyTbl.add seen key ();
                  Op_trace.live_add st 1;
                  em.emit row
                end)
              chunk)
          ~close:(fun () ->
            Op_trace.live_sub st (KeyTbl.length seen);
            em.close ())
      in
      let ctr = run_plan common x op in
      tr.Op_trace.children <- [ ctr ];
      tr
    | Physical.All_distinct (x, distinct_fields) ->
      let fields = Physical.output_fields x in
      let layout = Batch.create fields in
      let positions = Array.of_list (List.map (Batch.pos layout) distinct_fields) in
      let tr = mk_trace (label plan) in
      let em = emitter tr fields sink in
      let ids = Ibuf.create () in
      (* no-repeated-edge filter over the edge-id columns: a row's ids are
         collected into a reused buffer (a path contributes all its edges)
         and compared without allocating; survivors leave as a selection
         view *)
      chunked x tr ~close:em.close (fun chunk ->
          let n = Batch.n_rows chunk in
          tick_n n;
          let cols = Array.map (Batch.col chunk) positions in
          let sel = Batch.selection chunk in
          let keep = Ibuf.create ~cap:n () in
          for i = 0 to n - 1 do
            let p = match sel with None -> i | Some s -> s.(i) in
            Ibuf.clear ids;
            Array.iter
              (function
                | Batch.D_edge a -> Ibuf.push ids a.(p)
                | Batch.D_boxed vals -> List.iter (Ibuf.push ids) (Rval.edge_ids vals.(p))
                | Batch.D_vertex _ -> ())
              cols;
            if Ibuf.all_distinct ids then Ibuf.push keep i
          done;
          em.emit_rows
            (if Ibuf.length keep = n then chunk else Batch.select chunk (Ibuf.to_array keep)))
    | Physical.Union (a, b) ->
      let fields = Physical.output_fields a in
      let b_layout = Batch.create (Physical.output_fields b) in
      let tr = mk_trace (label plan) in
      (* forwarding node: counts the combined stream once, like the
         materialized engine recorded the concatenated batch *)
      let em = emitter tr fields sink in
      let pending = ref 2 in
      let branch_close () =
        decr pending;
        if !pending = 0 then em.close ()
      in
      let branch on_row =
        mk_sink tr ~alive:sink.k_alive ~close:branch_close
          ~consume:(fun chunk -> Batch.iter on_row chunk)
      in
      let tra = run_plan common a (branch em.emit) in
      let trb =
        run_plan common b (branch (fun row -> em.emit (Batch.project_to b_layout fields row)))
      in
      tr.Op_trace.children <- [ tra; trb ];
      tr
    | Physical.With_common { common = c; left; right; combine } ->
      let tr = mk_trace (label plan) in
      let c_fields = Physical.output_fields c in
      let cb, c_sink = collector c_fields in
      let c_tr = run_plan common c c_sink in
      let inner = Some cb in
      let l_tr, r_tr =
        match combine with
        | Logical.C_union ->
          let fields = Physical.output_fields left in
          let r_layout = Batch.create (Physical.output_fields right) in
          let em = emitter tr fields sink in
          let pending = ref 2 in
          let branch_close () =
            decr pending;
            if !pending = 0 then em.close ()
          in
          let branch on_row =
            mk_sink tr ~alive:sink.k_alive ~close:branch_close
              ~consume:(fun chunk -> Batch.iter on_row chunk)
          in
          let l_tr = run_plan inner left (branch em.emit) in
          let r_tr =
            run_plan inner right
              (branch (fun row -> em.emit (Batch.project_to r_layout fields row)))
          in
          (l_tr, r_tr)
        | Logical.C_join (keys, kind) ->
          let build_tr, probe_tr =
            hash_join tr
              ~left_fields:(Physical.output_fields left)
              ~right_fields:(Physical.output_fields right)
              ~keys ~kind
              ~run_build:(fun s -> run_plan inner right s)
              ~run_probe:(fun s -> run_plan inner left s)
          in
          (probe_tr, build_tr)
      in
      Op_trace.live_sub st (Batch.n_rows cb);
      tr.Op_trace.children <- [ c_tr; l_tr; r_tr ];
      tr
  in
  let result, final_sink = collector (Physical.output_fields plan) in
  let root_tr = run_plan source plan final_sink in
  st.Op_trace.op_trace <- Some root_tr;
  (result, st)

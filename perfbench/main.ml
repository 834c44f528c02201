(* One benchmark run: set up the LDBC-like graph and a session, check every
   query against the materialized oracle, then run one workload as a closed
   loop with one client for the given number of seconds.

     main.exe --workload analytic|analytic-w2|interactive --seed N
              --seconds S --trace 0|1

   With [--trace 0] the run reports the end-to-end metrics, measured through
   the Gopt facade with nothing else timed. With [--trace 1] every request
   is also replayed layer by layer (parse, lower, fingerprint, plan, bind,
   execute) inside spans, and the run reports the per-layer metrics; the
   spans are written to perfbench-out/. The last line of standard output is
   one JSON object: correct, attempted, failed and the metrics. *)

module Q = Gopt_workloads.Queries
module Ldbc = Gopt_workloads.Ldbc
module Engine = Gopt_exec.Engine
module Op_trace = Gopt_exec.Op_trace
module Physical = Gopt_opt.Physical
module Planner = Gopt_opt.Planner
module Cbo = Gopt_opt.Cbo
module Value = Gopt_graph.Value
module G = Gopt_graph.Property_graph
module Parser = Gopt_lang.Cypher_parser
module Lowering = Gopt_lang.Lowering
module Fingerprint = Gopt_cache.Fingerprint
module Plan_cache = Gopt_cache.Plan_cache
module Prng = Gopt_util.Prng
module Clock = Perfbench.Clock
module Stats = Perfbench.Stats
module Spans = Perfbench.Spans
module Rc = Perfbench.Result_check

(* About 7.4k vertices and 50k edges: queries run for milliseconds to a
   second, long enough to time and short enough for several passes a run. *)
let persons = 1000

(* Every run uses the same graph, the generator's default one. From one
   generator seed to the next the analytic queries do 3.7M to 5.0M
   intermediate rows a pass (seeds 1-8), a spread wider than any bound a
   regression check could use; --seed drives the requests instead. *)
let graph_seed = 42

(* CPU seconds an execution may take before Engine.Timeout counts it as
   failed; the slowest query of any workload needs about one. *)
let budget = 60.0

(* Set-ups per run; setup_s is their median. *)
let setup_repeats = 11

(* Interactive (template, person) pairs per template, and how many of them
   are checked against the oracle. Which persons the seed draws moves the
   latency of a template; resampling one run's pairs gave adhoc_p50_ms a
   spread (quartile distance over median) of 0.056 from the draw alone at
   11 persons a template, and 0.032 at 22. *)
let pairs_per_template = 22
let oracle_pairs_per_template = 2

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

(* --- workloads ------------------------------------------------------------- *)

type workload = Analytic of int option | Interactive

let workload_of_name = function
  | "analytic" -> Analytic None
  | "analytic-w2" -> Analytic (Some 2)
  | "interactive" -> Interactive
  | w -> die "unknown workload %S (analytic, analytic-w2, interactive)" w

let workers_of = function Analytic w -> w | Interactive -> None

(* BI1-BI18, QC1a-QC4b, QR1-QR8: complex patterns where execution does
   nearly all the work. *)
let analytic_queries = Q.bi @ Q.qc @ Q.qr

let replace_all ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i > String.length s - n then Buffer.add_string b (String.sub s i (String.length s - i))
    else if String.sub s i n = sub then (Buffer.add_string b by; go (i + n))
    else (Buffer.add_char b s.[i]; go (i + 1))
  in
  go 0;
  Buffer.contents b

let find_sub s sub =
  let n = String.length sub in
  let rec go i =
    if i > String.length s - n then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go 0

(* An IC query anchored on [(p:Person {id: N})], in its two serving forms:
   the literal text for person [pid], and a prepared statement that reads
   the person from [$pid] (a pattern property map cannot hold a deferred
   parameter, so the anchor moves into WHERE). [p.id <> N] elsewhere in the
   query names the same person and follows the anchor. *)
type template = { t_name : string; literal : int -> string; prepared : string }

let template_of (q : Q.query) =
  let anchor = "(p:Person {id: " in
  let text = q.Q.cypher in
  let start =
    match find_sub text anchor with
    | Some i -> i + String.length anchor
    | None -> die "%s is not anchored on %s...})" q.Q.name anchor
  in
  let stop = String.index_from text start '}' in
  let n = String.sub text start (stop - start) in
  let with_id by =
    text
    |> replace_all ~sub:(anchor ^ n ^ "})") ~by:(if by = "" then "(p:Person)" else anchor ^ by ^ "})")
    |> replace_all ~sub:(".id <> " ^ n) ~by:(".id <> " ^ if by = "" then "$pid" else by)
  in
  let unanchored = with_id "" in
  let prepared =
    match find_sub unanchored " WHERE " with
    | Some i ->
      String.sub unanchored 0 i ^ " WHERE p.id = $pid AND "
      ^ String.sub unanchored (i + 7) (String.length unanchored - i - 7)
    | None -> (
      match find_sub unanchored "RETURN " with
      | Some i ->
        String.sub unanchored 0 i ^ "WHERE p.id = $pid "
        ^ String.sub unanchored i (String.length unanchored - i)
      | None -> die "%s has no RETURN" q.Q.name)
  in
  { t_name = q.Q.name; literal = (fun pid -> with_id (string_of_int pid)); prepared }

(* --- requests -------------------------------------------------------------- *)

type cls = Prepared | Adhoc

(* How a request reaches the engine through the facade; the traced replay
   repeats the same steps one layer call at a time. *)
type path =
  | Uncached of string  (** [run_cypher ~use_cache:false]: parse, lower, plan, run. *)
  | Cached of string
      (** [run_cypher]: parse, fingerprint, cache lookup, and on a miss lower
          and plan; then bind and run. *)
  | Stmt of {
      prep : Gopt.Prepared.t;
      ast : Gopt_lang.Cypher_ast.query;
      physical : Physical.t;  (** The cached generic plan. *)
      params : (string * Value.t list) list;
    }  (** [Prepared.execute]: fingerprint, cache hit, bind, run. *)

(* [item] names the request's work: each pass sends the same items. *)
type request = { item : int; qi : int; cls : cls; path : path }


type output = { canon : Rc.canonical; physical : Physical.t }

(* A step is what the client does between two looks at the clock: one
   request (analytic), or one (template, person) pair in both classes
   (interactive). [verify] checks the results of all its requests and
   returns the reason when they are wrong. *)
type step = { reqs : request list; verify : (request * output) list -> string option }

let facade ~workers s r =
  match r.path with
  | Uncached text -> Gopt.run_cypher ?workers ~budget ~use_cache:false s text
  | Cached text -> Gopt.run_cypher ?workers ~budget s text
  | Stmt p -> Gopt.Prepared.execute ?workers ~budget ~params:p.params p.prep

let result_of (o : Gopt.outcome) = { canon = Rc.canonical o.Gopt.result; physical = o.Gopt.physical }

(* --- failures ---------------------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let fail what why =
  tally.failed <- tally.failed + 1;
  Printf.eprintf "perfbench: FAILED %s: %s\n%!" what why

let describe = function
  | Engine.Timeout -> "timeout"
  | e -> Printexc.to_string e

(* Account for one executed step: every request counts as attempted; a
   request that raised fails alone, and a wrong result fails every request
   of the step. Returns whether the step succeeded. *)
let settle ~what step outs =
  tally.attempted <- tally.attempted + List.length outs;
  let errors = List.filter_map (fun (_, o) -> Result.fold ~ok:(fun _ -> None) ~error:Option.some o) outs in
  List.iter (fun e -> fail what (describe e)) errors;
  if errors <> [] then false
  else
    match step.verify (List.map (fun (r, o) -> (r, Result.get_ok o)) outs) with
    | None -> true
    | Some why ->
      List.iter (fun _ -> fail what why) outs;
      false

(* --- oracle in a child process --------------------------------------------- *)

(* The materialized engine keeps every intermediate result, so it peaks at
   about twice the heap of the workload itself. It runs in a forked child,
   which keeps it out of the parent's heap_peak_mb while the parent runs its
   own untimed warm-up; the loop starts only after the child has been
   collected. Must be called before any domain is spawned. *)
let fork_oracle (jobs : (unit -> Rc.canonical) list) =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let out = List.map (fun job -> try Ok (job ()) with e -> Error (describe e)) jobs in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc (out : (Rc.canonical, string) result list) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    fun () ->
      let ic = Unix.in_channel_of_descr rd in
      let out =
        try (Marshal.from_channel ic : (Rc.canonical, string) result list)
        with e -> List.map (fun _ -> Error ("oracle process: " ^ describe e)) jobs
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      out

let oracle_job s text () =
  let physical, _ = Gopt.plan_cypher s text in
  Rc.canonical (fst (Engine.run_materialized ~budget (Gopt.Session.graph s) physical))

(* The clock of request latencies: CPU time on one domain, where it leaves
   out the time a shared host kept the process off the processor, and wall
   time on several, where CPU time sums over the domains. *)
let latency_clock ~workers =
  match workers with Some w when w > 1 -> Clock.Wall | _ -> Clock.Cpu

(* One facade call, timed (inside [wrap], which the traced run uses to
   record it as a span); the result is canonicalized after the clock
   stops. *)
let run_facade ?(wrap = fun f -> f ()) ~workers s r =
  match Clock.time (latency_clock ~workers) (fun () -> wrap (fun () -> facade ~workers s r)) with
  | o, dt -> (Ok (result_of o), dt)
  | exception e -> (Error e, 0.0)

(* --- workloads as step streams ----------------------------------------------- *)

(* A pass runs [rounds_per_pass] steps, the same items in the same order
   every pass. *)
type stream = {
  step_of : int -> step;  (** The step of round [k]. *)
  rounds_per_pass : int;
  names : string array;  (** Query or template names, by [qi]. *)
}

let matches_oracle want rule =
  let ok = Rc.matcher rule want in
  fun outs -> if List.for_all (fun (_, r) -> ok r.canon) outs then None else Some "differs from the oracle"

(* Analytic: each pass runs every query once in each class, in one seeded
   order. Before the loop, each query runs once in each class, untimed, and
   both results are checked against the oracle. *)
let analytic_stream ~seed ~workers s =
  let qs = Array.of_list analytic_queries in
  let collect = fork_oracle (Array.to_list (Array.map (fun q -> oracle_job s q.Q.cypher) qs)) in
  let warm =
    Array.mapi
      (fun i q ->
        let text = q.Q.cypher in
        let adhoc = { item = 2 * i; qi = i; cls = Adhoc; path = Uncached text } in
        let prep = Gopt.prepare_cypher s text in
        let o_a = try Ok (result_of (facade ~workers s adhoc)) with e -> Error e in
        let o_p = try Ok (result_of (Gopt.Prepared.execute ?workers ~budget prep)) with e -> Error e in
        (adhoc, prep, o_a, o_p))
      qs
  in
  let oracle = Array.of_list (collect ()) in
  let steps =
    Array.mapi
      (fun i (adhoc, prep, o_a, o_p) ->
        let name = qs.(i).Q.name in
        let want =
          match oracle.(i) with Ok w -> w | Error e -> die "oracle failed on %s: %s" name e
        in
        let r_p = match o_p with Ok r -> r | Error e -> die "%s prepared: %s" name (describe e) in
        let r_a = match o_a with Ok r -> r | Error e -> die "%s ad hoc: %s" name (describe e) in
        let stmt =
          {
            item = (2 * i) + 1;
            qi = i;
            cls = Prepared;
            path =
              Stmt
                {
                  prep;
                  ast = Parser.parse ~defer_params:true qs.(i).Q.cypher;
                  physical = r_p.physical;
                  params = [];
                };
          }
        in
        let rule = Rc.weaker (Rc.rule_of_plan r_a.physical) (Rc.rule_of_plan r_p.physical) in
        let verify = matches_oracle want rule in
        let warm_step = { reqs = [ adhoc; stmt ]; verify } in
        ignore (settle ~what:(name ^ " warm-up") warm_step [ (adhoc, Ok r_a); (stmt, Ok r_p) ]);
        [ { reqs = [ adhoc ]; verify }; { reqs = [ stmt ]; verify } ])
      warm
  in
  let steps = Array.of_list (List.concat (Array.to_list steps)) in
  Prng.shuffle (Prng.create seed) steps;
  {
    rounds_per_pass = Array.length steps;
    names = Array.map (fun q -> q.Q.name) qs;
    step_of = (fun k -> steps.(k mod Array.length steps));
  }

(* Person ids, ordered by the person's degree (ties by id). *)
let persons_by_degree g =
  let person = Gopt_graph.Schema.vtype_id (G.schema g) "Person" in
  let key v =
    match G.vprop g v "id" with
    | Value.Int id -> (G.out_degree g v + G.in_degree g v, id)
    | _ -> die "a Person without an integer id"
  in
  let ps = Array.map key (G.vertices_of_vtype g person) in
  Array.sort compare ps;
  Array.map snd ps

(* [k] distinct persons, one drawn uniformly from each of [k] equal strata
   of [ids]: every person is about equally likely to be drawn (strata
   differ by at most one person), and every draw spans the degree
   distribution. An IC query's cost grows with its
   person's neighbourhood: over five seeds adhoc_p50_ms spread 0.28 with
   plain uniform draws and 0.14 with strata. *)
let stratified_sample rng ids ~k =
  let n = Array.length ids in
  List.init k (fun i ->
      let lo = i * n / k and hi = (i + 1) * n / k in
      ids.(lo + Prng.int rng (hi - lo)))

(* Both classes of one (template, person) pair must agree, under the rule
   both of their plans allow; a pair from the oracle sample must also agree
   with the oracle. *)
let verify_pair want outs =
  let find c = snd (List.find (fun (r, _) -> r.cls = c) outs) in
  let a = find Adhoc and p = find Prepared in
  let rule = Rc.weaker (Rc.rule_of_plan a.physical) (Rc.rule_of_plan p.physical) in
  if not (Rc.agree rule a.canon p.canon) then Some "prepared and ad hoc disagree"
  else
    match want with
    | Some w when not (Rc.agree rule w a.canon) -> Some "differs from the oracle"
    | _ -> None

(* Interactive: a seeded pool of (template, person) pairs, a stratified
   sample of [pairs_per_template] distinct persons for every IC template,
   visited in one seeded order each pass; each pair is sent in both
   classes, alternating which goes first (the second finds the person's
   neighbourhood in the CPU caches). The pool
   holds more pairs than the plan cache holds plans, so under LRU every ad
   hoc text has been evicted before the next pass sends it again. Before
   timing, [oracle_pairs_per_template] seeded pairs of each template are run
   and checked against the oracle; in every pass they are checked again. *)
let interactive_stream ~seed s =
  let templates = Array.of_list (List.map template_of Q.ic) in
  let stmts = Array.map (fun t -> Gopt.prepare_cypher s t.prepared) templates in
  let asts = Array.map (fun t -> Parser.parse ~defer_params:true t.prepared) templates in
  let ids = persons_by_degree (Gopt.Session.graph s) in
  let rng = Prng.create seed in
  let pool =
    Array.of_list
      (List.concat
         (List.init (Array.length templates) (fun t ->
              List.map (fun pid -> (t, pid)) (stratified_sample rng ids ~k:pairs_per_template))))
  in
  let capacity = (Gopt.Session.plan_cache_stats s).Plan_cache.capacity in
  if Array.length pool <= capacity then
    die "%d interactive pairs do not overflow a plan cache of %d" (Array.length pool) capacity;
  let sample =
    List.concat
      (List.init (Array.length templates) (fun t ->
           List.sort compare
             (List.map
                (fun i -> (t * pairs_per_template) + i)
                (Prng.sample_distinct rng ~n:pairs_per_template ~k:oracle_pairs_per_template))))
  in
  let collect =
    fork_oracle
      (List.map (fun j -> let t, pid = pool.(j) in oracle_job s (templates.(t).literal pid)) sample)
  in
  (* the generic plan of each template, from its first prepared execution *)
  let generic = Array.make (Array.length templates) None in
  let requests j =
    let t, pid = pool.(j) in
    let params = [ ("pid", [ Value.Int pid ]) ] in
    let physical =
      match generic.(t) with
      | Some p -> p
      | None ->
        let p = (Gopt.Prepared.execute ~budget ~params stmts.(t)).Gopt.physical in
        generic.(t) <- Some p;
        p
    in
    ( { item = 2 * j; qi = t; cls = Adhoc; path = Cached (templates.(t).literal pid) },
      {
        item = (2 * j) + 1;
        qi = t;
        cls = Prepared;
        path = Stmt { prep = stmts.(t); ast = asts.(t); physical; params };
      } )
  in
  let warm =
    List.map
      (fun j ->
        let adhoc, stmt = requests j in
        let out r = fst (run_facade ~workers:None s r) in
        [ (adhoc, out adhoc); (stmt, out stmt) ])
      sample
  in
  let oracle = Hashtbl.create 32 in
  List.iter2
    (fun j (res, outs) ->
      let t, pid = pool.(j) in
      let what = Printf.sprintf "%s pid=%d warm-up" templates.(t).t_name pid in
      match res with
      | Ok want ->
        Hashtbl.replace oracle j want;
        ignore (settle ~what { reqs = List.map fst outs; verify = verify_pair (Some want) } outs)
      | Error e -> die "oracle failed on %s: %s" what e)
    sample
    (List.combine (collect ()) warm);
  let order = Array.init (Array.length pool) Fun.id in
  Prng.shuffle rng order;
  let n = Array.length order in
  {
    rounds_per_pass = n;
    names = Array.map (fun t -> t.t_name) templates;
    step_of =
      (fun k ->
        let j = order.(k mod n) in
        let adhoc, stmt = requests j in
        {
          reqs = (if (k + (k / n)) mod 2 = 0 then [ adhoc; stmt ] else [ stmt; adhoc ]);
          verify = verify_pair (Hashtbl.find_opt oracle j);
        });
  }

(* --- set-up ------------------------------------------------------------------ *)

let span sp name f = match sp with None -> f () | Some sp -> Spans.record sp name f

(* Generate the graph and create the session [setup_repeats] times, each
   after a full collection has freed the previous one; returns the last
   session and every set-up time. The traced run also times the GLogue and
   histogram builds that Session.create performs, as calls of their own. *)
let setup ?sp () =
  let build () =
    span sp "core.setup" (fun () ->
        let g = span sp "workloads.generate" (fun () -> Ldbc.generate ~seed:graph_seed ~persons ()) in
        if sp <> None then begin
          ignore (span sp "glogue.build" (fun () -> Gopt_glogue.Glogue.build ~max_k:3 g));
          ignore (span sp "glogue.histograms" (fun () -> Gopt_glogue.Histograms.build g))
        end;
        span sp "core.session_create" (fun () -> Gopt.Session.create g))
  in
  let rec go k times =
    Gc.full_major ();
    let s, dt = Clock.time Clock.Wall build in
    if k = 1 then (s, List.rev (dt :: times)) else go (k - 1) (dt :: times)
  in
  go setup_repeats []

(* --- the closed loop ------------------------------------------------------------ *)

type sample = { s_item : int; s_qi : int; s_cls : cls; s_lat : float }

let cls_name = function Prepared -> "prepared" | Adhoc -> "adhoc"

(* Run passes until [seconds] have passed and at least two passes are
   complete, so that every item runs at least twice; the last pass may stop
   part way, which bounds a run's length whatever a pass takes. [exec n r]
   executes the [n]-th request and returns its output and facade latency.
   Only requests of steps that passed their check leave a latency
   sample. *)
let run_loop ~seconds ~stream ~exec =
  let samples = ref [] in
  let n = ref 0 in
  let t0 = Clock.now_ns () in
  let k = ref 0 in
  let n_pass = stream.rounds_per_pass in
  while Clock.seconds_since t0 < seconds || !k < 2 * n_pass do
    let step = stream.step_of !k in
    let outs =
      List.map
        (fun r ->
          let o, dt = exec !n r in
          incr n;
          (r, o, dt))
        step.reqs
    in
    let r0 = List.hd step.reqs in
    let what = Printf.sprintf "%s %s (round %d)" stream.names.(r0.qi) (cls_name r0.cls) !k in
    if settle ~what step (List.map (fun (r, o, _) -> (r, o)) outs) then
      List.iter
        (fun (r, _, dt) ->
          samples := { s_item = r.item; s_qi = r.qi; s_cls = r.cls; s_lat = dt } :: !samples)
        outs;
    incr k
  done;
  (List.rev !samples, Clock.seconds_since t0)

(* --- the traced replay ------------------------------------------------------------ *)

type replayed = {
  r_cls : cls;
  stats : Engine.stats;
  report : Planner.report option;  (** When the replay planned. *)
  alloc_words : float;
  cpu_s : float;  (** Process CPU over Engine.run, all domains. *)
  run_s : float;
}

let process_cpu () = Int64.to_float (Clock.cpu_ns ()) /. 1e9

(* The facade's planner-configuration signature is private; the digest's
   cost lies in marshalling the query, which this stand-in leaves as is. *)
let fingerprint_config = "default"

(* The steps the facade takes for [r], one layer call per span. A cached ad
   hoc request replays the miss path: the text of an ad hoc request is
   almost never seen twice. *)
let replay sp ~workers s r =
  let g = Gopt.Session.graph s in
  let plan ast =
    let logical =
      Spans.record sp "lang.lower" (fun () -> Lowering.cypher (Gopt.Session.schema s) ast)
    in
    Spans.record sp "opt.plan" (fun () ->
        Planner.plan (Planner.default_config ()) (Gopt.Session.estimator s) logical)
  in
  let fingerprint ast =
    ignore
      (Spans.record sp "cache.fingerprint" (fun () ->
           Fingerprint.digest ~config:fingerprint_config ~epoch:(Gopt.Session.stats_epoch s) ast))
  in
  let bind params p = Spans.record sp "exec.bind" (fun () -> Physical.bind_params params p) in
  let physical, bound, report =
    match r.path with
    | Uncached text ->
      let ast = Spans.record sp "lang.parse" (fun () -> Parser.parse text) in
      let p, rep = plan ast in
      (p, p, Some rep)
    | Cached text ->
      let ast = Spans.record sp "lang.parse" (fun () -> Parser.parse ~defer_params:true text) in
      fingerprint ast;
      let p, rep = plan ast in
      (p, bind [] p, Some rep)
    | Stmt st ->
      fingerprint st.ast;
      (st.physical, bind st.params st.physical, None)
  in
  let cpu0 = process_cpu () and a0 = Gc.allocated_bytes () in
  let (batch, stats), run_s =
    Clock.time Clock.Wall (fun () -> Spans.record sp "exec.run" (fun () -> Engine.run ?workers ~budget g bound))
  in
  let alloc_words = (Gc.allocated_bytes () -. a0) /. float_of_int (Sys.word_size / 8) in
  ((batch, physical), { r_cls = r.cls; stats; report; alloc_words; cpu_s = process_cpu () -. cpu0; run_s })

(* A traced request: the facade call, timed as in the untraced run, and its
   layer-by-layer replay, in alternating order so neither always finds warm
   caches. The replay must return what the facade returned. *)
let traced_exec sp ~workers s replays n r =
  Spans.set_request sp n;
  let facade () = run_facade ~wrap:(Spans.record sp "core.facade") ~workers s r in
  let replay () =
    match Spans.record sp "core.request" (fun () -> replay sp ~workers s r) with
    | (batch, physical), rep ->
      replays := rep :: !replays;
      Ok { canon = Rc.canonical batch; physical }
    | exception e -> Error e
  in
  let (fo, dt), ro =
    if n mod 2 = 0 then
      let f = facade () in
      (f, replay ())
    else
      let ro = replay () in
      (facade (), ro)
  in
  match (fo, ro) with
  | Ok f, Ok o ->
    let rule = Rc.weaker (Rc.rule_of_plan f.physical) (Rc.rule_of_plan o.physical) in
    if Rc.agree rule f.canon o.canon then (Ok f, dt)
    else (Error (Failure "the layer-by-layer replay differs from the facade"), dt)
  | Error e, _ | _, Error e -> (Error e, dt)

(* --- metrics ------------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* Empty sample sets report 0: the layer did no such work in this
   workload. *)
let median_or_zero = function [] -> 0.0 | xs -> Stats.median xs
let mean_or_zero = function [] -> 0.0 | xs -> Stats.mean xs
let ratio a b = if b > 0.0 then a /. b else 0.0

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let ms = List.map (fun s -> s.s_lat *. 1e3)

(* Each item (a query or a pair's request in one class) runs once a pass;
   its latency is its fastest run. Another tenant of the host only ever
   adds time, so the fastest run is the steadiest estimate of the item's
   cost (Chen and Revels, "Robust benchmarking in noisy environments",
   2016): on a shared 2-vCPU VM a fixed CPU loop's median moved by 40%
   between 20-second windows and its fastest time by 12%. *)
let best_per_item samples =
  let best = Hashtbl.create 512 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt best s.s_item with
      | Some b when b.s_lat <= s.s_lat -> ()
      | _ -> Hashtbl.replace best s.s_item s)
    samples;
  List.sort compare (Hashtbl.fold (fun _ b acc -> b :: acc) best [])

(* The time metrics (CPU time on one worker).

   qps is items over the sum of their fastest latencies: the throughput of
   a pass in which every item ran at its fastest, not the requests a run
   completed per second. It follows the same per-item minima as the other
   time metrics and leaves out the time the client spends checking
   results.

   A query's latency in a class is the geometric mean over its items: one
   item on analytic, one per person on interactive. The class medians are
   taken over these query latencies, so each query weighs the same. Taken
   over all interactive items instead, the median falls between the items
   of two templates and follows the few persons the seed drew there. *)
let time_metrics ~samples =
  let items = best_per_item samples in
  let groups = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add groups (s.s_qi, s.s_cls) (s.s_lat *. 1e3)) items;
  let query_latencies =
    List.sort_uniq compare (Hashtbl.fold (fun k _ acc -> k :: acc) groups [])
    |> List.map (fun k -> (snd k, Stats.geomean (Hashtbl.find_all groups k)))
  in
  let class_median c =
    Stats.median (List.filter_map (fun (c', x) -> if c' = c then Some x else None) query_latencies)
  in
  [
    m "qps" "1/s" (float_of_int (List.length items) /. List.fold_left (fun a s -> a +. s.s_lat) 0.0 items);
    m "query_geomean_ms" "ms" (Stats.geomean (List.map snd query_latencies));
    m "prepared_p50_ms" "ms" (class_median Prepared);
    m "adhoc_p50_ms" "ms" (class_median Adhoc);
  ]

let end_to_end ~setup_times ~samples =
  (m "setup_s" "s" (Stats.median setup_times) :: time_metrics ~samples)
  @ [ m "heap_peak_mb" "MB" (heap_peak_mb ()) ]

(* Percentiles over every request of the mix, not per item. They are
   printed but carry no regression bound: the mix is a few clusters
   (prepared and ad hoc, light and heavy templates), these percentiles fall
   between them, and between runs of the same code they moved by a quarter,
   more than any bound allows. *)
let mix_percentiles ~samples =
  let lat = ms samples in
  [ m "latency_p50_ms" "ms" (Stats.quantile lat 0.5); m "latency_p90_ms" "ms" (Stats.quantile lat 0.9) ]

let op_kinds =
  [ "Scan"; "ExpandAll"; "ExpandInto"; "ExpandIntersect"; "HashJoin"; "AllDistinct"; "Group"; "Order" ]

(* An operator's kind is the leading word of its trace label, as in
   "ExpandAll(...)"; exchange and worker nodes of parallel runs carry
   other words and only group the operators under them. *)
let kind_of label =
  let n = String.length label in
  let rec stop i =
    if i < n && (match label.[i] with 'A' .. 'Z' | 'a' .. 'z' -> true | _ -> false) then stop (i + 1)
    else i
  in
  String.sub label 0 (stop 0)

let rec iter_trace f (tr : Op_trace.t) =
  f tr;
  List.iter (iter_trace f) tr.Op_trace.children

let per_layer ~workers ~spans ~replays ~cache0 ~cache1 ~glogue_entries =
  let w = Option.value workers ~default:1 in
  (* Op_trace and the kernel clock measure CPU time, which sums over all
     domains: report those only for one worker *)
  let cpu_valid = w = 1 in
  let selfs = Spans.self_times spans in
  let durs name =
    List.filter_map (fun (sp : Spans.span) -> if sp.name = name then Some (Spans.duration_ns sp) else None) spans
  in
  let med name scale = median_or_zero (List.map (fun d -> d /. scale) (durs name)) in
  let sum name = List.fold_left ( +. ) 0.0 (durs name) in
  let run_ms c =
    median_or_zero (List.filter_map (fun r -> if r.r_cls = c then Some (r.run_s *. 1e3) else None) replays)
  in
  (* facade latency minus the self time of every layer span of the replay *)
  let layer_self = Hashtbl.create 1024 in
  List.iter
    (fun ((sp : Spans.span), self) ->
      if sp.request >= 0 && sp.name <> "core.facade" && sp.name <> "core.request" then
        Hashtbl.replace layer_self sp.request
          (self +. Option.value (Hashtbl.find_opt layer_self sp.request) ~default:0.0))
    selfs;
  let unattributed =
    List.filter_map
      (fun (sp : Spans.span) ->
        if sp.name = "core.facade" then
          Some
            ((Spans.duration_ns sp -. Option.value (Hashtbl.find_opt layer_self sp.request) ~default:0.0)
            /. 1e6)
        else None)
      spans
  in
  let planned = List.filter_map (fun r -> r.report) replays in
  let per_plan f = mean_or_zero (List.map (fun r -> float_of_int (f r)) planned) in
  let cbo f =
    per_plan (fun r -> List.fold_left (fun acc st -> acc + f st) 0 r.Planner.search_stats)
  in
  let per_run f = mean_or_zero (List.map (fun r -> float_of_int (f r.stats)) replays) in
  let trace_sum f =
    mean_or_zero
      (List.map
         (fun r ->
           let acc = ref 0.0 in
           Option.iter (iter_trace (fun tr -> acc := !acc +. f tr)) r.stats.Engine.op_trace;
           !acc)
         replays)
  in
  let of_kind k f tr = if kind_of tr.Op_trace.name = k then f tr else 0.0 in
  let sum_replays f = List.fold_left (fun acc r -> acc +. f r) 0.0 replays in
  let run_wall = sum_replays (fun r -> r.run_s) in
  let ad_in = trace_sum (of_kind "AllDistinct" (fun tr -> float_of_int tr.Op_trace.rows_in)) in
  let ad_out = trace_sum (of_kind "AllDistinct" (fun tr -> float_of_int tr.Op_trace.rows_out)) in
  let lookups c = float_of_int (c.Plan_cache.hits + c.Plan_cache.misses) in
  let facade_s = sum "core.facade" in
  [
    m "workloads.generate_s" "s" (med "workloads.generate" 1e9);
    m "glogue.build_s" "s" (med "glogue.build" 1e9);
    m "glogue.histograms_s" "s" (med "glogue.histograms" 1e9);
    m "glogue.entries" "count" (float_of_int glogue_entries);
    m "lang.parse_us" "us" (med "lang.parse" 1e3);
    m "lang.lower_us" "us" (med "lang.lower" 1e3);
    m "cache.fingerprint_us" "us" (med "cache.fingerprint" 1e3);
    m "cache.hit_ratio" "ratio"
      (ratio (float_of_int (cache1.Plan_cache.hits - cache0.Plan_cache.hits)) (lookups cache1 -. lookups cache0));
    m "cache.evictions" "1/request"
      (ratio
         (float_of_int (cache1.Plan_cache.evictions - cache0.Plan_cache.evictions))
         (float_of_int (List.length (durs "core.facade"))));
    m "opt.plan_ms" "ms" (med "opt.plan" 1e6);
    m "opt.plan_share" "ratio" (ratio (sum "opt.plan") facade_s);
    m "opt.cbo_nodes_searched" "count" (cbo (fun st -> st.Cbo.nodes_searched));
    m "opt.cbo_candidates_pruned" "count" (cbo (fun st -> st.Cbo.candidates_pruned));
    m "opt.cbo_memo_hits" "count" (cbo (fun st -> st.Cbo.memo_hits));
    m "opt.rules_applied" "count" (per_plan (fun r -> List.length r.Planner.rules_applied));
    m "exec.run_ms" "ms" (med "exec.run" 1e6);
    m "exec.prepared_run_ms" "ms" (run_ms Prepared);
    m "exec.adhoc_run_ms" "ms" (run_ms Adhoc);
    m "exec.bind_us" "us" (med "exec.bind" 1e3);
    m "exec.intermediate_rows" "count" (per_run (fun st -> st.Engine.intermediate_rows));
    m "exec.edges_touched" "count" (per_run (fun st -> st.Engine.edges_touched));
    m "exec.peak_rows" "count" (per_run (fun st -> st.Engine.peak_rows));
    m "exec.rows_per_s" "1/s"
      (ratio (sum_replays (fun r -> float_of_int r.stats.Engine.intermediate_rows)) run_wall);
    m "exec.alloc_mwords" "Mword"
      (if cpu_valid then mean_or_zero (List.map (fun r -> r.alloc_words /. 1e6) replays) else 0.0);
    m "exec.kernel_ms" "ms"
      (if cpu_valid then trace_sum (fun tr -> tr.Op_trace.kernel_ns /. 1e6) else 0.0);
    m "exec.kernel_rows_selected" "count" (trace_sum (fun tr -> float_of_int tr.Op_trace.rows_selected));
  ]
  @ List.concat_map
      (fun k ->
        [
          m ("exec.op." ^ k ^ ".rows_out") "count"
            (trace_sum (of_kind k (fun tr -> float_of_int tr.Op_trace.rows_out)));
          m ("exec.op." ^ k ^ ".cpu_ms") "ms"
            (if cpu_valid then trace_sum (of_kind k (fun tr -> tr.Op_trace.time_s *. 1e3)) else 0.0);
        ])
      op_kinds
  @ [
      m "exec.alldistinct_pass_ratio" "ratio" (ratio ad_out ad_in);
      m "core.unattributed_ms" "ms" (median_or_zero unattributed);
      m "trace.overhead_frac" "ratio" (ratio (sum "core.request" -. facade_s) facade_s);
    ]
  (* the exchange only runs with more than one worker *)
  @
  if w = 1 then []
  else
    [
      m "exec.exchange_rows" "count" (per_run (fun st -> st.Engine.exchange_rows));
      m "exec.exchange_cells" "count" (per_run (fun st -> st.Engine.exchange_cells));
      m "exec.workers_used" "count" (per_run (fun st -> st.Engine.workers_used));
      m "exec.cpu_util" "ratio" (ratio (sum_replays (fun r -> r.cpu_s)) (run_wall *. float_of_int w));
    ]

(* --- output ----------------------------------------------------------------------- *)

let json_number v = Printf.sprintf "%.12g" v

let print_result ~correct metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    tally.attempted tally.failed body

let out_dir = "perfbench-out"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " analytic | analytic-w2 | interactive");
      ("--seed", Arg.Set_int seed, " seed of every random draw: query order, persons, oracle sample");
      ("--seconds", Arg.Set_float seconds, " length of the timed loop");
      ("--trace", Arg.Set_int trace, " 1: replay each request layer by layer, report per-layer metrics");
    ]
    (fun a -> die "unexpected argument %S" a)
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let wl = workload_of_name !workload in
  let workers = workers_of wl in
  let sp = if !trace = 1 then Some (Spans.create ()) else None in
  let s, setup_times = setup ?sp () in
  let stream =
    match wl with
    | Analytic workers -> analytic_stream ~seed:!seed ~workers s
    | Interactive -> interactive_stream ~seed:!seed s
  in
  let cache0 = Gopt.Session.plan_cache_stats s in
  let replays = ref [] in
  let exec =
    match sp with
    | None -> fun _ r -> run_facade ~workers s r
    | Some sp -> traced_exec sp ~workers s replays
  in
  let samples, elapsed = run_loop ~seconds:!seconds ~stream ~exec in
  let metrics =
    match sp with
    | None -> end_to_end ~setup_times ~samples
    | Some sp ->
      let spans = Spans.spans sp in
      (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
      Spans.write_jsonl
        (Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" !workload !seed))
        spans;
      per_layer ~workers ~spans ~replays:!replays ~cache0
        ~cache1:(Gopt.Session.plan_cache_stats s)
        ~glogue_entries:(Gopt_glogue.Glogue.n_entries (Gopt.Session.glogue s))
  in
  let n = List.length samples in
  let g = Gopt.Session.graph s in
  Printf.printf
    "workload %s  seed %d  graph %d vertices %d edges  %d requests (%d items) in %.2f s  failed_frac %s (%d of %d)\n"
    !workload !seed (G.n_vertices g) (G.n_edges g) n (List.length (best_per_item samples)) elapsed
    (json_number (ratio (float_of_int tally.failed) (float_of_int tally.attempted)))
    tally.failed tally.attempted;
  (match Stats.highest_percentile n with
  | Some pm -> Printf.printf "highest percentile with ten samples beyond it: p%g\n" (float_of_int pm /. 10.)
  | None -> Printf.printf "fewer than twenty samples: no percentile beyond the median is supported\n");
  let row x = Printf.printf "  %-32s %14s %s\n" x.name (json_number x.value) x.unit in
  List.iter row metrics;
  if sp = None && n > 0 then begin
    Printf.printf "printed only, no bound:\n";
    List.iter row (mix_percentiles ~samples)
  end;
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  print_result ~correct:(finite && tally.failed = 0 && n > 0) metrics

(* gopt — run Cypher/Gremlin queries against generated graphs from the
   command line.

   Examples:
     dune exec bin/gopt_cli.exe -- --stats
     dune exec bin/gopt_cli.exe -- "MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN count(*) AS c"
     dune exec bin/gopt_cli.exe -- --lang gremlin "g.V().hasLabel('Person').out('KNOWS').count()"
     dune exec bin/gopt_cli.exe -- --planner cypher --explain "MATCH ... RETURN ..."
     dune exec bin/gopt_cli.exe -- --workload IC5 *)

open Cmdliner

module Diag = Gopt_check.Diagnostic

(* Static analysis of one query: frontend checks (parse/lower/Plan_check),
   then — when the frontend is clean — the full checked planning pipeline
   (every rule firing verified, every stage re-checked). *)
let lint_query session config lang src =
  let front =
    match lang with
    | "gremlin" -> Gopt.check_gremlin session src
    | _ -> Gopt.check_cypher session src
  in
  let staged =
    if not (Diag.is_clean front) then []
    else begin
      let config = { config with Gopt_opt.Planner.check_plans = true } in
      let gir =
        match lang with
        | "gremlin" -> Gopt.gremlin_to_gir session src
        | _ -> Gopt.cypher_to_gir session src
      in
      match
        Gopt_opt.Planner.plan config (Gopt.Session.estimator session) gir
      with
      | _, report ->
        List.concat_map
          (fun (stage, ds) ->
            (* the "logical" stage re-checks the same GIR the frontend just
               reported on — skip the duplicate *)
            if stage = "logical" then []
            else List.map (fun d -> Diag.{ d with path = stage ^ "/" ^ d.path }) ds)
          report.Gopt_opt.Planner.diagnostics
      | exception Gopt_opt.Rule.Check_failed { rule; diag } ->
        [
          Diag.errorf ~path:("rbo/" ^ diag.Diag.path)
            "rule %S broke a plan invariant: %s" rule diag.Diag.message;
        ]
      | exception Invalid_argument m -> [ Diag.error ~path:"plan" m ]
    end
  in
  front @ staged

let named =
  Gopt_workloads.Queries.comprehensive @ Gopt_workloads.Queries.qr
  @ Gopt_workloads.Queries.qt @ Gopt_workloads.Queries.qc

(* the named workload query, or an error listing the known names (exit 2) *)
let find_workload name =
  match List.find_opt (fun q -> q.Gopt_workloads.Queries.name = name) named with
  | Some q -> q
  | None ->
    Printf.eprintf "gopt: unknown workload %S; known names: %s\n" name
      (String.concat ", " (List.map (fun q -> q.Gopt_workloads.Queries.name) named));
    exit 2

let run_lint session config lang workload query =
  let targets =
    match (workload, query) with
    | Some name, _ ->
      let q = find_workload name in
      [ (q.Gopt_workloads.Queries.name, q.Gopt_workloads.Queries.cypher) ]
    | None, Some q -> [ ("query", q) ]
    | None, None ->
      List.map
        (fun q -> (q.Gopt_workloads.Queries.name, q.Gopt_workloads.Queries.cypher))
        named
  in
  let n_errors = ref 0 in
  List.iter
    (fun (name, src) ->
      let diags = lint_query session config lang src in
      n_errors := !n_errors + List.length (Diag.errors diags);
      if diags = [] then Printf.printf "%-16s clean\n" name
      else begin
        Printf.printf "%-16s %d error(s), %d warning(s)\n" name
          (List.length (Diag.errors diags))
          (List.length diags - List.length (Diag.errors diags));
        print_endline (Gopt.render_diagnostics diags)
      end)
    targets;
  Printf.printf "-- linted %d quer%s, %d error(s)\n" (List.length targets)
    (if List.length targets = 1 then "y" else "ies")
    !n_errors;
  if !n_errors > 0 then 1 else 0

let run_main dataset persons accounts seed lang planner backend workers chunk_size
    no_vectorize explain analyze stats_only lint workload repeat cache_stats load save
    query =
  (* reject an unknown workload name before generating the graph *)
  Option.iter (fun name -> ignore (find_workload name)) workload;
  let graph =
    match load with
    | Some path -> Gopt_graph.Graph_io.load path
    | None -> (
      match dataset with
      | "ldbc" -> Gopt_workloads.Ldbc.generate ~seed ~persons ()
      | "transfer" -> Gopt_workloads.Transfer_graph.generate ~seed ~accounts ()
      | other -> failwith (Printf.sprintf "unknown dataset %S (ldbc|transfer)" other))
  in
  (match save with
  | Some path ->
    Gopt_graph.Graph_io.save graph path;
    Printf.printf "graph saved to %s\n" path
  | None -> ());
  if stats_only then begin
    Format.printf "%a@." Gopt_graph.Property_graph.pp_stats graph;
    0
  end
  else begin
    let session = Gopt.Session.create graph in
    let spec =
      match backend with
      | "graphscope" -> Gopt_opt.Physical_spec.graphscope
      | "neo4j" -> Gopt_opt.Physical_spec.neo4j
      | other -> failwith (Printf.sprintf "unknown backend %S (graphscope|neo4j)" other)
    in
    let config =
      match planner with
      | "gopt" -> Gopt_opt.Baselines.gopt_config spec
      | "cypher" -> Gopt_opt.Baselines.cypher_planner_config
      | "gsrbo" -> Gopt_opt.Baselines.gs_rbo_config
      | other -> failwith (Printf.sprintf "unknown planner %S (gopt|cypher|gsrbo)" other)
    in
    if lint then run_lint session config lang workload query
    else begin
    let query =
      match workload, query with
      | Some name, _ ->
        let q = find_workload name in
        Printf.printf "-- %s: %s\n%s\n\n" q.Gopt_workloads.Queries.name
          q.Gopt_workloads.Queries.description q.Gopt_workloads.Queries.cypher;
        q.Gopt_workloads.Queries.cypher
      | None, Some q -> q
      | None, None -> failwith "provide a query or --workload NAME (or --stats)"
    in
    if explain then begin
      print_endline (Gopt.explain_cypher ~config session query);
      0
    end
    else begin
      let workers = if workers <= 0 then None else Some workers in
      let vectorize = not no_vectorize in
      let run () =
        match lang with
        | "cypher" -> Gopt.run_cypher ~config ?chunk_size ?workers ~vectorize session query
        | "gremlin" ->
          Gopt.run_gremlin ~config ?chunk_size ?workers ~vectorize session query
        | other -> failwith (Printf.sprintf "unknown language %S (cypher|gremlin)" other)
      in
      let t0 = Sys.time () in
      let out = run () in
      let dt = Sys.time () -. t0 in
      (* Repetitions after the first run through the session plan cache:
         [dt] above is the cold (optimize + execute) time, [warm] the
         amortized per-execution time. *)
      let warm =
        if repeat <= 1 then None
        else begin
          let t1 = Sys.time () in
          for _ = 2 to repeat do
            ignore (run ())
          done;
          Some ((Sys.time () -. t1) /. float_of_int (repeat - 1))
        end
      in
      Format.printf "%a@." (Gopt_exec.Batch.pp graph) out.Gopt.result;
      Printf.printf "-- %d rows in %.3fs cpu; %d intermediate rows; %d edges touched\n"
        (Gopt_exec.Batch.n_rows out.Gopt.result)
        dt out.Gopt.exec_stats.Gopt_exec.Engine.intermediate_rows
        out.Gopt.exec_stats.Gopt_exec.Engine.edges_touched;
      (match warm with
      | Some w ->
        Printf.printf "-- repeat %d: cold %.3fs, warm %.4fs/run (plan cached)\n" repeat
          dt w
      | None -> ());
      if out.Gopt.exec_stats.Gopt_exec.Engine.workers_used > 1 then
        Printf.printf "-- %d workers; %d exchange rows (%d cells)\n"
          out.Gopt.exec_stats.Gopt_exec.Engine.workers_used
          out.Gopt.exec_stats.Gopt_exec.Engine.exchange_rows
          out.Gopt.exec_stats.Gopt_exec.Engine.exchange_cells;
      if cache_stats then begin
        let st = Gopt.Session.plan_cache_stats session in
        Printf.printf
          "-- plan cache: %d/%d entries; %d hits, %d misses, %d evictions, %d \
           invalidations (epoch %d)\n"
          st.Gopt_cache.Plan_cache.entries st.Gopt_cache.Plan_cache.capacity
          st.Gopt_cache.Plan_cache.hits st.Gopt_cache.Plan_cache.misses
          st.Gopt_cache.Plan_cache.evictions st.Gopt_cache.Plan_cache.invalidations
          (Gopt.Session.stats_epoch session)
      end;
      if analyze then begin
        print_endline
          "-- per-operator trace (rows in/out, self cpu time; kernel: rows selected \
           by vectorized kernels and kernel cpu time):";
        print_endline (Gopt.render_trace out)
      end;
      0
    end
    end
  end

let dataset = Arg.(value & opt string "ldbc" & info [ "dataset" ] ~doc:"ldbc or transfer")
let persons = Arg.(value & opt int 800 & info [ "persons" ] ~doc:"LDBC scale (persons)")
let accounts = Arg.(value & opt int 8000 & info [ "accounts" ] ~doc:"transfer-graph scale")
let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"generator seed")
let lang = Arg.(value & opt string "cypher" & info [ "lang" ] ~doc:"cypher or gremlin")
let planner = Arg.(value & opt string "gopt" & info [ "planner" ] ~doc:"gopt, cypher or gsrbo")
let backend =
  Arg.(value & opt string "graphscope" & info [ "backend" ] ~doc:"graphscope or neo4j")
let workers =
  Arg.(
    value & opt int 0
    & info [ "workers" ]
        ~doc:
          "execute on the morsel-driven parallel engine with $(docv) OCaml domains \
           (0 = sequential pipeline). Results are deterministic across worker counts; \
           speedup requires a multi-core machine")
let chunk_size =
  Arg.(
    value
    & opt (some int) None
    & info [ "chunk-size" ] ~doc:"pipelined batch granularity in rows (default 1024)")
let no_vectorize =
  Arg.(
    value & flag
    & info [ "no-vectorize" ]
        ~doc:
          "evaluate predicates and projections with the row-at-a-time interpreter \
           instead of the columnar expression kernels (the benchmark baseline; \
           results are identical)")
let explain = Arg.(value & flag & info [ "explain" ] ~doc:"show plans instead of executing")
let analyze =
  Arg.(value & flag & info [ "analyze" ] ~doc:"after executing, print the per-operator trace (EXPLAIN ANALYZE)")
let stats_only = Arg.(value & flag & info [ "stats" ] ~doc:"print dataset statistics and exit")
let lint =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "statically check queries instead of executing: parse/lowering failures, \
           undefined variables, schema mismatches, plan invariants at every optimizer \
           stage. Lints the given QUERY (or --workload), or every workload query when \
           none is given; exits 1 if any error is reported")
let workload =
  Arg.(value & opt (some string) None & info [ "workload" ] ~doc:"run a named workload query (IC1..BI18, QR, QT, QC)")
let repeat =
  Arg.(
    value & opt int 1
    & info [ "repeat" ]
        ~doc:
          "execute the query $(docv) times through the session plan cache and report \
           cold vs amortized (warm) per-run time")
let cache_stats =
  Arg.(
    value & flag
    & info [ "cache-stats" ]
        ~doc:"after executing, print the session plan-cache counters")
let load_file =
  Arg.(value & opt (some string) None & info [ "load" ] ~doc:"load the graph from a file instead of generating")
let save_file =
  Arg.(value & opt (some string) None & info [ "save" ] ~doc:"save the (generated or loaded) graph to a file")
let query = Arg.(value & pos 0 (some string) None & info [] ~docv:"QUERY")

let cmd =
  let doc = "GOpt: modular graph-native query optimization (SIGMOD 2025 reproduction)" in
  Cmd.v
    (Cmd.info "gopt" ~doc)
    Term.(
      const run_main $ dataset $ persons $ accounts $ seed $ lang $ planner $ backend
      $ workers $ chunk_size $ no_vectorize $ explain $ analyze $ stats_only $ lint
      $ workload $ repeat $ cache_stats $ load_file $ save_file $ query)

let () = exit (Cmd.eval' cmd)

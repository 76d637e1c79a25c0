(* The traced run (--trace 1): where an operation's time goes.

   Phase 1 replays the workload's inputs in-process, alternating an
   untraced operation (parse + Pipeline.run + render, exactly what the
   inproc-lines workload times) with the same operation decomposed into
   the public calls Pipeline.run makes — allocation, delta application,
   obligation slicing, one Shard.run_task_guarded per task on a solver
   the benchmark owns, the partition check and the report rendering —
   each under a span.  Every decomposed report must equal Pipeline.run's
   bytes, and the spans must cover at least 90% of the decomposed
   operations' wall time.

   Phase 2 probes the layers phase 1 cannot reach in-process: planning
   and the Shard pool, a certified pass, the authenticated fleet, process
   start and the serve daemon.

   The decomposition builds Shard.result, Pipeline.outcome and
   Fleet.Spec.t values as record literals, so a field added to one of
   them in lib/ has to be added here too. *)

open Ops

let span = Trace.span

(* Pipeline.run's syntactic obligations per task; the task count of every
   decomposition is checked against Pipeline.plan_tasks. *)
let chunk_size = 8

let rec chunks l =
  match l with
  | [] -> []
  | _ ->
    let rec split n acc = function
      | x :: rest when n > 0 -> split (n - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let slice, rest = split chunk_size [] l in
    slice :: chunks rest

type counters = {
  mutable queries : int;
  mutable vars : int;
  mutable clauses : int;
  mutable decisions : int;
  mutable conflicts : int;
  mutable props : int;
}

let counters () = { queries = 0; vars = 0; clauses = 0; decisions = 0; conflicts = 0; props = 0 }

(* The key=value counters of a solver's printed statistics, whatever
   their order and whatever else it prints. *)
let stats solver =
  List.filter_map
    (fun kv ->
      match String.index_opt kv '=' with
      | Some i ->
        Option.map
          (fun v -> (String.sub kv 0 i, v))
          (int_of_string_opt (String.sub kv (i + 1) (String.length kv - i - 1)))
      | None -> None)
    (String.split_on_char ' ' (Fmt.str "%a" Smt.Solver.pp_stats solver))

(* Per-solver totals, read through the solver's public statistics. *)
let count c solver =
  let rr = Smt.Solver.retry_report solver in
  c.queries <- c.queries + rr.Smt.Solver.total_queries;
  let st = stats solver in
  let get k =
    match List.assoc_opt k st with
    | Some v -> v
    | None -> fail "solver statistics lack %s" k
  in
  c.vars <- c.vars + get "vars";
  c.clauses <- c.clauses + get "clauses";
  c.decisions <- c.decisions + get "decisions";
  c.conflicts <- c.conflicts + get "conflicts";
  c.props <- c.props + get "props";
  rr

type decomposed = {
  report : string;
  tasks : int;
  obligations : int;
  applied : int; (* deltas applied, over all products *)
  trees : T.t list; (* checked trees, for region counts *)
  certs : Smt.Solver.cert list;
}

(* A task's result, assembled from its solver's own reports as
   Pipeline.run assembles it. *)
let result ~certify c name solver findings =
  let rr = count c solver in
  let cr = Smt.Solver.cert_report solver in
  { Llhsc.Shard.product = name;
    findings;
    errors = [];
    queries = rr.Smt.Solver.total_queries;
    certs = (if certify then cr.Smt.Solver.certs else []);
    cert_failures = (if certify then cr.Smt.Solver.failures else []);
    retried = rr.Smt.Solver.retried }

(* One solver-owning task, built the way Pipeline.run builds its tasks. *)
let task ~certify c name check =
  { Llhsc.Shard.owner = name;
    run =
      (fun () ->
        let solver = span "smt.create" (fun () -> Smt.Solver.create ~certify ()) in
        let findings = check solver in
        span "smt.cert_report" (fun () -> result ~certify c name solver findings)) }

let decompose ~certify c (l : Gen.line) =
  let p = parse l in
  let requests = List.mapi (fun i sel -> Llhsc.Alloc.request (i + 1) sel) l.Gen.vms in
  let allocation =
    span "alloc" (fun () ->
        Llhsc.Alloc.allocate ~exclusive:l.Gen.exclusive p.model ~vms:(List.length l.Gen.vms)
          ~requests)
  in
  let specs, alloc_findings =
    match allocation with
    | Llhsc.Alloc.Rejected fs -> ([], fs)
    | Llhsc.Alloc.Allocated { vms; platform } ->
      (List.map (fun (vm, fs) -> (Printf.sprintf "vm%d" vm, fs)) vms @ [ ("platform", platform) ], [])
  in
  let planned =
    List.map
      (fun (name, features) ->
        let tree =
          span "delta.apply" (fun () ->
              Delta.Apply.generate ~core:p.core ~deltas:p.deltas ~selected:features)
        in
        let obls =
          span "syntactic.obligations" (fun () -> Llhsc.Syntactic.obligations ~schemas:p.schemas tree)
        in
        (name, features, tree, obls))
      specs
  in
  let tasks =
    List.concat_map
      (fun (name, _, tree, obls) ->
        List.map
          (fun slice ->
            task ~certify c name (fun solver ->
                span "syntactic.check_obligations" (fun () ->
                    Llhsc.Syntactic.check_obligations ~solver ~product:name slice)))
          (chunks obls)
        @ [ task ~certify c name (fun solver ->
                span "semantic.check" (fun () -> Llhsc.Semantic.check ~solver tree)) ])
      planned
  in
  let results = List.map (fun t -> span "shard.task" (fun () -> Llhsc.Shard.run_task_guarded t)) tasks in
  let tree_of name = List.find_map (fun (n, _, t, _) -> if n = name then Some t else None) planned in
  let partition =
    if planned = [] then []
    else
      [ span "partition.check" (fun () ->
            let solver = Smt.Solver.create ~certify () in
            let findings =
              Llhsc.Partition.check ~solver
                ~platform:(Option.value ~default:p.core (tree_of "platform"))
                (List.filter_map
                   (fun (n, _, t, _) -> if n = "platform" then None else Some (n, t))
                   planned)
            in
            result ~certify c "partition" solver findings) ]
  in
  (* Canonical merge: query numbers run through tasks in plan order, the
     partition check last. *)
  let offset = ref 0 in
  let merged =
    List.map
      (fun r ->
        let r = Llhsc.Shard.renumber ~offset:!offset r in
        offset := !offset + r.Llhsc.Shard.queries;
        r)
      (results @ partition)
  in
  let findings_of name =
    List.concat_map
      (fun r -> if r.Llhsc.Shard.product = name then r.Llhsc.Shard.findings else [])
      results
  in
  let delta_orders =
    span "delta.order" (fun () ->
        List.map (fun (name, features, _, _) -> (name, Delta.Apply.order ~selected:features p.deltas)) planned)
  in
  let certs = List.concat_map (fun r -> r.Llhsc.Shard.certs) merged in
  let outcome =
    { P.products =
        List.map (fun (name, features, tree, _) -> { P.name; features; tree; findings = findings_of name }) planned;
      alloc_findings;
      partition_findings = List.concat_map (fun r -> r.Llhsc.Shard.findings) partition;
      delta_orders;
      errors = [];
      cert =
        (if certify then
           Some
             { Smt.Solver.enabled = true;
               certs;
               failures = List.concat_map (fun r -> r.Llhsc.Shard.cert_failures) merged }
         else None);
      retry = None;
      replayed = [];
      journal_fault = None }
  in
  let report = span "report.render" (fun () -> Fmt.str "%a" P.pp_outcome outcome) in
  { report;
    tasks = List.length tasks;
    obligations = List.fold_left (fun acc (_, _, _, o) -> acc + List.length o) 0 planned;
    applied = List.fold_left (fun acc (_, o) -> acc + List.length o) 0 delta_orders;
    trees = List.map (fun (_, _, t, _) -> t) planned;
    certs }

let nodes tree = T.fold (fun _ _ n -> n + 1) tree 0

(* The open-loop sender used to probe the daemon: [n] `/v1/check`
   requests of the lines' core DTSs, request k due at t0 + k/rate whatever
   happened before it, at most two in flight.  Each response is judged
   into [t]; returns the p95 of how late requests were sent, in ms. *)
let probe_rate = 10.

let open_loop port set refs t ~n =
  let slots = 2 in
  let nlines = Array.length set in
  let t0 = now () +. 0.01 in
  let due k = t0 +. (float_of_int k /. probe_rate) in
  let inflight = ref [] and next = ref 0 and lags = ref [] in
  let chunk = Bytes.create 65536 in
  let finish (fd, k, buf) =
    Unix.close fd;
    let i = k mod nlines in
    let l = set.(i) in
    judge t ~what:(doc_name i) ~limit_ms:infinity ~latency_ms:(ms (now () -. due k)) ~products:1
      ~expected:l.Gen.check_expected
      ~expected_exit:(expected_exit l.Gen.check_expected)
      ~reference:refs.(i)
      (served (Proc.parse_response (Buffer.contents buf)))
  in
  while !next < n || !inflight <> [] do
    while List.length !inflight < slots && !next < n && due !next <= now () do
      let k = !next in
      incr next;
      lags := ms (now () -. due k) :: !lags;
      let fd = Proc.connect port in
      Proc.write_all fd (check_request (k mod nlines) set.(k mod nlines)) 0;
      inflight := (fd, k, Buffer.create 4096) :: !inflight
    done;
    let timeout =
      if !next < n && List.length !inflight < slots then Float.max 0. (due !next -. now ())
      else 0.05
    in
    let fds = List.map (fun (fd, _, _) -> fd) !inflight in
    match Unix.select fds [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      inflight :=
        List.filter
          (fun ((fd, k, buf) as c) ->
            if not (List.memq fd readable) then begin
              if now () -. due k > op_timeout then begin
                Unix.close fd;
                t.attempted <- t.attempted + 1;
                t.failed <- t.failed + 1;
                false
              end
              else true
            end
            else
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 | (exception Unix.Unix_error (Unix.ECONNRESET, _, _)) ->
                finish c;
                false
              | m ->
                Buffer.add_subbytes buf chunk 0 m;
                true)
          !inflight
  done;
  percentile 0.95 !lags

let run () =
  let wl = List.find (fun w -> w.wname = !arg_workload) workloads in
  let prep, set = setup wl in
  let certify = wl.kind = Pool in
  let nlines = Array.length set in
  let failed = ref 0 and attempted = ref 0 in
  let expect what reference got =
    incr attempted;
    if got <> reference then begin
      incr failed;
      Printf.eprintf "traced run: %s does not reproduce the reference report\n%!" what
    end
  in
  let node_count = Array.map (fun (l : Gen.line) -> nodes (T.of_source ~file:"core.dts" l.Gen.dts)) set in
  (* --- phase 1 --- *)
  let c = counters () in
  let traced_s = ref 0. and plain_s = ref 0. in
  let ops = ref 0 and products = ref 0 and nodes_total = ref 0 in
  let obligations = ref 0 and applied = ref 0 and bytes = ref 0 and regions = ref 0 in
  let alloc_bytes = ref 0. and minor = ref 0 and major = ref 0 in
  let all_certs = ref [] in
  let task_counts = Array.make nlines 0 in
  let region_counts = Array.make nlines (-1) in
  let untraced i =
    Trace.enabled := false;
    let s = now () in
    let r = run_pipeline ~certify set.(i) in
    plain_s := !plain_s +. (now () -. s);
    expect ("untraced " ^ set.(i).Gen.name) prep.line_refs.(i) r
  in
  let traced i =
    Trace.enabled := true;
    let g0 = Gc.quick_stat () and a0 = Gc.allocated_bytes () in
    let s = now () in
    let d = Trace.operation !ops (fun () -> decompose ~certify c set.(i)) in
    traced_s := !traced_s +. (now () -. s);
    let g1 = Gc.quick_stat () and a1 = Gc.allocated_bytes () in
    Trace.enabled := false;
    alloc_bytes := !alloc_bytes +. (a1 -. a0);
    minor := !minor + (g1.Gc.minor_collections - g0.Gc.minor_collections);
    major := !major + (g1.Gc.major_collections - g0.Gc.major_collections);
    incr ops;
    products := !products + Gen.products set.(i);
    nodes_total := !nodes_total + node_count.(i);
    obligations := !obligations + d.obligations;
    applied := !applied + d.applied;
    bytes := !bytes + String.length d.report;
    all_certs := List.rev_append d.certs !all_certs;
    task_counts.(i) <- d.tasks;
    if region_counts.(i) < 0 then
      region_counts.(i) <-
        List.fold_left (fun acc t -> acc + List.length (Llhsc.Semantic.collect_regions t)) 0 d.trees;
    regions := !regions + region_counts.(i);
    expect ("decomposed " ^ set.(i).Gen.name) prep.line_refs.(i) d.report
  in
  let t0 = now () in
  let pass = ref 0 in
  while !pass = 0 || now () -. t0 < !arg_seconds do
    for i = 0 to nlines - 1 do
      if !pass mod 2 = 0 then (untraced i; traced i) else (traced i; untraced i)
    done;
    incr pass
  done;
  let spans = Trace.spans () in
  let coverage = Trace.coverage spans in
  let self = Trace.self_by_name spans in
  let per_op x = x /. float_of_int !ops in
  let layer_ms names =
    per_op (ms (List.fold_left (fun acc n -> acc +. Option.value ~default:0. (Hashtbl.find_opt self n)) 0. names))
  in
  (* --- certificates: from phase 1 when the workload certifies, else from
     one certified pass over the lines --- *)
  let cert_ops, certs =
    if certify then (!ops, !all_certs)
    else (nlines, Array.to_list set |> List.concat_map (fun l -> (decompose ~certify:true (counters ()) l).certs))
  in
  let per_cert_op x = x /. float_of_int cert_ops in
  (* --- phase 2: planning and the Shard pool --- *)
  let plan_s = ref 0. and serial_s = ref 0. and pool_s = ref 0. in
  Array.iteri
    (fun i (l : Gen.line) ->
      let p = parse l in
      let s = now () in
      let tasks =
        P.plan_tasks ~exclusive:l.Gen.exclusive ~certify ~model:p.model ~core:p.core ~deltas:p.deltas
          ~schemas_for:(fun _ -> p.schemas) ~vm_requests:l.Gen.vms ()
      in
      plan_s := !plan_s +. (now () -. s);
      if task_counts.(i) <> Array.length tasks then
        fail "%s: decomposition made %d tasks, Pipeline.plan_tasks %d" l.Gen.name task_counts.(i)
          (Array.length tasks);
      let timed jobs acc =
        let s = now () in
        let results = Llhsc.Shard.run_tasks ~jobs tasks in
        acc := !acc +. (now () -. s);
        incr attempted;
        if Array.exists Option.is_none results then incr failed
      in
      timed 1 serial_s;
      timed 2 pool_s)
    set;
  let per_line x = ms x /. float_of_int nlines in
  (* --- the authenticated fleet, on plain (uncertified) runs --- *)
  write_file (secret_file ()) (Printf.sprintf "perfbench-%d\n" !arg_seed);
  let ready = ref [] and dispatch = ref [] and spec_bytes = ref 0 in
  Array.iteri
    (fun i (l : Gen.line) ->
      let reference = if certify then run_pipeline ~certify:false l else prep.line_refs.(i) in
      let code, out, r, elapsed, _ = fleet_op i l in
      dispatch := ms elapsed :: !dispatch;
      ready := ms r :: !ready;
      expect ("fleet " ^ l.Gen.name) reference out;
      if code <> expected_exit l.Gen.expected then incr failed;
      let d = line_dir i l in
      let spec =
        { Fleet.Spec.core = { Fleet.Spec.file = Filename.concat d "core.dts"; text = l.Gen.dts };
          deltas = { Fleet.Spec.file = Filename.concat d "board.deltas"; text = l.Gen.deltas };
          model = l.Gen.model;
          schemas = List.map snd l.Gen.schemas;
          files = [];
          vms = l.Gen.vms;
          exclusive = l.Gen.exclusive;
          certify = false;
          retry = None;
          max_conflicts = None;
          solver_timeout = None;
          unsound = None;
          skip = [] }
      in
      spec_bytes := !spec_bytes + String.length (Llhsc.Json.to_string (Fleet.Spec.to_wire spec)))
    set;
  (* --- process start and the serve daemon --- *)
  let start =
    List.init 15 (fun _ ->
        let s = now () in
        let ended, _ = Proc.run_capture ~timeout:op_timeout !arg_llhsc [ "--version" ] in
        if ended.Proc.code <> 0 then incr failed;
        incr attempted;
        ms (now () -. s))
  in
  let d = start_serve () in
  let healthz =
    List.init 20 (fun _ ->
        let s = now () in
        let status, _ = Proc.http ~timeout:op_timeout d.port (Proc.request_bytes ~meth:"GET" ~path:"/healthz" "") in
        incr attempted;
        if status <> 200 then incr failed;
        ms (now () -. s))
  in
  (* Each core DTS twice, through the CLI and through the daemon. *)
  let doc_exit i = expected_exit set.(i).Gen.check_expected in
  let cli =
    List.init (2 * nlines) (fun k ->
        let i = k mod nlines in
        let file = Filename.concat (line_dir i set.(i)) "core.dts" in
        let s = now () in
        let ended, out = Proc.run_capture ~timeout:op_timeout !arg_llhsc [ "check"; file ] in
        let t = ms (now () -. s) in
        if ended.Proc.code <> doc_exit i then incr failed;
        expect ("check " ^ file) (run_check ~file set.(i).Gen.dts) out;
        t)
  in
  let doc_refs = Array.mapi (fun i (l : Gen.line) -> run_check ~file:(doc_name i) l.Gen.dts) set in
  let via_serve =
    List.init (2 * nlines) (fun k ->
        let i = k mod nlines in
        let s = now () in
        let code, out = served (Proc.http ~timeout:op_timeout d.port (check_request i set.(i))) in
        let t = ms (now () -. s) in
        if code <> doc_exit i then incr failed;
        expect ("served " ^ doc_name i) doc_refs.(i) out;
        t)
  in
  let burst = tally () in
  let lag = open_loop d.port set doc_refs burst ~n:40 in
  attempted := !attempted + burst.attempted;
  failed := !failed + burst.failed + burst.mismatches;
  (* Requests the daemon shed, jobs that crashed or timed out: each must
     be zero on a healthy run, so they fail the run rather than being
     reported as metrics. *)
  let stats =
    match Llhsc.Json.parse (String.trim (snd (Proc.http ~timeout:op_timeout d.port (Proc.request_bytes ~meth:"GET" ~path:"/v1/stats" "")))) with
    | Ok j -> fun k -> Option.value ~default:0 (Option.bind (Llhsc.Json.member k j) Llhsc.Json.to_int)
    | Error _ -> fail "serve: unreadable /v1/stats"
  in
  stop_serve d;
  let health =
    [ ("shed", stats "shed_queue" + stats "shed_tenant" + stats "shed_drain");
      ("crashes", stats "crashes");
      ("timeouts", stats "timeouts") ]
  in
  List.iter
    (fun (k, v) ->
      if v <> 0 then begin
        failed := !failed + v;
        Printf.eprintf "serve: /v1/stats reports %d %s\n%!" v k
      end)
    health;
  write_file
    (work (Printf.sprintf "trace-%s.json" wl.wname))
    (Trace.to_json spans);
  let f = float_of_int in
  let metrics =
    [ ("devicetree.parse_ms", "ms", layer_ms [ "devicetree.parse" ]);
      ("devicetree.nodes", "count", per_op (f !nodes_total));
      ("featuremodel.parse_ms", "ms", layer_ms [ "featuremodel.parse" ]);
      ("delta.parse_ms", "ms", layer_ms [ "delta.parse" ]);
      ("schema.load_ms", "ms", layer_ms [ "schema.load" ]);
      ("alloc.ms", "ms", layer_ms [ "alloc" ]);
      ("delta.apply_ms", "ms", layer_ms [ "delta.apply" ]);
      ("delta.applied", "count", per_op (f !applied));
      ("schema.obligations", "count", per_op (f !obligations));
      ("schema.check_ms", "ms", layer_ms [ "syntactic.obligations"; "syntactic.check_obligations" ]);
      ("smt.queries", "count", per_op (f c.queries));
      ("sat.vars", "count", per_op (f c.vars));
      ("sat.clauses", "count", per_op (f c.clauses));
      ("sat.decisions", "count", per_op (f c.decisions));
      ("sat.conflicts", "count", per_op (f c.conflicts));
      ("sat.propagations", "count", per_op (f c.props));
      ("semantic.check_ms", "ms", layer_ms [ "semantic.check" ]);
      ("semantic.regions", "count", per_op (f !regions));
      ("partition.check_ms", "ms", layer_ms [ "partition.check" ]);
      ("cert.queries", "count", per_cert_op (f (List.length certs)));
      ("cert.steps", "count",
        per_cert_op (f (List.fold_left (fun a (x : Smt.Solver.cert) -> a + x.Smt.Solver.steps) 0 certs)));
      ("cert.replay_ms", "ms",
        per_cert_op (ms (List.fold_left (fun a (x : Smt.Solver.cert) -> a +. x.Smt.Solver.time) 0. certs)));
      ("report.render_ms", "ms", layer_ms [ "report.render" ]);
      ("report.bytes", "bytes", per_op (f !bytes));
      ("gc.alloc_mb_per_product", "MB", !alloc_bytes /. 1e6 /. f !products);
      ("gc.minor_collections", "count", per_op (f !minor));
      ("gc.major_collections", "count", per_op (f !major));
      ("pipeline.plan_ms", "ms", per_line !plan_s);
      ("shard.serial_ms", "ms", per_line !serial_s);
      ("shard.pool_ms", "ms", per_line !pool_s);
      ("fleet.port_ready_ms", "ms", median !ready);
      ("fleet.dispatch_ms", "ms", median !dispatch);
      ("fleet.spec_bytes", "bytes", f !spec_bytes /. f nlines);
      ("process.start_ms", "ms", median start);
      ("serve.healthz_ms", "ms", median healthz);
      ("serve.check_cli_ms", "ms", median cli);
      ("serve.overhead_ms", "ms", median via_serve -. median cli);
      ("bench.generator_lag_ms", "ms", lag);
      ("trace.coverage", "frac", coverage);
      ("trace.overhead_frac", "frac", (!traced_s /. !plain_s) -. 1.) ]
  in
  Printf.printf "{\"env\": {%s}, \"run\": {\"traced_ops\": %d, \"passes\": %d, \"spans\": %d, %s}}\n"
    (String.concat ", " (env_fields wl)) !ops !pass (List.length spans)
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"serve.%s\": %d" k v) health));
  let correct = !failed = 0 && coverage >= 0.9 in
  if coverage < 0.9 then Printf.eprintf "trace coverage %.3f is below 0.9\n%!" coverage;
  print_result ~correct ~attempted:(max 1 !attempted) ~failed:!failed metrics;
  correct

(* The end-to-end llhsc workflow (Fig. 2):

      feature model + per-VM requests
        └─ alloc checker (§IV-A) ─ completed products, platform product
      core DTS + delta modules
        └─ delta application per product (§III-B)
      generated DTSs
        └─ syntactic checker (§IV-B) + semantic checker (§IV-C)
      artifacts: checked VM DTSs + platform DTS (+ hypervisor configs,
      rendered by lib/bao from these trees)

   The check phase is sliced into independent tasks — fixed-size chunks of
   a product's syntactic obligations plus one semantic task per product —
   and every task runs on a fresh solver instance.  [?jobs] dispatches the
   task list across a supervised pool of forked workers (see {!Shard}:
   leases, deadlines, reassignment, respawn, rlimit guards); because the
   slicing, the per-task solvers and the canonical merge order are all
   independent of the job count AND of the crash/reassignment schedule, a
   [--jobs N] report is byte-identical to a sequential one even when
   workers are killed or hang mid-run.  The parent keeps everything
   stateful: allocation, delta
   application, the journal, and the cross-VM partition check (which needs
   every product's tree and runs after the merge barrier).

   Each phase runs under an isolation guard: an error while building or
   checking one product is converted to a diagnostic so the remaining
   products are still checked. *)

module T = Devicetree.Tree

type product = {
  name : string;            (* "vm1", "vm2", ..., "platform" *)
  features : string list;   (* the product's concrete features *)
  tree : T.t;
  findings : Report.finding list;
}

type outcome = {
  products : product list;
  alloc_findings : Report.finding list;
  partition_findings : Report.finding list; (* cross-VM checks *)
  delta_orders : (string * string list) list; (* product -> application order *)
  errors : Diag.t list; (* per-phase failures that did not abort the run *)
  cert : Smt.Solver.cert_report option; (* Some iff the run certified *)
  retry : Smt.Solver.retry_report option; (* Some iff a retry policy ran *)
  replayed : string list; (* products whose verdicts came from the journal *)
  journal_fault : string option; (* journal degraded mid-run: reason *)
}

let ok outcome =
  outcome.errors = []
  && Report.is_clean outcome.alloc_findings
  && Report.is_clean outcome.partition_findings
  && List.for_all (fun p -> Report.is_clean p.findings) outcome.products
  && (match outcome.cert with
     | Some r -> r.Smt.Solver.failures = []
     | None -> true)

(* Run [f] with per-phase isolation: a known error becomes a diagnostic
   prefixed with [what], the solver's scope stack (when one is involved)
   is rebalanced — a failing phase may die between push and pop — and
   [fallback] stands in for the result.  Unknown exceptions still
   propagate. *)
let guarded ?solver ~errors ~what ~fallback f =
  let depth =
    match solver with Some s -> Smt.Solver.num_scopes s | None -> 0
  in
  try f ()
  with e -> (
    match Diag.of_exn e with
    | None -> raise e
    | Some d ->
      (match solver with
       | Some s ->
         while Smt.Solver.num_scopes s > depth do
           Smt.Solver.pop s
         done
       | None -> ());
      errors := { d with Diag.message = what ^ ": " ^ d.Diag.message } :: !errors;
      fallback)

(* Syntactic obligations per task.  Fixed — independent of the job count —
   so the task list (and with it every solver-local query numbering) is
   the same whether the run is sequential or sharded.  Small enough that
   the dominant product's obligations spread across all workers; large
   enough that per-task solver setup stays in the noise. *)
let syn_chunk_size = 8

let chunks size l =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if n = size then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 l

(* What the parent decided about one product before the task phase. *)
type plan =
  | Done of product
      (* no solver work: degraded, failed in delta application, or (on a
         fleet worker) replayed by the dispatcher *)
  | Checked of {
      p : product; (* findings still empty *)
      first : int; (* index of the product's first task *)
      count : int; (* its number of tasks (syntactic chunks + semantic) *)
    }
  | Recorded of { p : product; results : Shard.result list }
      (* every task's result is in the resume journal: no tasks at all *)

let fresh_solver ~certify ~budget ~retry ~unsound () =
  let s = Smt.Solver.create ~certify () in
  Smt.Solver.set_budget s budget;
  Smt.Solver.set_escalation s retry;
  Option.iter (Smt.Solver.inject_unsoundness s) unsound;
  s

(* A task's result as its solver left it; the partition check, which runs
   in the parent, assembles its result the same way. *)
let task_result ~certify ~name solver ~findings ~errors =
  let rr = Smt.Solver.retry_report solver in
  let cr = Smt.Solver.cert_report solver in
  { Shard.product = name;
    findings;
    errors;
    queries = rr.Smt.Solver.total_queries;
    certs = (if certify then cr.Smt.Solver.certs else []);
    cert_failures = (if certify then cr.Smt.Solver.failures else []);
    retried = rr.Smt.Solver.retried }

type planned =
  | Plan_rejected of Report.finding list (* allocation said no *)
  | Planned of {
      plans : plan list;
      tasks : Shard.task array;
      keys : (string * int) array; (* per task: its journal (hash, ordinal) *)
      resolved : (int * Shard.result) list; (* tasks whose result was recorded *)
    }

(* The planning phase, shared between [run] (local, journal-aware) and
   [plan_tasks] (a remote fleet worker rebuilding the dispatcher's task
   array from shipped inputs).  Everything here is a deterministic
   function of the run inputs plus [skip]/[recorded]: allocation, delta
   application, obligation slicing and the per-task solver construction
   never look at the clock, the host, or the job count — which is what
   lets a worker on another machine produce tasks (and so results)
   identical to the dispatcher's own.

   [recorded ~hash ~ordinal] is the resume journal's result for one task.
   A product whose every task is recorded gets no tasks; [skip] is how
   the dispatcher tells a worker which products those are, so the worker
   plans them as [Done] without needing the journal itself. *)
let plan_all ~exclusive ~budget ~certify ~retry ~unsound ~inputs_hash ~recorded
    ~skip ~errors ~model ~core ~deltas ~schemas_for ~vm_requests =
  let vms = List.length vm_requests in
  let requests =
    List.mapi (fun i selected -> Alloc.request (i + 1) selected) vm_requests
  in
  match
    guarded ~errors ~what:"allocation" ~fallback:(Alloc.Rejected []) (fun () ->
        Alloc.allocate ~exclusive model ~vms ~requests)
  with
  | Alloc.Rejected findings -> Plan_rejected findings
  | Alloc.Allocated { vms = completed; platform } ->
    let specs =
      List.map
        (fun (vm, features) -> (Printf.sprintf "vm%d" vm, features))
        completed
      @ [ ("platform", platform) ]
    in
    let tasks = ref [] (* reversed, like [keys] *) in
    let keys = ref [] in
    let n_tasks = ref 0 in
    (* Wrap a checking thunk as one task: fresh solver, local isolation,
       result assembled from that solver's own reports. *)
    let checking_task ~name ~key f =
      let run () =
        let solver = fresh_solver ~certify ~budget ~retry ~unsound () in
        let task_errors = ref [] in
        let findings =
          guarded ~solver ~errors:task_errors ~what:("product " ^ name)
            ~fallback:[]
            (fun () -> f solver)
        in
        task_result ~certify ~name solver ~findings ~errors:(List.rev !task_errors)
      in
      tasks := { Shard.owner = name; run } :: !tasks;
      keys := key :: !keys;
      incr n_tasks
    in
    let resolved = ref [] in
    let degraded ~name ~features = Done { name; features; tree = core; findings = [] } in
    let plan_product (name, features) =
      if List.mem name skip then degraded ~name ~features
      else
        match Delta.Apply.generate ~core ~deltas ~selected:features with
        | exception Delta.Apply.Error e ->
          (* The delta failure IS the product's complete verdict. *)
          let finding =
            Report.finding ~checker:"delta"
              ~node_path:(Option.value ~default:"?" e.Delta.Apply.delta)
              ~loc:e.Delta.Apply.loc "product %s: %s" name e.Delta.Apply.message
          in
          Done { name; features; tree = core; findings = [ finding ] }
        | exception e -> (
          match Diag.of_exn e with
          | None -> raise e
          | Some d ->
            errors :=
              { d with Diag.message = "product " ^ name ^ ": " ^ d.Diag.message }
              :: !errors;
            degraded ~name ~features)
        | tree -> (
          match
            guarded ~errors ~what:("product " ^ name) ~fallback:None (fun () ->
                Some (Syntactic.obligations ~schemas:(schemas_for tree) tree))
          with
          | None -> degraded ~name ~features
          | Some obls ->
            let p = { name; features; tree; findings = [] } in
            let hash = Journal.product_hash ~inputs_hash ~name ~features in
            let checks =
              List.map
                (fun slice solver ->
                  Syntactic.check_obligations ~solver ~product:name slice)
                (chunks syn_chunk_size obls)
              @ [ (fun solver -> Semantic.check ~solver tree) ]
            in
            let recs = List.mapi (fun ordinal _ -> recorded ~hash ~ordinal) checks in
            if List.for_all Option.is_some recs then
              Recorded { p; results = List.filter_map Fun.id recs }
            else begin
              let first = !n_tasks in
              List.iteri
                (fun ordinal (check, r) ->
                  checking_task ~name ~key:(hash, ordinal) check;
                  Option.iter (fun r -> resolved := (first + ordinal, r) :: !resolved) r)
                (List.combine checks recs);
              Checked { p; first; count = List.length checks }
            end)
    in
    let plans = List.map plan_product specs in
    Planned
      { plans;
        tasks = Array.of_list (List.rev !tasks);
        keys = Array.of_list (List.rev !keys);
        resolved = List.rev !resolved }

(* Rebuild the dispatcher's task array on a fleet worker: same inputs,
   same [skip] list (the products the dispatcher replayed whole from its
   journal), same deterministic planning — so task index [i] here runs
   exactly the closure the dispatcher's own pool would have run.
   Returns [[||]] when allocation rejects the product line (the
   dispatcher's plan holds no tasks either). *)
let plan_tasks ?(exclusive = []) ?budget ?(certify = false) ?retry ?unsound
    ?(skip = []) ~model ~core ~deltas ~schemas_for ~vm_requests () =
  let errors = ref [] in
  match
    plan_all ~exclusive ~budget ~certify ~retry ~unsound ~inputs_hash:""
      ~recorded:(fun ~hash:_ ~ordinal:_ -> None) ~skip ~errors ~model ~core
      ~deltas ~schemas_for ~vm_requests
  with
  | Plan_rejected _ -> [||]
  | Planned { tasks; _ } -> tasks

(* Run the full workflow.

   [vm_requests]: per-VM feature selections (possibly partial; the alloc
   checker completes them).  The platform product is the union of the
   completed VM products, matching §III-A: "the platform DTS is the union of
   selected features in both products".

   [budget] installs a solver resource budget for every check in the run;
   exhausted queries degrade to "inconclusive" warnings instead of
   hanging.  [retry] installs an escalation ladder: inconclusive queries
   are re-run with scaled budgets and diversified restarts.

   Crash safety: with [journal] every task result that wins the runner's
   first-wins merge (and the partition check's) is appended to the
   journal as one fsync'd record keyed by its product's content hash and
   its ordinal within the product.  [resume] is a previously loaded
   journal: matching records are merged exactly like fresh results —
   trees are regenerated (cheap and deterministic), but the recorded
   tasks are never run.  A certifying run keys its records under its own
   hashes, so it only ever replays certificates a certifying run
   produced: resumption never fabricates a certificate. *)
let run ?(exclusive = []) ?budget ?(certify = false) ?retry ?unsound
    ?(inputs_hash = "") ?journal ?(resume = []) ?(jobs = 1) ?task_deadline
    ?max_respawns ?mem_limit ?cpu_limit ?runner ~model ~core ~deltas
    ~schemas_for ~vm_requests () =
  let jobs = if jobs <= 0 then Shard.online_cpus () else jobs in
  let inputs_hash =
    if certify then Journal.inputs_hash ~parts:[ inputs_hash; "certify" ] else inputs_hash
  in
  let errors = ref [] in
  let replayed = ref [] (* reversed: one owner per replayed task *) in
  let records = Hashtbl.create 64 in
  List.iter
    (fun (e : Journal.entry) ->
      Hashtbl.replace records (e.Journal.hash, e.Journal.ordinal) e.Journal.result)
    resume;
  let recorded ~hash ~ordinal = Hashtbl.find_opt records (hash, ordinal) in
  (* Only a complete verdict is journaled: a result with an isolated error
     or a failed certificate is re-derived by a resumed run. *)
  let journal_result ~hash ~ordinal (r : Shard.result) =
    match journal with
    | Some sink when r.Shard.errors = [] && r.Shard.cert_failures = [] ->
      Journal.record sink { Journal.hash; ordinal; result = r }
    | _ -> ()
  in
  (* Canonical-order accumulation of the per-task solver statistics.
     Every task numbers its queries from 0; [absorb] renumbers them into
     one run-wide sequence (products in order, each product's syntactic
     chunks then its semantic task, the partition check last). *)
  let offset = ref 0 in
  let stat_certs = ref [] (* reversed *) in
  let stat_failures = ref [] in
  let stat_retried = ref [] in
  let absorb (r : Shard.result) =
    let r = Shard.renumber ~offset:!offset r in
    offset := !offset + r.Shard.queries;
    stat_certs := List.rev_append r.Shard.certs !stat_certs;
    stat_failures := List.rev_append r.Shard.cert_failures !stat_failures;
    stat_retried := List.rev_append r.Shard.retried !stat_retried;
    r
  in
  let finish ~products ~alloc_findings ~partition_findings ~delta_orders =
    { products; alloc_findings; partition_findings; delta_orders;
      errors = List.rev !errors;
      cert =
        (if certify then
           Some
             { Smt.Solver.enabled = true;
               certs = List.rev !stat_certs;
               failures = List.rev !stat_failures }
         else None);
      retry =
        (match retry with
         | None -> None
         | Some _ ->
           Some
             { Smt.Solver.retry_enabled = !offset > 0;
               total_queries = !offset;
               retried = List.rev !stat_retried });
      replayed = List.rev !replayed;
      (* Read at finish time: the sink degrades at the failing record and
         stays degraded, so this is the run's final durability verdict. *)
      journal_fault = Option.bind journal Journal.degradation }
  in
  match
    plan_all ~exclusive ~budget ~certify ~retry ~unsound ~inputs_hash ~recorded
      ~skip:[] ~errors ~model ~core ~deltas ~schemas_for ~vm_requests
  with
  | Plan_rejected findings ->
    finish ~products:[] ~alloc_findings:findings ~partition_findings:[] ~delta_orders:[]
  | Planned { plans; tasks; keys; resolved } ->
    let on_fresh i r =
      let hash, ordinal = keys.(i) in
      journal_result ~hash ~ordinal r
    in
    let results =
      (* [runner] (the fleet dispatcher) takes the place of the local
         pool when supplied; it receives the names of the products
         replayed whole, so remote workers can rebuild the identical task
         array via [plan_tasks ~skip].  Everything downstream — merge,
         journal, partition check — is runner-agnostic. *)
      match runner with
      | Some f ->
        let skip =
          List.filter_map (function Recorded { p; _ } -> Some p.name | _ -> None) plans
        in
        f ~skip ~resolved ~on_fresh tasks
      | None ->
        Shard.run_tasks ~jobs ?deadline:task_deadline ?max_respawns ?mem_limit
          ?cpu_limit ~resolved ~on_fresh tasks
    in
    List.iter (fun (i, _) -> replayed := tasks.(i).Shard.owner :: !replayed) resolved;
    (* Canonical merge: absorbing each product's results in plan order —
       recorded or fresh alike — renumbers queries identically for every
       job count and every resume.  Results of a degraded product's
       completed tasks still count (their queries ran and their
       certificates are real). *)
    let merge (p : product) rs =
      let rs = List.map (Option.map absorb) rs in
      if List.exists Option.is_none rs then begin
        (* Last resort: the supervised pool reassigns a dead worker's
           task and retries quarantined poison tasks in-process, so a
           [None] here means the task failed every avenue.  Degrade to
           an isolated diagnostic, exactly like an in-process phase
           failure. *)
        errors :=
          Diag.make ~code:"WORKER"
            "product %s: task failed in workers and in-process retry; \
             product not checked"
            p.name
          :: !errors;
        { p with tree = core }
      end
      else begin
        let rs = List.filter_map Fun.id rs in
        match List.concat_map (fun r -> r.Shard.errors) rs with
        | [] -> { p with findings = List.concat_map (fun r -> r.Shard.findings) rs }
        | task_errors ->
          List.iter (fun d -> errors := d :: !errors) task_errors;
          { p with tree = core }
      end
    in
    let all_products =
      List.map
        (function
          | Done p -> p
          | Checked { p; first; count } ->
            merge p (Array.to_list (Array.sub results first count))
          | Recorded { p; results } ->
            List.iter (fun _ -> replayed := p.name :: !replayed) results;
            merge p (List.map Option.some results))
        plans
    in
    let delta_orders =
      List.map
        (fun p -> (p.name, Delta.Apply.order ~selected:p.features deltas))
        all_products
    in
    (* The cross-VM partition check needs every product's tree, so it runs
       in the parent after the merge barrier, on its own fresh solver —
       its queries extend the same canonical numbering, and its result is
       journaled and replayed like any task's. *)
    let hash =
      Journal.partition_hash ~inputs_hash
        ~products:(List.map (fun p -> (p.name, p.features)) all_products)
    in
    let partition =
      match recorded ~hash ~ordinal:0 with
      | Some r ->
        replayed := "partition" :: !replayed;
        r
      | None ->
        let solver = fresh_solver ~certify ~budget ~retry ~unsound () in
        let task_errors = ref [] in
        let vm_products =
          List.filter (fun p -> p.name <> "platform") all_products
        in
        let platform_tree =
          match List.find_opt (fun p -> p.name = "platform") all_products with
          | Some p -> p.tree
          | None -> core
        in
        let findings =
          guarded ~solver ~errors:task_errors ~what:"partition check"
            ~fallback:[] (fun () ->
              Partition.check ~solver ~platform:platform_tree
                (List.map (fun p -> (p.name, p.tree)) vm_products))
        in
        let r =
          task_result ~certify ~name:"partition" solver ~findings
            ~errors:(List.rev !task_errors)
        in
        journal_result ~hash ~ordinal:0 r;
        r
    in
    let partition = absorb partition in
    List.iter (fun d -> errors := d :: !errors) partition.Shard.errors;
    finish ~products:all_products ~alloc_findings:[]
      ~partition_findings:partition.Shard.findings ~delta_orders

let pp_outcome ppf outcome =
  List.iter
    (fun p ->
      Fmt.pf ppf "product %s: features {%s}@." p.name (String.concat ", " p.features);
      (match List.assoc_opt p.name outcome.delta_orders with
       | Some order when order <> [] ->
         Fmt.pf ppf "  delta order: %s@." (String.concat " < " order)
       | _ -> ());
      match p.findings with
      | [] -> Fmt.pf ppf "  all checks passed@."
      | fs -> List.iter (fun f -> Fmt.pf ppf "  %a@." Report.pp f) fs)
    outcome.products;
  List.iter (fun f -> Fmt.pf ppf "%a@." Report.pp f) outcome.alloc_findings;
  (match outcome.partition_findings with
   | [] -> ()
   | fs ->
     Fmt.pf ppf "cross-VM partitioning:@.";
     List.iter (fun f -> Fmt.pf ppf "  %a@." Report.pp f) fs);
  List.iter (fun d -> Fmt.pf ppf "%a@." Diag.pp d) outcome.errors;
  (* Fail-operational disk errors degrade loudly: a run that lost its
     journal must say so in the report, not just on stderr. *)
  (match outcome.journal_fault with
   | None -> ()
   | Some reason ->
     Fmt.pf ppf "%a@." Diag.pp
       (Diag.make ~severity:Diag.Warning ~code:"JOURNAL"
          "journal degraded (%s): journaling disabled for the rest of the \
           run; the journal cannot be resumed from"
          reason));
  (* Resume/replay status deliberately does NOT appear here: a resumed
     run's report must be byte-identical to an uninterrupted one.  The CLI
     reports replays on stderr. *)
  (match outcome.retry with
   | Some r when r.Smt.Solver.retried <> [] ->
     Fmt.pf ppf "%a@." Report.pp_retry r
   | _ -> ());
  match outcome.cert with
  | None -> ()
  | Some r ->
    Fmt.pf ppf "%a@." Report.pp_cert r;
    (* An uncertified verdict is never a silent pass: each failure is a
       structured CERT diagnostic. *)
    List.iter
      (fun msg -> Fmt.pf ppf "%a@." Diag.pp (Diag.make ~code:"CERT" "%s" msg))
      r.Smt.Solver.failures

(* The llhsc benchmark: one seeded stream of generated product lines driven
   in-process, through the `--jobs` fork pool and through the
   authenticated fleet, with every verdict checked.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --llhsc PATH --work DIR [--commit C] [--source-digest D]

   --trace 0 times the workload end to end and prints the end-to-end
   metrics; --trace 1 instead decomposes the same inputs into calls to
   each layer's public functions, times them with in-memory spans, and
   prints the per-layer metrics.  The last line of stdout is the result
   object; the line before it records the run environment and every
   end-to-end figure, including the ones that must read zero.
   perfbench/README.md describes the workloads and metrics. *)

open Ops

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string arg_workload, "NAME workload to run");
      ("--seed", Arg.Set_int arg_seed, "N input seed");
      ("--seconds", Arg.Set_float arg_seconds, "S measured seconds");
      ("--trace", Arg.Set_int arg_trace, "0|1 end-to-end or per-layer run");
      ("--llhsc", Arg.Set_string arg_llhsc, "PATH llhsc binary");
      ("--work", Arg.Set_string arg_work, "DIR work directory for generated inputs");
      ("--commit", Arg.Set_string arg_commit, "C source commit, recorded only");
      ("--source-digest", Arg.Set_string arg_source, "D source digest, recorded only") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --llhsc PATH --work DIR"

(* --- end-to-end measurement ------------------------------------------------------------------ *)

(* Whole passes over the set until the time is up and enough samples are
   in, timing the calibration work after each pass.  Returns the wall
   time, the pass count, the seconds and CPU seconds spent in passes, and
   for each pass the peak RSS in KiB of its checker processes. *)
let closed_loop wl set prep t sp =
  let t0 = now () in
  let passes = ref 0 and pass_s = ref 0. and cpu_s = ref 0. and peaks = ref [] in
  let deadline = t0 +. !arg_seconds in
  while (now () < deadline || t.attempted < min_samples) && now () < t0 +. 150. do
    let pass_start = now () and pass_cpu = Proc.self_cpu () and pass_rss = ref 0 in
    Array.iteri
      (fun i (l : Gen.line) ->
        let expected_exit = expected_exit l.Gen.expected in
        let s = now () in
        let code, report, rss_kb, latency_s =
          match wl.kind with
          | Inproc ->
            let report = run_pipeline ~certify:false l in
            (expected_exit, report, 0, now () -. s)
          | Pool ->
            let code, out, rss_kb = pool_op i l in
            (code, out, rss_kb, now () -. s)
          | Fleet ->
            let code, out, _, elapsed, rss_kb = fleet_op i l in
            (code, out, rss_kb, elapsed)
        in
        pass_rss := max !pass_rss rss_kb;
        judge t ~what:l.Gen.name ~limit_ms:wl.limit_ms ~latency_ms:(ms latency_s)
          ~products:(Gen.products l) ~expected:l.Gen.expected ~expected_exit
          ~reference:prep.line_refs.(i) (code, report))
      set;
    pass_s := !pass_s +. (now () -. pass_start);
    cpu_s := !cpu_s +. (Proc.self_cpu () -. pass_cpu);
    peaks := float_of_int !pass_rss :: !peaks;
    incr passes;
    calibrate sp
  done;
  (now () -. t0, !passes, !pass_s, !cpu_s, !peaks)

let end_to_end wl =
  let sp = speed () in
  let reps = 3 in
  let setups = List.init reps (fun _ ->
      let s = now () in
      let prep, set = setup wl in
      let setup_s = now () -. s in
      calibrate sp;
      (setup_s, prep, set))
  in
  let digests = List.sort_uniq compare (List.map (fun (_, p, _) -> p.digest) setups) in
  if List.length digests <> 1 then fail "setup: the same seed generated different inputs";
  let setup_s = median (List.map (fun (s, _, _) -> s) setups) in
  let _, prep, set = List.nth setups (reps - 1) in
  let t = tally () in
  let wall, passes, pass_s, cpu_s, peaks = closed_loop wl set prep t sp in
  (* The load process is the checker in-process; a pipeline or fleet run
     is one operation's processes, and a pass's peak is its largest. *)
  let rss_kb =
    match wl.kind with
    | Inproc -> float_of_int (Proc.maxrss_kb ())
    | Pool | Fleet -> median peaks
  in
  let n = List.length t.latencies in
  let p95 = percentile 0.95 t.latencies in
  let beyond = List.length (List.filter (fun x -> x > p95) t.latencies) in
  let attempted = max 1 t.attempted in
  let frac x = float_of_int x /. float_of_int attempted in
  let products = float_of_int (max 1 t.products) in
  let rate = products /. pass_s and p50 = median t.latencies and cpu_ms = ms cpu_s /. products in
  let k = slowdown sp in
  let measured =
    [ ("products_per_s", "1/s", rate); ("latency_p50_ms", "ms", p50); ("latency_p95_ms", "ms", p95);
      ("cpu_ms_per_product", "ms", cpu_ms); ("setup_s", "s", setup_s) ]
  in
  (* Every timing at the reference speed. *)
  let all =
    [ ("products_per_s", "1/s", rate *. k);
      ("latency_p50_ms", "ms", p50 /. k);
      ("latency_p95_ms", "ms", p95 /. k);
      ("decided_in_limit_frac", "frac", frac t.in_limit);
      ("cpu_ms_per_product", "ms", cpu_ms /. k);
      ("peak_rss_mb", "MB", rss_kb /. 1024.);
      ("setup_s", "s", setup_s /. k);
      ("failed_frac", "frac", frac t.failed);
      ("verdict_mismatches", "count", float_of_int t.mismatches) ]
  in
  Printf.printf "{\"env\": {%s}, \"run\": {%s}, \"measured\": {%s}, \"all_metrics\": {%s}}\n"
    (String.concat ", " (env_fields wl))
    (String.concat ", "
       [ Printf.sprintf "\"set_digest\": %S" prep.digest;
         Printf.sprintf "\"lines\": [%s]"
           (String.concat ", "
              (Array.to_list (Array.map (fun (l : Gen.line) -> Printf.sprintf "%S" l.Gen.name) set)));
         Printf.sprintf "\"passes\": %d" passes;
         Printf.sprintf "\"wall_s\": %s" (json_float wall);
         Printf.sprintf "\"samples\": %d" n;
         Printf.sprintf "\"samples_beyond_p95\": %d" beyond;
         Printf.sprintf "\"products\": %d" t.products;
         Printf.sprintf "\"calibration_rounds_per_s\": %s"
           (json_float (float_of_int sp.rounds /. sp.seconds));
         Printf.sprintf "\"reference_rounds_per_s\": %s" (json_float reference_speed);
         Printf.sprintf "\"slowdown\": %s" (json_float k) ])
    (String.concat ", " (List.map metric_json measured))
    (String.concat ", " (List.map metric_json all));
  let listed = [ "products_per_s"; "latency_p50_ms"; "latency_p95_ms"; "decided_in_limit_frac";
                 "cpu_ms_per_product"; "peak_rss_mb"; "setup_s" ] in
  let correct = t.failed = 0 && t.mismatches = 0 && beyond >= 10 in
  if beyond < 10 then prerr_endline "too few samples beyond p95";
  print_result ~correct ~attempted ~failed:t.failed
    (List.filter (fun (name, _, _) -> List.mem name listed) all);
  correct

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Proc.cleanup;
  let wl =
    match List.find_opt (fun w -> w.wname = !arg_workload) workloads with
    | Some w -> w
    | None -> prerr_endline ("unknown workload " ^ !arg_workload); exit 2
  in
  if !arg_llhsc = "" || !arg_work = "" then (prerr_endline "--llhsc and --work are required"; exit 2);
  mkdir_p !arg_work;
  mkdir_p (work "tmp");
  Proc.rss_dir := work "tmp";
  Proc.child_env :=
    Array.append
      (Array.of_list
         (List.filter (fun e -> not (String.length e >= 7 && String.sub e 0 7 = "TMPDIR="))
            (Array.to_list (Unix.environment ()))))
      [| "TMPDIR=" ^ work "tmp" |];
  match
    if !arg_trace = 1 then Traced.run () else end_to_end wl
  with
  | true -> exit 0
  | false -> exit 1
  | exception Proc.Failed msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 1

(* Shared machinery of the benchmark: workload definitions, the seeded
   sets, materialised inputs, the checker in-process and as processes,
   and verdict bookkeeping. *)

module P = Llhsc.Pipeline
module T = Devicetree.Tree

(* --- arguments ---------------------------------------------------------------- *)

let arg_workload = ref ""
let arg_seed = ref 1
let arg_seconds = ref 10.
let arg_trace = ref 0
let arg_llhsc = ref ""
let arg_work = ref ""
let arg_commit = ref "unknown"
let arg_source = ref "unknown"

let fail = Proc.fail
let now = Trace.now
let ms s = 1000. *. s

(* --- workloads -------------------------------------------------------------------- *)

type kind = Inproc | Pool | Fleet

type workload = {
  wname : string;
  kind : kind;
  limit_ms : float; (* latency limit behind decided_in_limit_frac *)
}

(* Each limit is about twice the p95 of the slowest line on the 2-vCPU
   machine the benchmark was tuned on, so the fraction counts stalls and
   failures rather than the size of the largest line. *)
let workloads =
  [ { wname = "inproc-lines"; kind = Inproc; limit_ms = 600. };
    { wname = "pool-certify"; kind = Pool; limit_ms = 1000. };
    { wname = "fleet-auth"; kind = Fleet; limit_ms = 600. } ]

(* Enough samples that at least ten lie beyond the 95th percentile. *)
let min_samples = 200

(* The four board sizes of a set, smallest first, with how many
   generated lines of each a set holds.  The first two are the dimensions
   of the repository's own boards, the last is the large line the
   benchmark's sizing names, and the third sits between them:
   - examples/files/custom-sbc: 2 CPUs in one cluster, 2 RAM ranges,
     2 UARTs, 2 VMs;
   - Llhsc.Quad_rv64: 2 clusters x 2 CPUs, 4 banks, 2 UARTs, 2 virtio
     devices, one shared device (its GPIO, a timer here), 3 VMs;
   - 8 CPUs, 8 banks, 5 VMs: the geometric middle of quad_rv64 and the
     large line, devices scaled with the CPU count as on quad_rv64;
   - 16 CPUs, 16 banks, 8 VMs, devices scaled the same way.
   Delta-chain depth grows from 1 to 4 with size.  With quad_rv64 itself
   as an eleventh member, the quad_rv64 size fills five of eleven
   operations and every other size two.  An odd member count puts the
   median operation on one line rather than between two, and that line
   is the middle one of its size.  The weights are an assumption, not a
   measured mix. *)
let sizes =
  let s clusters cpus_per_cluster banks uarts virtios timers vms depth =
    { Gen.clusters; cpus_per_cluster; banks; uarts; virtios; timers; vms; depth }
  in
  [ (s 1 2 2 2 0 0 2 1, 2); (s 2 2 4 2 2 1 3 1, 4); (s 2 4 8 4 4 2 5 2, 2);
    (s 4 4 16 8 8 4 8 4, 2) ]

(* Position j of a set has shape [shapes.(j)]. *)
let shapes = Array.of_list (List.concat_map (fun (shape, n) -> List.init n (fun _ -> shape)) sizes)

let gen_line seed j shape =
  let name =
    Printf.sprintf "g%d-c%dx%d-b%d-vm%d" j shape.Gen.clusters shape.Gen.cpus_per_cluster
      shape.Gen.banks shape.Gen.vms
  in
  Gen.generate ~name ~rng:(Gen.derive seed j) ~defects:(Gen.defects_at j) shape

(* The seeded set every workload runs: one line per position, then
   quad_rv64. *)
let make_set seed =
  Array.append (Array.mapi (fun j sh -> gen_line seed j sh) shapes) [| Gen.quad_rv64 () |]

let set_digest set =
  Digest.to_hex (Digest.string (String.concat "," (Array.to_list (Array.map Gen.digest set))))

(* --- files ------------------------------------------------------------------------- *)

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Unix.unlink p

let mkdir_p d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let work f = Filename.concat !arg_work f
let line_dir i (l : Gen.line) = work (Printf.sprintf "inputs/l%02d-%s" i l.Gen.name)

let materialise set =
  rm_rf (work "inputs");
  mkdir_p (work "inputs");
  Array.iteri
    (fun i (l : Gen.line) ->
      let d = line_dir i l in
      mkdir_p d;
      write_file (Filename.concat d "core.dts") l.Gen.dts;
      write_file (Filename.concat d "board.deltas") l.Gen.deltas;
      write_file (Filename.concat d "board.fm") l.Gen.model;
      mkdir_p (Filename.concat d "schemas");
      List.iter (fun (n, s) -> write_file (Filename.concat d ("schemas/" ^ n)) s) l.Gen.schemas)
    set

(* --- the checker in-process ---------------------------------------------------------- *)

type parsed = {
  core : T.t;
  deltas : Delta.Lang.t list;
  model : Featuremodel.Model.t;
  schemas : Schema.Binding.t list;
}

(* Parse a line's texts as the CLI does; spans only record in a traced
   operation. *)
let parse (l : Gen.line) =
  let span = Trace.span in
  let core = span "devicetree.parse" (fun () -> T.of_source ~file:"core.dts" l.Gen.dts) in
  let deltas = span "delta.parse" (fun () -> Delta.Parse.parse ~file:"board.deltas" l.Gen.deltas) in
  let model = span "featuremodel.parse" (fun () -> Featuremodel.Parse.parse l.Gen.model) in
  let schemas =
    span "schema.load" (fun () -> List.map (fun (_, s) -> Schema.Binding.of_string s) l.Gen.schemas)
  in
  { core; deltas; model; schemas }

(* What `llhsc pipeline --jobs 1` prints for this line. *)
let run_pipeline ~certify (l : Gen.line) =
  let p = parse l in
  let outcome =
    P.run ~exclusive:l.Gen.exclusive ~certify ~jobs:1 ~model:p.model ~core:p.core ~deltas:p.deltas
      ~schemas_for:(fun _ -> p.schemas) ~vm_requests:l.Gen.vms ()
  in
  Fmt.str "%a" P.pp_outcome outcome

(* What `llhsc check FILE` prints without schemas: the semantic checker on
   one solver, or the all-clear line. *)
let render_check ~file findings =
  if findings = [] then file ^ ": all checks passed\n"
  else String.concat "" (List.map (fun f -> Fmt.str "%a\n" Llhsc.Report.pp f) findings)

let run_check ~file text =
  let tree = T.of_source ~file text in
  render_check ~file (Llhsc.Semantic.check ~solver:(Smt.Solver.create ()) tree)

(* The CLI exits 1 when a verdict holds an error, 0 when clean. *)
let expected_exit (v : Verdict.t) =
  if List.exists (fun e -> e.Verdict.severity = "error") v then 1 else 0

(* --- the checker as a process ---------------------------------------------------------- *)

let pipeline_args i (l : Gen.line) =
  let d = line_dir i l in
  let f = Filename.concat d in
  [ "--core"; f "core.dts"; "--deltas"; f "board.deltas"; "--model"; f "board.fm";
    "--schemas"; f "schemas"; "--exclusive"; String.concat "," l.Gen.exclusive ]
  @ List.concat_map (fun fs -> [ "--vm"; String.concat "," fs ]) l.Gen.vms

let op_timeout = 60.

(* One `llhsc pipeline --certify --jobs 2` run: (exit code, stdout, peak
   RSS in KiB of the pipeline and its pool workers). *)
let pool_op i l =
  let ended, out =
    Proc.run_capture ~measured:true ~timeout:op_timeout !arg_llhsc
      (("pipeline" :: pipeline_args i l) @ [ "--certify"; "--jobs"; "2" ])
  in
  (ended.Proc.code, out, ended.Proc.rss_kb)

let secret_file () = work "fleet.secret"

(* One authenticated fleet run: dispatcher plus two workers on loopback.
   Returns (exit code, report, port-ready seconds, seconds to verdict,
   peak RSS in KiB of the largest of the three processes).  The verdict
   is in once the dispatcher has closed its stdout and been reaped; the
   workers are reaped after that, outside the timed span. *)
let fleet_op i l =
  let port_file = work "fleet.port" in
  (try Sys.remove port_file with Sys_error _ -> ());
  let t0 = now () in
  let r, w = Unix.pipe ~cloexec:true () in
  let dpid =
    Proc.spawn ~stdout:w ~measured:true !arg_llhsc
      ([ "dispatch"; "--listen"; "127.0.0.1:0"; "--port-file"; port_file;
         "--wait-workers"; "30"; "--secret-file"; secret_file () ]
      @ pipeline_args i l)
  in
  Unix.close w;
  (* Poll for the port here: `worker --port-file` polls every 100 ms,
     which would dominate the run time of small lines. *)
  let rec port tries =
    match open_in port_file with
    | ic ->
      let p = try int_of_string_opt (String.trim (input_line ic)) with End_of_file -> None in
      close_in ic;
      (match p with Some p -> p | None -> retry tries)
    | exception Sys_error _ -> retry tries
  and retry tries =
    if tries = 0 then fail "fleet: dispatcher never wrote its port";
    Unix.sleepf 0.001;
    port (tries - 1)
  in
  let port = port 20_000 in
  let ready = now () -. t0 in
  (* No reconnects: a worker that arrives after the last task was leased
     finds the dispatcher gone and exits at once instead of backing off. *)
  let workers =
    List.init 2 (fun _ ->
        Proc.spawn ~measured:true !arg_llhsc
          [ "worker"; "--connect"; Printf.sprintf "127.0.0.1:%d" port; "--secret-file";
            secret_file (); "--max-reconnects"; "0" ])
  in
  let complete, out = Proc.read_all ~timeout:op_timeout r in
  Unix.close r;
  let dispatcher = Proc.wait_within ~timeout:(if complete then op_timeout else 0.) dpid in
  let elapsed = now () -. t0 in
  (* Such a late worker exits 1; only a signal death is a failure. *)
  let workers = List.map (Proc.wait_within ~timeout:5.) workers in
  let code =
    if List.for_all (fun w -> w.Proc.code >= 0) workers then dispatcher.Proc.code else -1
  in
  ( code, out, ready, elapsed,
    List.fold_left (fun m w -> max m w.Proc.rss_kb) dispatcher.Proc.rss_kb workers )

(* --- llhsc serve ------------------------------------------------------------------------ *)

type daemon = { pid : int; port : int }

let start_serve () =
  let log = work "serve.log" in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let pid = Proc.spawn ~stdout:fd !arg_llhsc [ "serve"; "--port"; "0"; "--workers"; "2" ] in
  Unix.close fd;
  let rec wait tries =
    let line =
      match open_in log with
      | ic ->
        let l = try Some (input_line ic) with End_of_file -> None in
        close_in ic;
        l
      | exception Sys_error _ -> None
    in
    match Option.bind line (fun l -> try Some (Scanf.sscanf l "llhsc serve: listening on %[0-9.]:%d" (fun _ p -> p)) with _ -> None) with
    | Some port -> { pid; port }
    | None ->
      if tries = 0 then fail "serve: daemon never reported its port";
      Unix.sleepf 0.002;
      wait (tries - 1)
  in
  wait 10_000

let stop_serve d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  if (Proc.wait_within ~timeout:10. d.pid).Proc.code <> 0 then
    fail "serve: daemon did not drain cleanly"

(* The name a served `check` of line [i]'s core DTS reports under. *)
let doc_name i = Printf.sprintf "doc%02d.dts" i

let check_request i (l : Gen.line) =
  Proc.request_bytes ~meth:"POST" ~path:"/v1/check"
    ~headers:[ ("X-Llhsc-Filename", doc_name i) ]
    l.Gen.dts

(* (exit code, report) of a served verdict; exit -1 for any non-200. *)
let served (status, body) =
  if status <> 200 then (-1, "")
  else
    match Llhsc.Json.parse (String.trim body) with
    | Ok j -> (
      match
        ( Option.bind (Llhsc.Json.member "exit" j) Llhsc.Json.to_int,
          Option.bind (Llhsc.Json.member "report" j) Llhsc.Json.to_str )
      with
      | Some code, Some report -> (code, report)
      | _ -> (-1, ""))
    | Error _ -> (-1, "")

(* --- operation bookkeeping --------------------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable mismatches : int;
  mutable in_limit : int;
  mutable products : int;
  mutable latencies : float list; (* ms, successful operations *)
}

let tally () =
  { attempted = 0; failed = 0; mismatches = 0; in_limit = 0; products = 0; latencies = [] }

(* Judge one finished operation against the reference rendering and the
   generator's answer. *)
let judge t ~what ~limit_ms ~latency_ms ~products ~expected ~expected_exit ~reference
    (code, report) =
  t.attempted <- t.attempted + 1;
  let verdict = Verdict.of_report report in
  let verdict_ok = Verdict.equal verdict expected in
  let ok = code = expected_exit && report = reference in
  if not verdict_ok then begin
    t.mismatches <- t.mismatches + 1;
    Printf.eprintf "verdict mismatch on %s:\n  expected %s\n  got      %s\n%!" what
      (Verdict.to_string expected) (Verdict.to_string verdict)
  end;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "failed operation on %s (exit %d, expected %d; report %s)\n%!" what code
      expected_exit
      (if report = reference then "identical" else "differs from the in-process rendering")
  end
  else begin
    t.products <- t.products + products;
    t.latencies <- latency_ms :: t.latencies;
    if verdict_ok && latency_ms <= limit_ms then t.in_limit <- t.in_limit + 1
  end

(* Nearest-rank percentile of a sample. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs = percentile 0.5 xs

(* --- machine speed ----------------------------------------------------------------------- *)

(* On a shared virtual machine the CPU speed of the whole machine drifts
   between a slow and a fast state that each last tens of seconds to
   minutes, by up to a factor of 1.5.  A run then reads fast or slow by
   when it ran, not by what it ran.  The benchmark therefore times a fixed
   piece of its own CPU work between passes and reports every timing at a
   reference speed: scaled by how much faster or slower than the
   reference that work ran in the same run.  The work generates the ten
   lines of a fixed seed (strings, lists, the PRNG); it calls no llhsc
   code, so a change to llhsc cannot move it. *)
let calibration_rounds = 25

(* Calibration rounds per second of the reference machine: about the
   mean of the 2-vCPU machine the benchmark was tuned on, where one
   calibration of 25 rounds takes about 20 ms. *)
let reference_speed = 1200.

type speed = { mutable rounds : int; mutable seconds : float }

let speed () = { rounds = 0; seconds = 0. }

let calibrate sp =
  let s = now () in
  for k = 1 to calibration_rounds do
    ignore (Sys.opaque_identity (Array.mapi (fun j sh -> gen_line (-k) j sh) shapes))
  done;
  sp.seconds <- sp.seconds +. (now () -. s);
  sp.rounds <- sp.rounds + calibration_rounds

(* How many times slower than the reference the machine ran: a time
   measured in the run, divided by this, is the time at the reference
   speed. *)
let slowdown sp = reference_speed /. (float_of_int sp.rounds /. sp.seconds)

(* --- set-up ------------------------------------------------------------------------------- *)

type prepared = {
  line_refs : string array; (* reference `pipeline` reports *)
  digest : string;
}

let validate ~what expected report =
  let got = Verdict.of_report report in
  if not (Verdict.equal got expected) then
    fail "setup: %s: llhsc's verdict %s differs from the generator's %s" what
      (Verdict.to_string got) (Verdict.to_string expected)

(* Generate, materialise and validate the set, then warm up the
   workload's processes on every line. *)
let setup wl =
  let set = make_set !arg_seed in
  let digest = set_digest set in
  materialise set;
  let line_refs =
    Array.map
      (fun (l : Gen.line) ->
        let r = run_pipeline ~certify:(wl.kind = Pool) l in
        validate ~what:("line " ^ l.Gen.name) l.Gen.expected r;
        r)
      set
  in
  let warm i (l : Gen.line) (code, out) =
    if code <> expected_exit l.Gen.expected || out <> line_refs.(i) then
      fail "setup: warm-up %s: exit %d, report %s" l.Gen.name code
        (if out = line_refs.(i) then "identical" else "differs from the in-process rendering")
  in
  (match wl.kind with
   | Inproc -> ()
   | Pool ->
     Array.iteri
       (fun i l ->
         let code, out, _ = pool_op i l in
         warm i l (code, out))
       set
   | Fleet ->
     write_file (secret_file ()) (Printf.sprintf "perfbench-%d\n" !arg_seed);
     Array.iteri
       (fun i l ->
         let code, out, _, _, _ = fleet_op i l in
         warm i l (code, out))
       set);
  ({ line_refs; digest }, set)

(* --- output ------------------------------------------------------------------------------------ *)

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let metric_json (name, unit_, value) =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float value) unit_

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric_json metrics))

let env_fields wl =
  [ Printf.sprintf "\"workload\": %S" wl.wname;
    Printf.sprintf "\"seed\": %d" !arg_seed;
    Printf.sprintf "\"seconds\": %s" (json_float !arg_seconds);
    Printf.sprintf "\"nproc\": %d" (Llhsc.Shard.online_cpus ());
    Printf.sprintf "\"ocaml_version\": %S" Sys.ocaml_version;
    Printf.sprintf "\"git_commit\": %S" !arg_commit;
    Printf.sprintf "\"source_digest\": %S" !arg_source;
    "\"loop\": \"closed\"";
    "\"offered_rate_per_s\": null";
    Printf.sprintf "\"latency_limit_ms\": %s" (json_float wl.limit_ms) ]


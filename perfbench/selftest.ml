(* Self-tests of the benchmark's own machinery: generator determinism and
   known answers, the report parser, percentiles, chunking and span
   accounting.  Exits 1 on the first failure.

     python3 perfbench/run.py --self-test
     dune build @perfbench/perfbench-selftest *)

open Ops

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let generator () =
  let a = make_set 7 and b = make_set 7 and c = make_set 8 in
  check "same seed, byte-identical inputs" (set_digest a = set_digest b);
  check "different seed, different inputs" (set_digest a <> set_digest c);
  for seed = 1 to 5 do
    let set = make_set seed in
    (* Position j is clean iff defects_at j is empty; every kind occurs. *)
    Array.iter
      (fun (l : Gen.line) ->
        check (l.Gen.name ^ ": known answer matches its defects")
          ((l.Gen.defects = []) = (l.Gen.expected = [])))
      set;
    let seen = Array.to_list set |> List.concat_map (fun l -> l.Gen.defects) in
    List.iter
      (fun d -> check ("set covers " ^ Gen.defect_name d) (List.mem d seen))
      Gen.all_defects;
    check "quad_rv64 is a fixed member"
      (Array.exists (fun (l : Gen.line) -> l.Gen.name = "quad_rv64") set)
  done

(* The generator's answers against the checker itself, in-process. *)
let known_answers () =
  for seed = 1 to 4 do
    Array.iteri
      (fun i (l : Gen.line) ->
        check
          (Printf.sprintf "seed %d %s: pipeline verdict" seed l.Gen.name)
          (Verdict.equal (Verdict.of_report (run_pipeline ~certify:false l)) l.Gen.expected);
        check
          (Printf.sprintf "seed %d %s: check verdict" seed l.Gen.name)
          (Verdict.equal
             (Verdict.of_report (run_check ~file:(doc_name i) l.Gen.dts))
             l.Gen.check_expected))
      (make_set seed)
  done

let parser () =
  let report =
    "product vm1: features {a, b}\n\
    \  delta order: d1 < d2\n\
    \  [error] semantic: /memory@80000000: memory regions collide: x\n\
     product platform: features {a, b}\n\
    \  [error] syntactic: /soc/uart@10000000: node violates schema uart: y (core: z)\n\
    \  [warning] semantic: /soc/x@1: unit address\n\
     [error] alloc: platform: no allocation\n\
     cross-VM partitioning:\n\
    \  [warning] partition: /soc/timer@10200000: device mapped into both vm1 and vm2\n\
     error[WORKER]: product vm1: task failed\n\
     certification: 3 queries certified, 0 failures\n\
    \  query 0: unsat, trace 12 steps\n"
  in
  let e section severity checker path = Verdict.entry ~section ~severity ~checker ~path in
  check "report parser"
    (Verdict.equal (Verdict.of_report report)
       (Verdict.of_entries
          [ e "vm1" "error" "semantic" "/memory@80000000";
            e "platform" "error" "syntactic" "/soc/uart@10000000";
            e "platform" "warning" "semantic" "/soc/x@1";
            e "alloc" "error" "alloc" "platform";
            e "partition" "warning" "partition" "/soc/timer@10200000";
            e "diag" "error" "WORKER" "" ]));
  check "clean check report" (Verdict.of_report "doc00.dts: all checks passed\n" = [])

let stats () =
  check "p50 of 1..10" (median (List.init 10 (fun i -> float_of_int (i + 1))) = 5.);
  check "p95 of 1..200" (percentile 0.95 (List.init 200 (fun i -> float_of_int (i + 1))) = 190.);
  check "p95 of one sample" (percentile 0.95 [ 3. ] = 3.);
  check "reference speed is no slowdown"
    (slowdown { rounds = int_of_float reference_speed; seconds = 1. } = 1.);
  check "half the reference speed is twice as slow"
    (slowdown { rounds = int_of_float reference_speed; seconds = 2. } = 2.);
  let sp = speed () in
  calibrate sp;
  check "calibration counts its rounds" (sp.rounds = calibration_rounds && sp.seconds > 0.);
  check "chunks of 8" (List.map List.length (Traced.chunks (List.init 17 Fun.id)) = [ 8; 8; 1 ]);
  check "no chunks of nothing" (Traced.chunks [] = []);
  let st = Traced.stats (Smt.Solver.create ()) in
  check "solver statistics parse"
    (List.for_all (fun k -> List.mem_assoc k st) [ "vars"; "clauses"; "decisions"; "conflicts"; "props" ])

let spans () =
  let mk id name parent start stop =
    { Trace.id; name; op = 0; parent; start; stop }
  in
  (* op [0,10] with children a [1,4] (child c [2,3]) and b [5,9]. *)
  let spans =
    [ mk 0 "op" (-1) 0. 10.; mk 1 "a" 0 1. 4.; mk 2 "c" 1 2. 3.; mk 3 "b" 0 5. 9. ]
  in
  let self = Trace.self_by_name spans in
  check "self time subtracts children" (Hashtbl.find self "a" = 2. && Hashtbl.find self "op" = 3.);
  check "coverage" (Float.abs (Trace.coverage spans -. 0.7) < 1e-9);
  Trace.enabled := true;
  Trace.reset ();
  let v = Trace.operation 5 (fun () -> Trace.span "x" (fun () -> Trace.span "y" (fun () -> 42))) in
  Trace.enabled := false;
  let recorded = Trace.spans () in
  check "span returns the value" (v = 42);
  check "spans nest"
    (List.map (fun s -> (s.Trace.name, s.Trace.parent, s.Trace.op)) recorded
     = [ ("op", -1, 5); ("x", 0, 5); ("y", 1, 5) ])

let () =
  generator ();
  known_answers ();
  parser ();
  stats ();
  spans ();
  if !failures > 0 then begin
    Printf.printf "%d self-test failure(s)\n" !failures;
    exit 1
  end;
  print_endline "perfbench self-tests passed"

(* Supervised task pool for the sharded check phase.  See the .mli for
   the contract; the key invariants live here:

   - one transport: every worker, a forked child on a socketpair or a
     remote fleet peer on TCP, speaks the same CRC-framed JSON messages
     ({!Frame}) and runs tasks through the same [serve] loop, and one
     select loop ([run]) supervises them all;
   - dynamic dispatch: a peer holds at most one lease; it answers a task
     message with a heartbeat (lease clock restart) and then the result,
     so a crashing worker loses only its in-flight task;
   - every fault is handled by one remedy, [drop]: close the fd (a child
     is also SIGKILLed and reaped) and record a crash for each lease,
     which reassigns the task or, on its second crash, quarantines it as
     a poison task for one in-process retry;
   - results are keyed by task index and each task runs on a fresh
     solver, so whichever worker (or the parent) finally runs a task,
     its result — and with it the merged report — is byte-identical
     across crash/reassign schedules;
   - parent-side fds are non-blocking and children are forked only at
     the top of a round, so a respawned child that reuses a dropped
     peer's fd number is never read through a stale readable set;
   - children close their siblings' fds and exit through [Unix._exit],
     never [exit]: the parent's [at_exit] handlers and buffered channels
     must not run or flush a second time in the child;
   - the loop's [finally] SIGKILLs and reaps every child still alive, so
     an interrupted parent (SIGTERM mid-run) leaves no worker behind. *)

type result = {
  product : string;
  findings : Report.finding list;
  errors : Diag.t list;
  queries : int;
  certs : Smt.Solver.cert list;
  cert_failures : string list;
  retried : Smt.Solver.retry_entry list;
}

type task = { owner : string; run : unit -> result }

(* --- renumbering ----------------------------------------------------------- *)

(* Certification failure messages are rendered by the solver as
   "query %d: ...": rewrite the local index into the run-wide one. *)
let renumber_failure ~offset s =
  let prefix = "query " in
  let plen = String.length prefix in
  if String.length s > plen && String.sub s 0 plen = prefix then
    match String.index_from_opt s plen ':' with
    | Some i -> (
      match int_of_string_opt (String.sub s plen (i - plen)) with
      | Some q ->
        Printf.sprintf "query %d%s" (q + offset)
          (String.sub s i (String.length s - i))
      | None -> s)
    | None -> s
  else s

let renumber ~offset r =
  if offset = 0 then r
  else
    {
      r with
      certs =
        List.map
          (fun (c : Smt.Solver.cert) -> { c with query = c.query + offset })
          r.certs;
      cert_failures = List.map (renumber_failure ~offset) r.cert_failures;
      retried =
        List.map
          (fun (e : Smt.Solver.retry_entry) ->
            { e with rquery = e.rquery + offset })
          r.retried;
    }

(* --- JSON wire format ------------------------------------------------------- *)

(* [Json.t] has no float constructor; times cross the wire as hexadecimal
   float literals ("%h"), which round-trip exactly. *)
let float_to_json t = Json.Str (Printf.sprintf "%h" t)
let float_of_json j = Option.bind (Json.to_str j) float_of_string_opt

let severity_to_string : Report.severity -> string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_of_string = function
  | "error" -> Some Report.Error
  | "warning" -> Some Report.Warning
  | "info" -> Some Report.Info
  | _ -> None

let loc_to_json (loc : Devicetree.Loc.t) =
  Json.Obj
    [
      ("file", Json.Str loc.file);
      ("line", Json.Int loc.line);
      ("col", Json.Int loc.col);
    ]

let finding_to_json (f : Report.finding) =
  Json.Obj
    [
      ("severity", Json.Str (severity_to_string f.severity));
      ("checker", Json.Str f.checker);
      ("node_path", Json.Str f.node_path);
      ("message", Json.Str f.message);
      ("loc", loc_to_json f.loc);
      ("core", Json.List (List.map (fun s -> Json.Str s) f.core));
    ]

let diag_severity_to_string : Diag.severity -> string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let diag_severity_of_string = function
  | "error" -> Some Diag.Error
  | "warning" -> Some Diag.Warning
  | "info" -> Some Diag.Info
  | _ -> None

let diag_to_json (d : Diag.t) =
  Json.Obj
    [
      ("severity", Json.Str (diag_severity_to_string d.severity));
      ("code", Json.Str d.code);
      ("message", Json.Str d.message);
      ("loc", match d.loc with None -> Json.Null | Some loc -> loc_to_json loc);
    ]

let ( let* ) = Option.bind

let loc_of_json j =
  let* file = Option.bind (Json.member "file" j) Json.to_str in
  let* line = Option.bind (Json.member "line" j) Json.to_int in
  let* col = Option.bind (Json.member "col" j) Json.to_int in
  Some (Devicetree.Loc.make ~file ~line ~col)

let finding_of_json j =
  let* severity = Option.bind (Json.member "severity" j) Json.to_str in
  let* severity = severity_of_string severity in
  let* checker = Option.bind (Json.member "checker" j) Json.to_str in
  let* node_path = Option.bind (Json.member "node_path" j) Json.to_str in
  let* message = Option.bind (Json.member "message" j) Json.to_str in
  let* loc = Option.bind (Json.member "loc" j) loc_of_json in
  let* core = Option.bind (Json.member "core" j) Json.to_str_list in
  Some { Report.severity; checker; node_path; message; loc; core }

let diag_of_json j =
  let* severity = Option.bind (Json.member "severity" j) Json.to_str in
  let* severity = diag_severity_of_string severity in
  let* code = Option.bind (Json.member "code" j) Json.to_str in
  let* message = Option.bind (Json.member "message" j) Json.to_str in
  let* loc =
    match Json.member "loc" j with
    | Some Json.Null | None -> Some None
    | Some loc -> Option.map Option.some (loc_of_json loc)
  in
  Some { Diag.severity; code; message; loc }

let verdict_to_string = function `Sat -> "sat" | `Unsat -> "unsat"

let verdict_of_string = function
  | "sat" -> Some `Sat
  | "unsat" -> Some `Unsat
  | _ -> None

let cert_to_json (c : Smt.Solver.cert) =
  Json.Obj
    [
      ("query", Json.Int c.query);
      ("verdict", Json.Str (verdict_to_string c.verdict));
      ("steps", Json.Int c.steps);
      ("time", float_to_json c.time);
      ("ok", Json.Bool c.ok);
    ]

let cert_of_json j =
  let* query = Option.bind (Json.member "query" j) Json.to_int in
  let* verdict = Option.bind (Json.member "verdict" j) Json.to_str in
  let* verdict = verdict_of_string verdict in
  let* steps = Option.bind (Json.member "steps" j) Json.to_int in
  let* time = Option.bind (Json.member "time" j) float_of_json in
  let* ok = Option.bind (Json.member "ok" j) Json.to_bool in
  Some { Smt.Solver.query; verdict; steps; time; ok }

let polarity_to_string : Sat.Solver.polarity_mode -> string = function
  | Phase_saved -> "saved"
  | Phase_false -> "false"
  | Phase_true -> "true"
  | Phase_inverted -> "inverted"
  | Phase_random -> "random"

let polarity_of_string = function
  | "saved" -> Some Sat.Solver.Phase_saved
  | "false" -> Some Sat.Solver.Phase_false
  | "true" -> Some Sat.Solver.Phase_true
  | "inverted" -> Some Sat.Solver.Phase_inverted
  | "random" -> Some Sat.Solver.Phase_random
  | _ -> None

let attempt_to_json (a : Smt.Solver.attempt) =
  Json.Obj
    [
      ("attempt", Json.Int a.attempt);
      ("scale", Json.Int a.scale);
      ("seed", match a.seed with None -> Json.Null | Some s -> Json.Int s);
      ("polarity", Json.Str (polarity_to_string a.polarity));
      ( "result",
        Json.Str
          (match a.result with
           | `Sat -> "sat"
           | `Unsat -> "unsat"
           | `Unknown -> "unknown") );
      ("conflicts", Json.Int a.conflicts);
      ("time", float_to_json a.time);
    ]

let attempt_of_json j =
  let* attempt = Option.bind (Json.member "attempt" j) Json.to_int in
  let* scale = Option.bind (Json.member "scale" j) Json.to_int in
  let* seed =
    match Json.member "seed" j with
    | Some Json.Null | None -> Some None
    | Some (Json.Int s) -> Some (Some s)
    | Some _ -> None
  in
  let* polarity = Option.bind (Json.member "polarity" j) Json.to_str in
  let* polarity = polarity_of_string polarity in
  let* result = Option.bind (Json.member "result" j) Json.to_str in
  let* result =
    match result with
    | "sat" -> Some `Sat
    | "unsat" -> Some `Unsat
    | "unknown" -> Some `Unknown
    | _ -> None
  in
  let* conflicts = Option.bind (Json.member "conflicts" j) Json.to_int in
  let* time = Option.bind (Json.member "time" j) float_of_json in
  Some { Smt.Solver.attempt; scale; seed; polarity; result; conflicts; time }

let retry_entry_to_json (e : Smt.Solver.retry_entry) =
  Json.Obj
    [
      ("rquery", Json.Int e.rquery);
      ("attempts", Json.List (List.map attempt_to_json e.attempts));
      ("recovered", Json.Bool e.recovered);
    ]

let retry_entry_of_json j =
  let* rquery = Option.bind (Json.member "rquery" j) Json.to_int in
  let* attempts = Option.bind (Json.member "attempts" j) Json.to_list in
  let attempts' = List.filter_map attempt_of_json attempts in
  if List.length attempts' <> List.length attempts then None
  else
    let* recovered = Option.bind (Json.member "recovered" j) Json.to_bool in
    Some { Smt.Solver.rquery; attempts = attempts'; recovered }

let all_or_none of_json items =
  let parsed = List.filter_map of_json items in
  if List.length parsed <> List.length items then None else Some parsed

let result_to_json r =
  Json.Obj
    [
      ("product", Json.Str r.product);
      ("findings", Json.List (List.map finding_to_json r.findings));
      ("errors", Json.List (List.map diag_to_json r.errors));
      ("queries", Json.Int r.queries);
      ("certs", Json.List (List.map cert_to_json r.certs));
      ( "cert_failures",
        Json.List (List.map (fun s -> Json.Str s) r.cert_failures) );
      ("retried", Json.List (List.map retry_entry_to_json r.retried));
    ]

let result_of_json j =
  let* product = Option.bind (Json.member "product" j) Json.to_str in
  let* findings = Option.bind (Json.member "findings" j) Json.to_list in
  let* findings = all_or_none finding_of_json findings in
  let* errors = Option.bind (Json.member "errors" j) Json.to_list in
  let* errors = all_or_none diag_of_json errors in
  let* queries = Option.bind (Json.member "queries" j) Json.to_int in
  let* certs = Option.bind (Json.member "certs" j) Json.to_list in
  let* certs = all_or_none cert_of_json certs in
  let* cert_failures =
    Option.bind (Json.member "cert_failures" j) Json.to_str_list
  in
  let* retried = Option.bind (Json.member "retried" j) Json.to_list in
  let* retried = all_or_none retry_entry_of_json retried in
  Some { product; findings; errors; queries; certs; cert_failures; retried }

(* --- resource guards -------------------------------------------------------- *)

(* OCaml's Unix library exposes getrlimit through neither stdlib nor
   unix; two tiny C stubs (shard_stubs.c) cover the pool's needs. *)
external set_rlimit : int -> int -> int -> bool = "llhsc_set_rlimit"
external online_cpus_stub : unit -> int = "llhsc_online_cpus"

let online_cpus () = max 1 (online_cpus_stub ())
let rlimit_as = 0
let rlimit_cpu = 1

(* Workers install the guards after the fork, so a tripped limit takes
   down (or signals) only the one child.  RLIMIT_AS makes allocation
   fail, which OCaml surfaces as Out_of_memory; RLIMIT_CPU delivers
   SIGXCPU, which the handler turns into Resource_limit.  Both are owned
   by Diag.of_exn, so the task degrades to error[RESOURCE]. *)
let install_guards ~mem_limit ~cpu_limit =
  (match mem_limit with
   | Some mb when mb > 0 ->
     let bytes = mb * 1024 * 1024 in
     ignore (set_rlimit rlimit_as bytes bytes : bool)
   | _ -> ());
  match cpu_limit with
  | Some secs when secs > 0 ->
    Sys.set_signal Sys.sigxcpu
      (Sys.Signal_handle
         (fun _ -> raise (Diag.Resource_limit "cpu time limit exceeded")));
    (* Hard limit a few seconds above soft: if the handler cannot fire
       (e.g. a blocking C call), SIGKILL ends the worker and the
       supervisor reassigns the task. *)
    ignore (set_rlimit rlimit_cpu secs (secs + 5) : bool)
  | _ -> ()

(* --- running one task -------------------------------------------------------- *)

let degraded_result ~owner (d : Diag.t) =
  {
    product = owner;
    findings = [];
    errors =
      [ { d with Diag.message = Printf.sprintf "product %s: %s" owner d.Diag.message } ];
    queries = 0;
    certs = [];
    cert_failures = [];
    retried = [];
  }

let run_task_guarded (t : task) =
  try t.run ()
  with e -> (
    match Diag.of_exn e with
    | Some d -> degraded_result ~owner:t.owner d
    | None -> raise e)

(* --- framed channels ----------------------------------------------------------- *)

exception Protocol of string

type chan = {
  fd : Unix.file_descr;
  dec : Frame.Decoder.t;
  mutable key : string option;
  mutable seq_in : int;
  mutable seq_out : int;
}

let chan fd = { fd; dec = Frame.Decoder.create (); key = None; seq_in = 0; seq_out = 0 }

(* Session MACs ride on every frame once a key is set (see {!Frame.seal});
   each direction counts its own sequence numbers. *)
let seal c body =
  match c.key with
  | None -> body
  | Some key ->
    let sealed = Frame.seal ~key ~seq:c.seq_out body in
    c.seq_out <- c.seq_out + 1;
    sealed

let unseal c payload =
  match c.key with
  | None -> Some payload
  | Some key ->
    let body = Frame.unseal ~key ~seq:c.seq_in payload in
    if body <> None then c.seq_in <- c.seq_in + 1;
    body

let send c j = Frame.write c.fd (seal c (Json.to_string j))

let rec recv c =
  match Frame.Decoder.next c.dec with
  | `Corrupt msg -> raise (Protocol msg)
  | `Awaiting -> (
    match Frame.read_chunk c.fd c.dec with
    | `Eof -> None
    | `Data _ -> recv c)
  | `Frame payload -> (
    match unseal c payload with
    | None -> raise (Protocol "frame MAC mismatch")
    | Some body -> (
      match Json.parse body with
      | Ok j -> Some j
      | Error e -> raise (Protocol ("unparsable frame: " ^ e))))

(* --- worker side ---------------------------------------------------------------- *)

(* Deliberately exceed RLIMIT_AS: large untouched allocations raise the
   address-space watermark without paging in real memory, so the guard
   trips long before the machine feels it.  Only ever called when a
   memory limit is installed. *)
let gobble_memory () =
  let hoard = ref [] in
  for _ = 1 to 1024 do
    hoard := Bytes.create (128 * 1024 * 1024) :: !hoard
  done;
  ignore (Sys.opaque_identity !hoard)

let fault_at name =
  Option.bind (Sys.getenv_opt ("LLHSC_FAULT_" ^ name ^ "_WORKER")) int_of_string_opt

(* The drop hook fires once per process: a fleet worker reconnects and
   then serves the task; a forked child exits, so each child drops once. *)
let drop_fired = ref false

let serve c ~stamp ?mem_limit (tasks : task array) =
  let kill_at = fault_at "KILL" and hang_at = fault_at "HANG"
  and oom_at = fault_at "OOM" and drop_at = fault_at "DROP_CONN"
  and delay_at = fault_at "DELAY_RESULT" and dup_at = fault_at "DUP_RESULT" in
  let stamped i fields =
    Json.Obj ([ ("task", Json.Int i); ("spec", Json.Str stamp) ] @ fields)
  in
  let rec loop () =
    match recv c with
    | None -> `Eof
    | Some j when Json.member "retire" j <> None -> `Retired
    | Some j -> (
      match Option.bind (Json.member "task" j) Json.to_int with
      | None -> raise (Protocol "unknown message")
      | Some i when i < 0 || i >= Array.length tasks ->
        raise (Protocol (Printf.sprintf "task %d out of range" i))
      | Some i ->
        if kill_at = Some i then Unix.kill (Unix.getpid ()) Sys.sigkill;
        send c (Json.Obj [ ("hb", stamped i []) ]);
        if hang_at = Some i then
          (* Simulated livelock: heartbeats stop, the result never comes;
             only the supervisor's deadline can end this. *)
          while true do
            Unix.sleep 3600
          done;
        if drop_at = Some i && not !drop_fired then begin
          drop_fired := true;
          `Dropped
        end
        else begin
          let t = tasks.(i) in
          (* The OOM hook runs inside the task guard: a tripped memory
             limit must degrade to error[RESOURCE] exactly like a genuine
             allocation failure inside the task. *)
          let t =
            if oom_at = Some i && mem_limit <> None then
              { t with run = (fun () -> gobble_memory (); t.run ()) }
            else t
          in
          let r = run_task_guarded t in
          if delay_at = Some i then Unix.sleepf 2.0;
          let msg = Json.Obj [ ("result", stamped i [ ("r", result_to_json r) ]) ] in
          send c msg;
          if dup_at = Some i then send c msg;
          loop ()
        end)
  in
  loop ()

(* --- supervisor side ------------------------------------------------------------- *)

(* Task progress (pending queue, first-wins results, crash counts,
   quarantine) and lease clocks live in the {!Supervise} state machine;
   a peer adds only its channel, its unsent output and, for a forked
   child, the pid. *)
type peer = {
  ch : chan;
  name : string;
  pid : int option;  (** a forked child: SIGKILLed and reaped when dropped *)
  created : float;
  out : Buffer.t;  (** encoded frames not yet written *)
  mutable out_pos : int;
  mutable alive : bool;
  mutable ready : bool;  (** children start ready; remote peers after a handshake *)
  leases : Supervise.Lease.t;  (** at most one in-flight task *)
  on_frame : peer -> Json.t -> unit;  (** the transport's handshake, before ready *)
}

type fleet = {
  who : string;
  work : task array; (** the run's tasks, by index *)
  st : result Supervise.t;
  stamp : string;
  deadline : float option;
  on_fresh : int -> result -> unit;
  mutable peers : peer list;
  mutable auth_rejected : int;
}

let fleet ~who ~stamp ?deadline ?(on_fresh = fun _ _ -> ()) st tasks =
  { who; work = tasks; st; stamp; deadline; on_fresh; peers = []; auth_rejected = 0 }

let auth_rejected f = f.auth_rejected
let peer_name p = p.name
let set_session_key p key = p.ch.key <- Some key

(* Supervision notices go to stderr only and never into the report:
   *what* happened to the pool must not change *what the checker found*. *)
let note f fmt = Util.notice f.who fmt

let new_peer ?pid ~name ~on_frame fd =
  Unix.set_nonblock fd;
  { ch = chan fd; name; pid; created = Unix.gettimeofday (); out = Buffer.create 256;
    out_pos = 0; alive = true; ready = pid <> None;
    leases = Supervise.Lease.create (); on_frame }

let add_remote f ~name ~on_frame fd = f.peers <- f.peers @ [ new_peer ~name ~on_frame fd ]

(* Close the peers' fds, then SIGKILL every child among them and reap
   it.  All children are killed before the first is reaped, so they die
   in parallel. *)
let release ps =
  List.iter
    (fun p ->
      p.alive <- false;
      try Unix.close p.ch.fd with Unix.Unix_error _ -> ())
    ps;
  let pids = List.filter_map (fun p -> p.pid) ps in
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) pids;
  List.iter
    (fun pid ->
      try ignore (Util.retry_eintr (fun () -> Unix.waitpid [] pid))
      with Unix.Unix_error _ -> ())
    pids

let drop f p reason =
  if p.alive then begin
    f.peers <- List.filter (fun q -> q != p) f.peers;
    release [ p ];
    List.iter
      (fun i ->
        Supervise.Lease.finish p.leases i;
        match Supervise.record_crash f.st i with
        | `Resolved -> ()
        | `Reassign ->
          note f "worker %s %s; reassigning task %d (product %s)" p.name reason i
            f.work.(i).owner
        | `Quarantine k ->
          note f
            "task %d (product %s) crashed %d workers; quarantined as poison task, \
             will retry in-process"
            i f.work.(i).owner k)
      (Supervise.Lease.leased p.leases)
  end

(* Authentication failures are counted and reported distinctly — they
   are a property of the fleet's environment, not of any task — but the
   remedy is the usual one: the connection dies. *)
let auth_reject f p reason =
  f.auth_rejected <- f.auth_rejected + 1;
  note f "notice[AUTH] %s: %s" p.name reason;
  drop f p "failed authentication"

(* Write as much of the output buffer as the fd accepts right now.  A
   write error is a lost worker — SIGPIPE is ignored, so a peer vanishing
   mid-write surfaces here as EPIPE/ECONNRESET. *)
let flush_out f p =
  if p.alive then begin
    let s = Buffer.contents p.out in
    let len = String.length s in
    (try
       let continue = ref true in
       while !continue && p.out_pos < len do
         match
           Util.retry_eintr (fun () ->
               Unix.write_substring p.ch.fd s p.out_pos (len - p.out_pos))
         with
         | k -> p.out_pos <- p.out_pos + k
         | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
           continue := false
       done
     with Unix.Unix_error _ -> drop f p "failed mid-write");
    if p.alive && p.out_pos >= len then begin
      Buffer.clear p.out;
      p.out_pos <- 0
    end
  end

let send_peer f p body =
  Buffer.add_string p.out (Frame.encode (seal p.ch body));
  flush_out f p

(* Lease the next pending task to an idle ready peer.  The lease is on
   the books before the (fallible) send, so a write that drops the peer
   reassigns it through the crash path. *)
let fill f p =
  if p.alive && p.ready && Supervise.Lease.count p.leases = 0 then
    match Supervise.next f.st with
    | None -> ()
    | Some i ->
      Supervise.Lease.start p.leases i (Unix.gettimeofday ());
      send_peer f p (Json.to_string (Json.Obj [ ("task", Json.Int i) ]))

let admit f p =
  p.ready <- true;
  note f "worker %s ready (%d in fleet)" p.name
    (List.length (List.filter (fun q -> q.ready) f.peers));
  fill f p

(* A ready peer's messages.  Every heartbeat and result echoes the run's
   stamp (the spec hash for the fleet), and a result must name the task's
   owner: a result we cannot trust taints the whole peer. *)
let on_message f p j =
  let stamp_ok m = Option.bind (Json.member "spec" m) Json.to_str = Some f.stamp in
  let task m = Option.bind (Json.member "task" m) Json.to_int in
  match (Json.member "result" j, Json.member "hb" j) with
  | Some m, _ -> (
    match (task m, Option.bind (Json.member "r" m) result_of_json) with
    | Some i, Some r
      when stamp_ok m && i >= 0 && i < Array.length f.work
           && r.product = f.work.(i).owner ->
      Supervise.Lease.finish p.leases i;
      (match Supervise.resolve f.st i r with
       | `Fresh -> f.on_fresh i r
       | `Duplicate ->
         (* A reassigned task completing twice, or a duplicated send:
            the first valid result won. *)
         note f "duplicate result for task %d from %s ignored" i p.name);
      fill f p
    | _ -> drop f p "sent an invalid result")
  | None, Some m -> (
    match task m with
    | Some i when stamp_ok m -> Supervise.Lease.beat p.leases i (Unix.gettimeofday ())
    | _ -> ())
  | None, None -> (
    match Option.bind (Json.member "error" j) Json.to_str with
    | Some msg -> drop f p ("failed: " ^ msg)
    | None -> drop f p "sent an unknown message")

let on_readable f p =
  match Frame.read_chunk p.ch.fd p.ch.dec with
  | exception Unix.Unix_error _ -> drop f p "failed mid-read"
  | `Eof -> drop f p "disconnected"
  | `Data _ ->
    let rec next () =
      if p.alive then
        match Frame.Decoder.next p.ch.dec with
        | `Awaiting -> ()
        | `Corrupt msg -> drop f p (Printf.sprintf "sent a corrupt frame (%s)" msg)
        | `Frame payload -> (
          (* Once a session key is set, a forged, spliced or replayed
             frame is a dead worker, never data. *)
          match unseal p.ch payload with
          | None -> auth_reject f p "frame MAC mismatch mid-stream"
          | Some body -> (
            match Json.parse body with
            | Error e -> drop f p (Printf.sprintf "sent unparsable frame (%s)" e)
            | Ok j ->
              if p.ready then on_message f p j else p.on_frame p j;
              next ()))
    in
    next ()

(* How long a remote peer may dawdle before ready: a connected-but-silent
   peer must not stall degradation forever. *)
let handshake_timeout = 10.0

(* An overdue lease condemns its peer: a child is killed, a socket
   dropped, and the lease reassigned either way. *)
let expire f now =
  List.iter
    (fun p ->
      if not p.ready then begin
        if now -. p.created > handshake_timeout then drop f p "stalled during handshake"
      end
      else
        match f.deadline with
        | None -> ()
        | Some dl -> (
          match Supervise.Lease.expired p.leases ~deadline:dl ~now with
          | [] -> ()
          | i :: _ ->
            note f "task %d (product %s): deadline of %.1fs expired; %s hung worker %s"
              i f.work.(i).owner dl
              (if p.pid = None then "dropping" else "killing")
              p.name;
            drop f p "hung"))
    f.peers

let select_timeout f ~tick now =
  let t =
    match f.deadline with
    | None -> tick
    | Some deadline ->
      List.fold_left
        (fun t p ->
          match Supervise.Lease.next_expiry p.leases ~deadline ~now with
          | Some dt when p.ready -> Float.min t (Float.max 0.01 dt)
          | _ -> t)
        tick f.peers
  in
  if t = infinity then -1. else t

let supervise f ~floor:(min_workers, grace) ~on_floor ~respawn ~listen =
  let t0 = Unix.gettimeofday () in
  (* A listening fleet wakes periodically for its grace period and
     handshake timeouts; a local pool sleeps until a lease is due. *)
  let tick = if listen = None then infinity else 0.25 in
  let lfds = match listen with Some (fd, _) -> [ fd ] | None -> [] in
  let rec round () =
    let now = Unix.gettimeofday () in
    expire f now;
    respawn ();
    if Supervise.unfinished f.st then begin
      let live = List.length f.peers in
      if now -. t0 >= grace && live < min_workers then on_floor live
      else begin
        List.iter (fill f) f.peers;
        let ps = f.peers in
        let wfds =
          List.filter_map
            (fun p -> if Buffer.length p.out > p.out_pos then Some p.ch.fd else None)
            ps
        in
        (match
           Unix.select (lfds @ List.map (fun p -> p.ch.fd) ps) wfds []
             (select_timeout f ~tick now)
         with
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
         | readable, writable, _ ->
           (match listen with
            | Some (fd, accept) when List.mem fd readable -> accept ()
            | _ -> ());
           let ready fds p = p.alive && List.mem p.ch.fd fds in
           List.iter (fun p -> if ready writable p then flush_out f p) ps;
           List.iter (fun p -> if ready readable p then on_readable f p) ps);
        round ()
      end
    end
  in
  round ()

(* Retire every surviving peer (best effort — a worker that vanishes
   now has nothing left to contribute).  The retire message rides the
   session too: an authenticated worker treats an unsealed frame as an
   injected one. *)
let retire f =
  let bye = Json.to_string (Json.Obj [ ("retire", Json.Bool true) ]) in
  List.iter
    (fun p ->
      try
        Unix.clear_nonblock p.ch.fd;
        flush_out f p;
        if p.alive then Frame.write p.ch.fd (seal p.ch bye)
      with Unix.Unix_error _ -> ())
    f.peers;
  release f.peers;
  f.peers <- []

(* Quarantined poison tasks get exactly one retry here (the fault hooks
   are read only by [serve], so a task that crashed because of an
   injected fault now succeeds); the same sweep finishes every leftover
   after degradation, so a run that loses all its workers still
   completes with the same bytes. *)
let sweep f =
  List.iter
    (fun i ->
      if Supervise.is_quarantined f.st i then
        note f "task %d (product %s): retrying poison task in-process" i f.work.(i).owner;
      match run_task_guarded f.work.(i) with
      | r -> (
        match Supervise.resolve f.st i r with
        | `Fresh -> f.on_fresh i r
        | `Duplicate -> ())
      | exception e ->
        (* Unknown exception even in-process: the merge phase degrades
           this task to error[WORKER]. *)
        note f "task %d (product %s): in-process retry failed (%s)" i f.work.(i).owner
          (Printexc.to_string e))
    (Supervise.unresolved f.st)

let run f ~floor ~on_floor ?(respawn = ignore) ?listen () =
  let restore_sigpipe = Util.ignore_sigpipe () in
  Fun.protect
    ~finally:(fun () ->
      release f.peers;
      f.peers <- [];
      restore_sigpipe ())
    (fun () ->
      supervise f ~floor ~on_floor ~respawn ~listen;
      retire f;
      sweep f);
  Supervise.results f.st

(* --- the local pool ------------------------------------------------------------ *)

let fork_child f ~mem_limit ~cpu_limit =
  (* Anything buffered before the fork would be flushed once per child on
     top of once in the parent. *)
  flush stdout;
  flush stderr;
  Format.pp_print_flush Format.std_formatter ();
  Format.pp_print_flush Format.err_formatter ();
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
    (* A sibling holding another worker's socket open would mask that
       worker's EOF forever. *)
    Unix.close ours;
    List.iter (fun p -> try Unix.close p.ch.fd with Unix.Unix_error _ -> ()) f.peers;
    (try
       install_guards ~mem_limit ~cpu_limit;
       ignore (serve (chan theirs) ~stamp:f.stamp ?mem_limit f.work);
       Unix._exit 0
     with e ->
       (* Don't unwind into a second copy of the parent: report and die;
          the supervisor reassigns the in-flight task. *)
       Util.notice "llhsc worker" "%s" (Printexc.to_string e);
       Unix._exit 125)
  | pid ->
    Unix.close theirs;
    let name = Printf.sprintf "pid %d" pid in
    f.peers <- f.peers @ [ new_peer ~pid ~name ~on_frame:(fun _ _ -> ()) ours ]

(* A run's state with the tasks whose results are already known (a
   resumed run's journal records) resolved up front: they are never
   dispatched, and [on_fresh] never sees them. *)
let preresolved n resolved =
  let st = Supervise.create n in
  List.iter (fun (i, r) -> ignore (Supervise.resolve st i r)) resolved;
  st

let run_tasks ~jobs ?deadline ?(max_respawns = 8) ?mem_limit ?cpu_limit
    ?(resolved = []) ?(on_fresh = fun _ _ -> ()) (tasks : task array) =
  let n = Array.length tasks in
  let st = preresolved n resolved in
  let jobs = min jobs n in
  if jobs <= 1 then begin
    (* In-process path: no forks, no hooks, no guards — this is the
       reference schedule every supervised run must match byte for
       byte. *)
    List.iter
      (fun i ->
        let r = tasks.(i).run () in
        ignore (Supervise.resolve st i r);
        on_fresh i r)
      (Supervise.unresolved st);
    Supervise.results st
  end
  else begin
    let f = fleet ~who:"llhsc" ~stamp:"local" ?deadline ~on_fresh st tasks in
    (* Keep [jobs] children while work is queued: the first [jobs] forks
       start the pool, up to [max_respawns] more replace lost ones, with
       exponential backoff. *)
    let forked = ref 0 in
    let respawn () =
      while
        List.length f.peers < jobs && Supervise.has_pending f.st
        && !forked < jobs + max_respawns
      do
        if !forked >= jobs then
          Unix.sleepf (Float.min 0.5 (0.02 *. (2. ** float_of_int (!forked - jobs))));
        incr forked;
        fork_child f ~mem_limit ~cpu_limit
      done
    in
    (* The fleet floor with min_workers 1 and no grace: once the respawn
       budget is spent and no child is left, the rest runs in-process. *)
    run f ~floor:(1, 0.) ~respawn ()
      ~on_floor:(fun _ ->
        note f "worker respawn budget (%d) exhausted; finishing %d task(s) in-process"
          max_respawns (Supervise.pending_count f.st))
  end

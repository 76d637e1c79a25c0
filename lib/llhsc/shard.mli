(** The supervised task pool for the pipeline's per-product check phase,
    and the one task transport it shares with the socket fleet.

    The pipeline slices each product's checking work into independent
    tasks (chunks of syntactic obligations, one semantic task per
    product), each of which runs on a {e fresh} solver instance and
    produces a {!result}.  [run_tasks] executes the task list either
    in-process (`jobs <= 1`) or across up to [jobs] forked worker
    processes; because every task owns its solver, the per-task results
    are identical either way, and the pipeline's canonical-order merge
    makes the rendered report byte-identical across job counts {e and}
    across worker crash/reassignment schedules.

    {b One transport.}  A forked child and a remote fleet worker are the
    same kind of peer: a framed fd ({!Frame}) carrying JSON messages.
    The worker side is {!serve} (task → heartbeat → run → result, until
    retired); the supervisor side is {!run}, one select loop over the
    {!Supervise} state machine.  What differs by peer kind is explicit
    and small:
    - {b start}: a child is forked on a [socketpair(2)] and starts ready
      (it inherits the task array); a remote socket is accepted by the
      fleet dispatcher and becomes ready through its handshake ({!admit});
    - {b expired lease}: a child is SIGKILLed and reaped, a socket
      dropped; the lease is reassigned either way;
    - {b respawn}: the local pool replaces lost children (bounded by
      [max_respawns], exponential backoff); the fleet waits for
      reconnects;
    - {b floor}: when fewer than [min_workers] peers are live after the
      [grace] period, the rest runs in-process.  The local pool is the
      floor [min_workers = 1] with no grace.

    Supervision itself: a peer holds at most one lease; a lease that
    outlives the deadline marks the worker hung; a lost worker's task
    goes back to the queue, and a task that has crashed {e two} workers
    is quarantined and retried once in-process after the pool retires.
    Workers install [RLIMIT_AS] / [RLIMIT_CPU] guards, so a tripped
    guard degrades to a per-task [error[RESOURCE]] diagnostic.  Workers
    never touch the journal: the parent remains the sole journal writer.

    Fault hooks (read only by {!serve}, so in-process runs never consult
    them), each naming a task index [N]:
    [LLHSC_FAULT_KILL_WORKER] SIGKILLs the worker when task [N] arrives;
    [LLHSC_FAULT_HANG_WORKER] heartbeats, then hangs forever;
    [LLHSC_FAULT_OOM_WORKER] allocates until the memory guard trips
    (only with a memory limit); [LLHSC_FAULT_DROP_CONN_WORKER] drops the
    connection instead of running the task, once per process;
    [LLHSC_FAULT_DELAY_RESULT_WORKER] sleeps ~2 s before sending the
    result; [LLHSC_FAULT_DUP_RESULT_WORKER] sends the result twice. *)

(** Everything one task produced.  Query indices in [certs],
    [cert_failures] and [retried] are local to the task's solver (0-based
    from the task's first [check]); the merge renumbers them into the
    run-wide canonical sequence with {!renumber}. *)
type result = {
  product : string;  (** owning product, e.g. ["vm1"] *)
  findings : Report.finding list;
  errors : Diag.t list;
      (** isolated failures inside the task (already prefixed with the
          product name); non-empty means the product's check is incomplete *)
  queries : int;  (** solver [check] calls the task made *)
  certs : Smt.Solver.cert list;
  cert_failures : string list;
  retried : Smt.Solver.retry_entry list;
}

(** One unit of checking work.  [owner] is the product name, used for
    supervision notices and for synthesizing a degraded result when the
    task's own isolation is bypassed by a resource guard. *)
type task = { owner : string; run : unit -> result }

(** Shift every query index (including the ["query N: ..."] prefixes of
    [cert_failures]) by [offset]. *)
val renumber : offset:int -> result -> result

(** Run one task under the worker-side isolation guard: a known
    exception ([Diag.of_exn]) degrades to a result whose [errors] carry
    the diagnostic (prefixed with the owning product), unknown
    exceptions propagate.  This is THE task-execution function — the
    fork pool's children, its in-process fallback, and the remote fleet
    workers all run tasks through it, which is what keeps a task's
    result independent of where it ran. *)
val run_task_guarded : task -> result

(** Install the worker-side [RLIMIT_AS] ([mem_limit], MiB) /
    [RLIMIT_CPU] ([cpu_limit], seconds) resource guards in the calling
    process.  The fork pool installs them in each child after the fork;
    a remote fleet worker installs them once at startup. *)
val install_guards : mem_limit:int option -> cpu_limit:int option -> unit

(** The JSON encoding of a result, shared by the wire protocol and the
    journal. *)
val result_to_json : result -> Json.t

(** [None] on a structurally invalid encoding. *)
val result_of_json : Json.t -> result option

(** Number of online CPU cores (via [sysconf(_SC_NPROCESSORS_ONLN)]),
    at least 1.  [--jobs 0] resolves through this. *)
val online_cpus : unit -> int

(** [run_tasks ~jobs tasks] runs every task and returns its result, or
    [None] for tasks that could not be completed even after reassignment
    and an in-process quarantine retry.

    [jobs <= 1] (or a single task): all tasks run in this process, in
    order; exceptions propagate as usual (tasks are expected to do their
    own isolation).  This is the reference schedule: every supervised
    run merges to the same bytes.

    [jobs > 1]: the supervised pool of forked children described above.
    [deadline] is the per-task lease in seconds (no deadline when
    omitted); [max_respawns] bounds replacement workers across the whole
    run (default 8); [mem_limit] (MiB) and [cpu_limit] (seconds) install
    per-worker rlimit guards.

    [resolved] are results already known (a resumed run's journal
    records, by task index): those tasks are never run.  [on_fresh]
    sees, in the calling process, every result that wins the first-wins
    merge — after each task in-process, as results arrive from workers,
    and in the final sweep — which is where a run journals them. *)
val run_tasks :
  jobs:int ->
  ?deadline:float ->
  ?max_respawns:int ->
  ?mem_limit:int ->
  ?cpu_limit:int ->
  ?resolved:(int * result) list ->
  ?on_fresh:(int -> result -> unit) ->
  task array ->
  result option array

(** {1 Framed channels} *)

(** A peer broke the protocol: a corrupt or unsealable frame, or a
    message that makes no sense in its state. *)
exception Protocol of string

(** One end of a framed connection, as the worker side uses it
    (blocking).  Once [key] is set, every frame in both directions
    carries a session MAC with per-direction sequence numbers. *)
type chan = {
  fd : Unix.file_descr;
  dec : Frame.Decoder.t;
  mutable key : string option;
  mutable seq_in : int;
  mutable seq_out : int;
}

val chan : Unix.file_descr -> chan

(** Send one JSON message (sealed when a session key is set). *)
val send : chan -> Json.t -> unit

(** The next message; [None] on EOF.  Raises {!Protocol}. *)
val recv : chan -> Json.t option

(** {1 Worker side} *)

(** Serve task messages until retired: for each, a heartbeat, the task
    through {!run_task_guarded}, then the result, both stamped with
    [stamp] (the fleet's spec hash).  Returns [`Retired] on a retire
    message, [`Eof] when the supervisor goes away, and [`Dropped] when
    the drop hook fires.  [mem_limit] arms the OOM hook.  Raises
    {!Protocol} on a bad message. *)
val serve :
  chan -> stamp:string -> ?mem_limit:int -> task array ->
  [ `Retired | `Eof | `Dropped ]

(** {1 Supervisor side} *)

(** A supervised run: the task array, its {!Supervise} state, and the
    live peers. *)
type fleet

(** One worker connection. *)
type peer

(** [preresolved n resolved]: the state of an [n]-task run with the
    [(index, result)] pairs of [resolved] already merged, so they are
    never leased or swept. *)
val preresolved : int -> (int * result) list -> result Supervise.t

(** [fleet ~who ~stamp st tasks]: notices are prefixed [who ^ ": "];
    every heartbeat and result must echo [stamp]; [deadline] is the
    per-task lease (none when omitted); [on_fresh] sees every result
    that wins the first-wins merge, including the in-process sweep's. *)
val fleet :
  who:string ->
  stamp:string ->
  ?deadline:float ->
  ?on_fresh:(int -> result -> unit) ->
  result Supervise.t ->
  task array ->
  fleet

(** Run the select loop until every task is resolved or quarantined, or
    the floor [(min_workers, grace)] trips ([on_floor] gets the live
    peer count); then retire every peer, run the in-process sweep, and
    return the results.  [respawn] runs every round, before the select;
    [listen] is a listening fd and its accept handler.  Whatever happens,
    every forked child is SIGKILLed and reaped before [run] returns or
    raises. *)
val run :
  fleet ->
  floor:int * float ->
  on_floor:(int -> unit) ->
  ?respawn:(unit -> unit) ->
  ?listen:Unix.file_descr * (unit -> unit) ->
  unit ->
  result option array

(** Add an accepted remote connection.  Until {!admit}, its messages go
    to [on_frame] (the transport's handshake); a peer not ready within
    10 s is dropped. *)
val add_remote :
  fleet -> name:string -> on_frame:(peer -> Json.t -> unit) -> Unix.file_descr -> unit

(** The handshake is done: the peer takes leases from now on. *)
val admit : fleet -> peer -> unit

(** Queue one message (already a JSON string) for the peer, sealed when
    it has a session key. *)
val send_peer : fleet -> peer -> string -> unit

(** Drop the peer (closing it; a child is also killed and reaped) and
    reassign or quarantine its leases; [reason] completes the notice
    ["worker NAME REASON; reassigning ..."]. *)
val drop : fleet -> peer -> string -> unit

(** Count an authentication failure, print [notice[AUTH]], and drop. *)
val auth_reject : fleet -> peer -> string -> unit

(** Seal every later frame to and from the peer with this session key. *)
val set_session_key : peer -> string -> unit

val peer_name : peer -> string

(** Authentication failures counted by {!auth_reject}. *)
val auth_rejected : fleet -> int

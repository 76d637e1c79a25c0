(** Transport-agnostic supervision core, driven by the one supervisor
    loop ({!Shard.run}) for fork-pool children and fleet sockets alike.

    Owns the task-progress state that is independent of the transport:
    the pending queue, a first-wins results array (duplicate-result
    suppression: a reassigned task may legitimately complete twice — the
    first valid result wins and later copies are dropped, which is what
    makes the merge exactly-once), per-task crash counts with poison
    quarantine after two worker losses, and per-worker lease clocks with
    deadlines.  The loop holds only the peers' fds, decoders and pids
    and drives this machine. *)

(** Per-worker lease clocks: the in-flight (task, clock-start) pairs of
    one worker (the loop leases at most one per worker). *)
module Lease : sig
  type t

  val create : unit -> t

  (** [start l task now] — begin (or restart) the clock for [task]. *)
  val start : t -> int -> float -> unit

  (** Restart the clock iff [task] is leased here (a heartbeat for a
      task this worker no longer owns is ignored). *)
  val beat : t -> int -> float -> unit

  (** Drop the lease (task completed or reassigned elsewhere). *)
  val finish : t -> int -> unit

  val leased : t -> int list
  val count : t -> int

  (** Tasks whose clock has outlived [deadline] seconds. *)
  val expired : t -> deadline:float -> now:float -> int list

  (** Seconds until the earliest lease here expires ([None] when the
      worker is idle); may be negative when already overdue. *)
  val next_expiry : t -> deadline:float -> now:float -> float option
end

type 'r t

(** [create n] — [n] tasks, all pending, none resolved. *)
val create : int -> 'r t

(** The first-wins results array (indexed by task). *)
val results : 'r t -> 'r option array

val has_pending : 'r t -> bool
val pending_count : 'r t -> int

(** Pop the next pending task for dispatch. *)
val next : 'r t -> int option

(** First valid result wins; [`Duplicate] results (a reassigned task
    completing twice) are dropped without touching the merge. *)
val resolve : 'r t -> int -> 'r -> [ `Fresh | `Duplicate ]

(** Quarantined as poison after crashing two workers; excluded from the
    queue until the transport's in-process sweep. *)
val is_quarantined : 'r t -> int -> bool

(** A worker died/vanished holding this task.  [`Reassign]: requeued at
    the front.  [`Quarantine k]: the [k]-th crash poisoned it.
    [`Resolved]: the task had already produced a result; nothing to do. *)
val record_crash : 'r t -> int -> [ `Reassign | `Quarantine of int | `Resolved ]

(** Still-open work: resolved + quarantined < n.  (The transport's loop
    condition; quarantined tasks are finished as far as the worker pool
    is concerned — they wait for the in-process sweep.) *)
val unfinished : 'r t -> bool

(** Every task index with no result yet (quarantined ones included) —
    the in-process sweep's work list. *)
val unresolved : 'r t -> int list

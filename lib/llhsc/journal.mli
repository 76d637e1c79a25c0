(** Crash-safe journal of task results: an append-only JSONL file with
    one fsync'd record per check task whose result won the run's
    first-wins merge, enabling [--resume] to replay exactly the work that
    concluded before a crash — findings, errors, query counts,
    certificates and retry logs alike — whichever runner (in-process,
    fork pool or fleet) produced it.

    File layout: the first line is a header record carrying a format
    version and a hash of the run's inputs; every following line is one
    {!entry}, written as ["<json>\t<crc32 of json, 8 hex digits>"] —
    the per-line checksum catches corrupt-but-still-parseable lines
    that a JSON parse failure cannot.  Each record is written, flushed
    and [fsync]'d as its task's result is merged, so a SIGKILL at any
    point loses at most the in-flight tasks.  {!load} tolerates a
    truncated final line, skips lines whose checksum does not verify,
    and takes the last record per (hash, ordinal) when a task appears
    twice (a resumed run appends, it never rewrites).  A journal of an
    older format version is refused wholesale and its products
    re-checked. *)

(** One task's journaled result. *)
type entry = {
  hash : string;
      (** content hash of everything the owning product's verdict
          depends on (see {!product_hash} / {!partition_hash}); a
          mismatch on resume means the record is stale and the task is
          re-run *)
  ordinal : int;  (** the task's index within its product, from 0 *)
  result : Shard.result;
}

(** {1 Content hashes}

    MD5 (via stdlib [Digest]) over a canonical rendering of the inputs —
    collision resistance against adversaries is not a goal; detecting
    changed inputs across runs is. *)

(** Hash of the raw run inputs plus verdict-affecting options; computed by
    the caller from file bytes and flags, threaded through the header and
    every per-product hash. *)
val inputs_hash : parts:string list -> string

(** [product_hash ~inputs_hash ~name ~features] — what a product verdict
    depends on: the run inputs and the product's completed feature set. *)
val product_hash : inputs_hash:string -> name:string -> features:string list -> string

(** The partition verdict depends on every completed product. *)
val partition_hash :
  inputs_hash:string -> products:(string * string list) list -> string

(** {1 Writing} *)

type sink

(** Open (append mode, creating if needed) and write the header record if
    the file is new or empty, or holds a journal of other inputs or of an
    older format version (it is started over: none of its records could
    be replayed).  Raises [Sys_error] on unwritable paths
    (including {!Durable}'s injected [erofs@n] fault).  A header
    write/fsync failure does not raise: the sink opens already degraded
    (see {!degradation}). *)
val open_ : path:string -> inputs_hash:string -> sink

(** Append one record: a single JSON line, flushed and fsync'd before
    returning.  Honours the fault-injection kill hooks
    [LLHSC_FAULT_KILL_AFTER_RECORDS]/[LLHSC_FAULT_KILL_MID_RECORD] (test
    harness only: simulate SIGKILL at seeded points) and
    [LLHSC_FAULT_TERM_AFTER_RECORDS] (raise SIGTERM in-process after the
    n-th record, exercising the CLI's graceful-interrupt path); [n]
    counts the records this sink wrote, one per task result, whichever
    runner produced it.

    Fail-operational on disk errors: if the write or its fsync fails
    (ENOSPC, EIO, ...), the sink degrades instead of raising — a
    best-effort marker record is appended so {!load} refuses the file,
    every later [record] is a no-op, and {!degradation} reports the
    reason so the caller can surface a [warning[JOURNAL]].  A record is
    never reported durable when its fsync failed. *)
val record : sink -> entry -> unit

(** [Some reason] once a journal write or fsync has failed; the run
    carries on unjournaled and must report the degradation loudly. *)
val degradation : sink -> string option

val close : sink -> unit

(** {1 Loading} *)

(** Parse a journal for resumption.  Returns [[]] when the file is
    missing, unreadable, its header's inputs hash differs from
    [inputs_hash] (the whole journal is stale), or the writing run
    recorded a durability degradation — the journal stopped being
    complete at an unknowable point, and {!compact} is the explicit
    operator path that re-blesses the surviving entries.  Unparsable
    lines — e.g. a half-written final record — are skipped.  Later
    records win over earlier ones with the same (hash, ordinal). *)
val load : path:string -> inputs_hash:string -> entry list

(** {1 fsck / compact}

    Offline integrity checking and recovery, exposed by the
    [llhsc journal] subcommand and run (quietly) before every
    [--resume]. *)

type fsck_report = {
  header : [ `Ok of string | `Bad | `Missing ];
      (** [`Ok hash] carries the inputs hash the journal claims; [`Bad]
          is an unparsable or wrong-version header; [`Missing] an empty
          file *)
  records : int; (** CRC-valid, well-formed entry records *)
  entries : int; (** distinct (hash, ordinal) after last-wins merge *)
  torn : int; (** lines whose checksum is missing or does not verify *)
  invalid : int;
      (** lines whose checksum verifies (or is absent) but whose body is
          not a valid entry — torn final records land here too *)
  degraded_reason : string option;
      (** the degradation marker's reason, when the writing run recorded
          one *)
}

(** [true] when the journal has something to report: torn or invalid
    lines, or a degradation marker.  Drives the fsck exit-code contract
    (0 clean / 1 issues / 2 unusable). *)
val fsck_issues : fsck_report -> bool

(** Census a journal without loading it for resumption.  [None] when the
    file is missing or unreadable. *)
val fsck : path:string -> fsck_report option

(** Atomic last-wins rewrite: parse tolerantly (exactly like {!load},
    but also accepting a degraded journal), then atomically replace the
    file with a fresh header plus one checksummed line per surviving
    entry — dropping torn lines, superseded duplicates and any
    degradation marker.  [Ok (lines_before, entries_after)] on success;
    [Error reason] when the file is unreadable or its header is
    missing/unrecognised (the inputs hash to re-bless is unknowable).
    May raise [Sys_error]/[Unix.Unix_error] if the atomic rewrite itself
    fails. *)
val compact : path:string -> (int * int, string) result

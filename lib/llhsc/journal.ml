(* Append-only JSONL journal of task results for crash-safe pipeline
   runs.  See the .mli for the format contract; the important invariants
   live in [record]: one complete line per entry, fsync'd before control
   returns, so the window a SIGKILL can lose is exactly the in-flight
   tasks. *)

type entry = { hash : string; ordinal : int; result : Shard.result }

(* Version 1 journaled one findings-only record per product; its records
   cannot be replayed as task results, so such a journal is refused. *)
let version = 2

(* --- hashes ---------------------------------------------------------------- *)

(* '\x00' cannot appear in names/features (they come from identifiers and
   file bytes are hashed before joining), so the join is injective enough
   for staleness detection. *)
let digest_parts parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))
let inputs_hash ~parts = digest_parts ("llhsc-inputs" :: parts)

let product_hash ~inputs_hash ~name ~features =
  digest_parts ("product" :: inputs_hash :: name :: features)

let partition_hash ~inputs_hash ~products =
  digest_parts
    ("partition" :: inputs_hash
    :: List.concat_map (fun (name, features) -> name :: features) products)

(* --- entry <-> JSON -------------------------------------------------------- *)

let entry_to_json e =
  Json.Obj
    [ ("hash", Json.Str e.hash); ("task", Json.Int e.ordinal);
      ("r", Shard.result_to_json e.result) ]

let ( let* ) = Option.bind

let entry_of_json j =
  let* hash = Option.bind (Json.member "hash" j) Json.to_str in
  let* ordinal = Option.bind (Json.member "task" j) Json.to_int in
  let* result = Option.bind (Json.member "r" j) Shard.result_of_json in
  if ordinal < 0 then None else Some { hash; ordinal; result }

let header_json ~inputs_hash =
  Json.Obj [ ("llhsc-journal", Json.Int version); ("inputs", Json.Str inputs_hash) ]

let header_of_json j =
  match Option.bind Json.(member "llhsc-journal" j) Json.to_int with
  | Some v when v = version -> Option.bind (Json.member "inputs" j) Json.to_str
  | _ -> None

(* A degradation marker is appended (best-effort, no durability claim)
   when a journal write or fsync fails mid-run: the run carried on
   checking but stopped journaling, so the file must never be trusted by
   [--resume] again.  [compact] is the explicit operator path that drops
   the marker. *)
let degraded_json reason = Json.Obj [ ("llhsc-degraded", Json.Str reason) ]
let degraded_of_json j = Option.bind (Json.member "llhsc-degraded" j) Json.to_str

let reason_of_exn = function
  | Unix.Unix_error (e, op, _) -> Printf.sprintf "%s: %s" op (Unix.error_message e)
  | Sys_error m -> m
  | e -> Printexc.to_string e

(* --- fault-injection kill hooks -------------------------------------------- *)

(* The fault harness simulates a crash at a seeded point by having the
   journal SIGKILL its own process: either right after the n-th record
   lands (clean cut between lines) or halfway through writing it (torn
   final line, which [load] must skip). *)
let kill_self () = Unix.kill (Unix.getpid ()) Sys.sigkill

let env_int name =
  match Sys.getenv_opt name with None -> None | Some v -> int_of_string_opt v

(* --- line checksums -------------------------------------------------------- *)

(* A record line is "<json>\t<crc32 of json, 8 lowercase hex digits>".
   [Json.to_string] escapes control characters, so a raw tab can never
   appear inside the JSON itself and the last tab splits unambiguously.
   The checksum catches corrupt-but-still-parseable lines (bit rot, a
   partial overwrite that happens to stay valid JSON) that the parse
   failure heuristic cannot. *)
let checksummed line = Printf.sprintf "%s\t%08x" line (Util.crc32 line)

(* [Some body] when the line's CRC verifies; [None] when the checksum is
   torn, wrong or missing. *)
let verify_line line =
  match String.rindex_opt line '\t' with
  | None -> None
  | Some t ->
    let body = String.sub line 0 t in
    let crc = String.sub line (t + 1) (String.length line - t - 1) in
    if
      String.length crc = 8
      && String.for_all
           (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
           crc
      && int_of_string_opt ("0x" ^ crc) = Some (Util.crc32 body)
    then Some body
    else None

(* --- sink ------------------------------------------------------------------ *)

type sink = { oc : out_channel; mutable written : int; mutable degraded : string option }

(* fsync failure PROPAGATES ([Durable.sync]): a record must never be
   reported durable when its fsync failed.  [record] catches the failure
   and degrades the sink instead of crashing the check. *)
let sync oc = Durable.sync oc

(* Fail-operational: remember why journaling stopped, leave a marker so
   [load] refuses the file, and let the run carry on unjournaled.  The
   marker write is best-effort over the raw channel (the disk is already
   failing; the leading newline terminates any torn line the failed
   write left behind). *)
let degrade sink reason =
  sink.degraded <- Some reason;
  try
    output_char sink.oc '\n';
    output_string sink.oc (checksummed (Json.to_string (degraded_json reason)));
    output_char sink.oc '\n';
    flush sink.oc
  with Sys_error _ -> ()

let degradation sink = sink.degraded

(* A journal is appended to only under its own header.  A missing or
   empty file starts fresh, and so does a journal of other inputs or of
   an older format: none of its records could be replayed by this run or
   a resume of it.  Any other file is appended to as before. *)
let starts_fresh ~path ~inputs_hash =
  match In_channel.with_open_bin path In_channel.input_line with
  | exception Sys_error _ -> true
  | None -> true
  | Some line -> (
    match Json.parse line with
    | Ok j when Json.member "llhsc-journal" j <> None ->
      header_of_json j <> Some inputs_hash
    | _ -> false)

let open_ ~path ~inputs_hash =
  let fresh = starts_fresh ~path ~inputs_hash in
  let oc = Durable.open_for_append path in
  let sink = { oc; written = 0; degraded = None } in
  if fresh then begin
    try
      Unix.ftruncate (Unix.descr_of_out_channel oc) 0;
      Durable.out_string oc (Json.to_string (header_json ~inputs_hash) ^ "\n");
      sync oc
    with (Unix.Unix_error _ | Sys_error _) as e -> degrade sink (reason_of_exn e)
  end;
  sink

let record sink entry =
  if sink.degraded <> None then () (* fail-operational: journaling is off *)
  else begin
    let line = checksummed (Json.to_string (entry_to_json entry)) in
    sink.written <- sink.written + 1;
    (match env_int "LLHSC_FAULT_KILL_MID_RECORD" with
     | Some n when n = sink.written ->
       (* Torn write: half the record, no newline, then die. *)
       output_string sink.oc (String.sub line 0 (String.length line / 2));
       flush sink.oc;
       (try sync sink.oc with Unix.Unix_error _ | Sys_error _ -> ());
       kill_self ()
     | _ -> ());
    (match
       Durable.out_string sink.oc (line ^ "\n");
       sync sink.oc
     with
     | () -> ()
     | exception ((Unix.Unix_error _ | Sys_error _) as e) ->
       degrade sink (reason_of_exn e));
    if sink.degraded = None then begin
      (match env_int "LLHSC_FAULT_KILL_AFTER_RECORDS" with
       | Some n when n = sink.written -> kill_self ()
       | _ -> ());
      (* Unlike the SIGKILL hooks above, this one is catchable: it
         exercises the CLI's graceful-interrupt path (close the journal,
         exit 128+15) rather than simulating a crash. *)
      match env_int "LLHSC_FAULT_TERM_AFTER_RECORDS" with
      | Some n when n = sink.written -> Unix.kill (Unix.getpid ()) Sys.sigterm
      | _ -> ()
    end
  end

(* After a degradation the channel may hold the tail of a failed write
   whose flush would raise again; nothing durable is lost by dropping it. *)
let close sink =
  match sink.degraded with
  | Some _ -> close_out_noerr sink.oc
  | None -> close_out sink.oc

(* --- load ------------------------------------------------------------------ *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
        close_in ic;
        Some (List.rev acc)
    in
    go []

(* Split a journal into (header verdict, record lines).  [None] when the
   file is missing or unreadable. *)
let scan path =
  match read_lines path with
  | None -> None
  | Some [] -> Some (`Missing, [])
  | Some (header :: rest) ->
    let verdict =
      match Option.bind (Result.to_option (Json.parse header)) header_of_json with
      | Some ih -> `Ok ih
      | None -> `Bad
    in
    Some (verdict, rest)

type fsck_report = {
  header : [ `Ok of string | `Bad | `Missing ];
  records : int;
  entries : int;
  torn : int;
  invalid : int;
  degraded_reason : string option;
}

(* One pass over the record lines: the entries, last record winning per
   (hash, ordinal) — a resumed run appends fresher results rather than
   rewriting the file — and the census [fsck] reports. *)
let read_records header rest =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  let records = ref 0 and torn = ref 0 and invalid = ref 0 in
  let degraded = ref None in
  List.iter
    (fun line ->
      if String.trim line = "" then () (* separator left by a degradation *)
      else
        match verify_line line with
        | None -> incr torn (* checksum mismatch: corrupt or torn line *)
        | Some body -> (
          match Json.parse body with
          | Error _ -> incr invalid
          | Ok j -> (
            match degraded_of_json j with
            | Some r -> degraded := Some r
            | None -> (
              match entry_of_json j with
              | None -> incr invalid
              | Some e ->
                incr records;
                let key = (e.hash, e.ordinal) in
                if not (Hashtbl.mem tbl key) then order := key :: !order;
                Hashtbl.replace tbl key e))))
    rest;
  ( List.rev_map (fun key -> Hashtbl.find tbl key) !order,
    { header; records = !records; entries = Hashtbl.length tbl; torn = !torn;
      invalid = !invalid; degraded_reason = !degraded } )

let load ~path ~inputs_hash =
  match scan path with
  | Some ((`Ok ih as header), rest) when ih = inputs_hash ->
    let entries, census = read_records header rest in
    (* A journal whose run recorded a degradation stopped being complete
       at an unknowable point; trusting it could silently skip re-checks. *)
    if census.degraded_reason <> None then [] else entries
  | _ -> []

(* --- fsck / compact -------------------------------------------------------- *)

let fsck_issues r = r.torn > 0 || r.invalid > 0 || r.degraded_reason <> None

let fsck ~path =
  Option.map (fun (header, rest) -> snd (read_records header rest)) (scan path)

let compact ~path =
  match scan path with
  | None -> Error (path ^ ": cannot read journal")
  | Some (`Missing, _) -> Error (path ^ ": empty journal, nothing to compact")
  | Some (`Bad, _) -> Error (path ^ ": unrecognised journal header")
  | Some ((`Ok ih as header), rest) ->
    let entries, _ = read_records header rest in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf (Json.to_string (header_json ~inputs_hash:ih));
    Buffer.add_char buf '\n';
    List.iter
      (fun e ->
        Buffer.add_string buf (checksummed (Json.to_string (entry_to_json e)));
        Buffer.add_char buf '\n')
      entries;
    (* Atomic rewrite: a crash mid-compact leaves the old journal intact.
       Dropping the degradation marker here is deliberate — compacting is
       the explicit operator act that re-blesses the surviving entries. *)
    Durable.write_file ~path (Buffer.contents buf);
    Ok (List.length rest, List.length entries)

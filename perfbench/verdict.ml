(* A verdict is what a report says, stripped of wording: the multiset of
   (section, severity, checker, node path) of every finding, plus every
   structured diagnostic line.  Sections are product names ("vm1", ...,
   "platform"), "partition" for the cross-VM checks, "alloc" for
   allocation findings and "check" for a single-DTS `llhsc check` report.

   The generator states its expected verdict in this form; every report
   the benchmark receives — rendered in-process, printed by the CLI,
   relayed by the fleet dispatcher or returned by `llhsc serve` — is
   parsed back into it, so one comparison covers every workload. *)

type entry = { section : string; severity : string; checker : string; path : string }
type t = entry list (* sorted *)

let entry ~section ~severity ~checker ~path = { section; severity; checker; path }
let of_entries l = List.sort compare l
let equal (a : t) (b : t) = a = b

let pp_entry e = Printf.sprintf "%s: [%s] %s %s" e.section e.severity e.checker e.path
let to_string v = String.concat "; " (List.map pp_entry v)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* "[sev] checker: path: message" -> Some (sev, checker, path). *)
let parse_finding s =
  match String.index_opt s ']' with
  | Some i when s.[0] = '[' -> (
    let severity = String.sub s 1 (i - 1) in
    let rest = String.sub s (i + 1) (String.length s - i - 1) |> String.trim in
    match String.split_on_char ':' rest with
    | checker :: path :: _ :: _ -> Some (severity, checker, String.trim path)
    | _ -> None)
  | _ -> None

(* Diagnostics ("error[CODE]: ...", "warning[JOURNAL]: ...") never belong in
   a healthy report; they enter the verdict so any one is a mismatch. *)
let parse_diag s =
  match String.index_opt s '[' with
  | Some i when i > 0 && String.contains s ']' ->
    let severity = String.sub s 0 i in
    if severity = "error" || severity = "warning" then
      let j = String.index s ']' in
      Some (severity, String.sub s (i + 1) (j - i - 1))
    else None
  | _ -> None

let of_report text =
  let section = ref "check" in
  let out = ref [] in
  List.iter
    (fun raw ->
      let indented = raw <> "" && raw.[0] = ' ' in
      let s = String.trim raw in
      if starts_with ~prefix:"product " s && not indented then begin
        match String.index_opt s ':' with
        | Some i -> section := String.sub s 8 (i - 8)
        | None -> ()
      end
      else if s = "cross-VM partitioning:" then section := "partition"
      else if s <> "" && s.[0] = '[' then begin
        match parse_finding s with
        | Some (severity, checker, path) ->
          let section = if (not indented) && checker = "alloc" then "alloc" else !section in
          out := { section; severity; checker; path } :: !out
        | None -> out := { section = "unparsed"; severity = ""; checker = ""; path = s } :: !out
      end
      else
        match parse_diag s with
        | Some (severity, code) when not indented ->
          out := { section = "diag"; severity; checker = code; path = "" } :: !out
        | _ -> ())
    (String.split_on_char '\n' text);
  of_entries !out

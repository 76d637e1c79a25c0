(* In-memory spans for the traced run.

   Every span records its name, start, end, parent span and the operation
   it belongs to.  Spans are recorded only around calls the benchmark
   itself makes into the checker's public functions — nothing inside the
   library is instrumented — and are written out as JSON when the run
   ends.  With tracing off, [span] is a plain call. *)

external now : unit -> float = "perfbench_monotonic"

type span = {
  id : int;
  name : string;
  op : int; (* operation id; -1 outside any operation *)
  parent : int; (* enclosing span id; -1 for a root *)
  start : float;
  mutable stop : float;
}

let enabled = ref false
let recorded : span list ref = ref [] (* newest first *)
let stack : span list ref = ref []
let next_id = ref 0
let current_op = ref (-1)

let span name f =
  if not !enabled then f ()
  else begin
    let s =
      { id = !next_id; name; op = !current_op;
        parent = (match !stack with p :: _ -> p.id | [] -> -1);
        start = now (); stop = nan }
    in
    incr next_id;
    stack := s :: !stack;
    recorded := s :: !recorded;
    let finish () =
      s.stop <- now ();
      stack := List.tl !stack
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* One traced operation: a root span named "op" whose children are the
   layer calls. *)
let operation id f =
  current_op := id;
  Fun.protect ~finally:(fun () -> current_op := -1) (fun () -> span "op" f)

let spans () = List.rev !recorded
let duration s = s.stop -. s.start

(* Self time: a span's duration minus the part its children cover. *)
let self_times spans =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)))
    spans

(* Seconds of self time per span name, over spans matching [keep]. *)
let self_by_name ?(keep = fun _ -> true) spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      if keep s then
        Hashtbl.replace tbl s.name (self +. Option.value ~default:0. (Hashtbl.find_opt tbl s.name)))
    (self_times spans);
  tbl

(* Share of operation wall time covered by layer spans: the self time of
   everything below the "op" roots over the roots' total duration. *)
let coverage spans =
  let ops = List.filter (fun s -> s.name = "op" && s.parent < 0) spans in
  let total = List.fold_left (fun acc s -> acc +. duration s) 0. ops in
  let uncovered =
    List.fold_left
      (fun acc (s, self) -> if s.name = "op" && s.parent < 0 then acc +. self else acc)
      0. (self_times spans)
  in
  if total <= 0. then 0. else (total -. uncovered) /. total

let to_json spans =
  let b = Buffer.create (64 * (List.length spans + 1)) in
  Buffer.add_string b "{\"spans\": [";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n ";
      Printf.bprintf b
        "{\"id\": %d, \"name\": %S, \"op\": %d, \"parent\": %d, \"start_us\": %.1f, \"end_us\": %.1f}"
        s.id s.name s.op s.parent (s.start *. 1e6) (s.stop *. 1e6))
    spans;
  Buffer.add_string b "]}\n";
  Buffer.contents b

let reset () =
  recorded := [];
  stack := [];
  next_id := 0;
  current_op := -1

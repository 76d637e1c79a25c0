(* Child processes and loopback HTTP for the benchmark's load process.

   Every child the benchmark starts is registered until it is reaped, and
   [cleanup] (run at exit, also on failure) terminates and reaps whatever
   is left, so no run leaves a daemon or worker behind. *)

external maxrss_kb : unit -> int = "perfbench_maxrss_kb"

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt
let live : (int, unit) Hashtbl.t = Hashtbl.create 8
let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0)

(* Children get a private TMPDIR inside the work directory: `llhsc serve`
   writes its per-job input directories there. *)
let child_env = ref (Unix.environment ())

(* Where launch.exe writes the peak RSS of each measured child, keyed by
   the launcher's pid until it is reaped. *)
let rss_dir = ref Filename.current_dir_name
let rss_count = ref 0
let rss_files : (int, string) Hashtbl.t = Hashtbl.create 8
let launcher = lazy (Filename.concat (Filename.dirname Sys.executable_name) "launch.exe")

(* With [~measured:true] the child runs under launch.exe, so that its
   peak RSS is its own and not the load process's; see launch.c. *)
let spawn ?(stdout = Lazy.force devnull) ?(measured = false) prog args =
  incr rss_count;
  let rss_file = Filename.concat !rss_dir (Printf.sprintf "rss-%d" !rss_count) in
  let prog, args =
    if measured then (Lazy.force launcher, rss_file :: prog :: args) else (prog, args)
  in
  let pid =
    Unix.create_process_env prog (Array.of_list (prog :: args)) !child_env
      (Lazy.force devnull) stdout (Lazy.force devnull)
  in
  Hashtbl.replace live pid ();
  if measured then Hashtbl.replace rss_files pid rss_file;
  pid

external wait4 : int -> bool -> int * bool * int * int = "perfbench_wait4"

(* How a child ended: its exit code (-1 after a signal) and the peak RSS
   of it and its reaped descendants (0 when not measured). *)
type ended = { code : int; rss_kb : int }

let eintr = 4

let rec wait4_retry pid nohang =
  match wait4 pid nohang with
  | -1, _, e, _ when e = eintr -> wait4_retry pid nohang
  | -1, _, e, _ -> fail "wait4 on %d: errno %d" pid e
  | 0, _, _, _ -> None
  | _, exited, code, _ ->
    Hashtbl.remove live pid;
    let rss_kb =
      match Hashtbl.find_opt rss_files pid with
      | None -> 0
      | Some file ->
        Hashtbl.remove rss_files pid;
        let kb = try In_channel.with_open_text file input_line |> int_of_string with _ -> 0 in
        (try Sys.remove file with Sys_error _ -> ());
        kb
    in
    Some { code = (if exited then code else -1); rss_kb }

(* Reap [pid] within [timeout] seconds, SIGKILLing it past that. *)
let wait_within ~timeout pid =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match wait4_retry pid true with
    | Some e -> e
    | None when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.002;
      go ()
    | None ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      { (Option.get (wait4_retry pid false)) with code = -1 }
  in
  go ()

let cleanup () =
  let pids = Hashtbl.fold (fun pid () acc -> pid :: acc) live [] in
  List.iter (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) pids;
  List.iter (fun pid -> ignore (wait_within ~timeout:3. pid)) pids

(* Read [fd] to EOF, giving up after [timeout] seconds. *)
let read_all ~timeout fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then false
    else
      match Unix.select [ fd ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | [], _, _ -> go ()
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> true
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> true)
  in
  let complete = go () in
  (complete, Buffer.contents buf)

(* Run [prog args] to completion: how it ended and its stdout. *)
let run_capture ?measured ~timeout prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = spawn ~stdout:w ?measured prog args in
  Unix.close w;
  let complete, out = read_all ~timeout r in
  Unix.close r;
  (wait_within ~timeout:(if complete then timeout else 0.) pid, out)

(* CPU seconds, user + system, of this process and its reaped children. *)
let self_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

(* --- loopback HTTP/1.1 (the daemon answers one request per connection) --- *)

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let request_bytes ~meth ~path ?(headers = []) body =
  Printf.sprintf "%s %s HTTP/1.1\r\nHost: bench\r\n%sContent-Length: %d\r\n\r\n%s" meth path
    (String.concat "" (List.map (fun (k, v) -> k ^ ": " ^ v ^ "\r\n") headers))
    (String.length body) body

(* (status, body) of a complete response; status -1 when malformed. *)
let parse_response raw =
  match Scanf.sscanf raw "HTTP/1.1 %d" Fun.id with
  | exception _ -> (-1, "")
  | status ->
    let rec find i =
      if i + 4 > String.length raw then None
      else if String.sub raw i 4 = "\r\n\r\n" then Some (i + 4)
      else find (i + 1)
    in
    (match find 0 with
     | Some i -> (status, String.sub raw i (String.length raw - i))
     | None -> (-1, ""))

let http ~timeout port req =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd req 0;
      let complete, raw = read_all ~timeout fd in
      if complete then parse_response raw else (-1, ""))

(* The fleet dispatcher: shard a task array across remote socket workers
   through the same supervisor loop as the fork pool ({!Llhsc.Shard.run}).

   This module owns only what is specific to remote peers: the listening
   socket, the handshake that makes a connection ready (hello ->
   [challenge -> auth] -> setup -> ready, with the spec hash and task
   count checked so a worker that planned a different run is rejected
   before it can contribute a result), and spec shipping with the
   warm-cache shortcut.  Leases, heartbeats, results, first-wins merge
   (and with it the journal, through [on_fresh]), reassignment,
   quarantine, deadlines and the in-process sweep are the shared loop's.

   Termination never depends on workers: when the live fleet falls below
   the configured floor after the registration grace, the loop exits and
   the in-process sweep runs every unresolved task locally — a run that
   loses ALL its workers still completes, merging to the same bytes. *)

module Json = Llhsc.Json
module Shard = Llhsc.Shard
module Supervise = Llhsc.Supervise
module Hmac = Llhsc.Hmac

type config = {
  host : string;
  port : int; (* 0 picks an ephemeral port *)
  min_workers : int; (* degrade to in-process below this floor *)
  wait_workers : float; (* registration grace before the floor applies *)
  deadline : float; (* per-task lease, seconds *)
  port_file : string option; (* write the bound port here (for tests) *)
  secret : string option; (* require the HMAC handshake (--secret-file) *)
}

let notice fmt = Llhsc.Util.notice "llhsc dispatch" fmt

(* Where a not-yet-ready connection is in the handshake. *)
type state =
  | Awaiting_hello
  | Awaiting_auth of string * string (* (nonce_w, nonce_d) *)
  | Awaiting_ready

let addr_of host port =
  let ip =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> failwith (Printf.sprintf "cannot resolve host %S" host))
  in
  Unix.ADDR_INET (ip, port)

let peer_name fd =
  match Unix.getpeername fd with
  | Unix.ADDR_INET (ip, port) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port
  | Unix.ADDR_UNIX p -> p
  | exception Unix.Unix_error _ -> "?"

(* --- protocol messages ------------------------------------------------------ *)

let msg_setup spec hash =
  Json.to_string (Json.Obj [ ("setup", Spec.to_wire spec); ("hash", Json.Str hash) ])

(* Bandwidth-aware setup: a worker whose hello advertised this spec hash
   already holds the built task array from an earlier session, so the
   setup carries only the hash — no spec body.  A worker that lost its
   cache replies with an error and the dispatcher falls back to shipping
   in full. *)
let msg_setup_cached hash =
  Json.to_string
    (Json.Obj
       [ ("setup", Json.Obj [ ("cached", Json.Bool true) ]);
         ("hash", Json.Str hash) ])

let setup_choice ~cached ~spec_hash =
  if List.mem spec_hash cached then `Cached else `Ship

(* --- run -------------------------------------------------------------------- *)

let run cfg ~spec ~resolved ~on_fresh (tasks : Shard.task array) =
  let n = Array.length tasks in
  let st = Shard.preresolved n resolved in
  let spec_hash = Spec.hash spec in
  let setup_payload = msg_setup spec spec_hash in
  (* Hello nonces seen this run: a replayed hello is rejected. *)
  let seen_nonces : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  (* Spec transfers skipped because the worker's hello advertised a warm
     cache of this spec hash (bandwidth-aware scheduling). *)
  let spec_skips = ref 0 in

  let f =
    Shard.fleet ~who:"llhsc dispatch" ~stamp:spec_hash ~deadline:cfg.deadline
      ~on_fresh st tasks
  in

  (* One connection's handshake, up to {!Shard.admit}.  An
     unauthenticated peer never sees the spec and never holds a lease. *)
  let mac key label a b = Hmac.to_hex (Hmac.hmac ~key (label ^ a ^ ":" ^ b)) in
  let handshake () =
    let state = ref Awaiting_hello in
    let cached = ref [] in
    let sent_cached = ref false in
    (* Ship the spec, or just its hash when the worker's hello advertised
       a warm cache for it — the worker rebuilds its task array from the
       cache and replies ready exactly as if the spec had been shipped. *)
    let send_setup p =
      state := Awaiting_ready;
      match setup_choice ~cached:!cached ~spec_hash with
      | `Cached ->
        sent_cached := true;
        incr spec_skips;
        notice "worker %s has spec %s cached; skipping spec transfer" (Shard.peer_name p)
          spec_hash;
        Shard.send_peer f p (msg_setup_cached spec_hash)
      | `Ship ->
        sent_cached := false;
        Shard.send_peer f p setup_payload
    in
    fun p j ->
      match !state with
      | Awaiting_hello -> (
        match Json.member "hello" j with
        | None -> Shard.drop f p "spoke before hello"
        | Some hello -> (
          cached :=
            Option.value ~default:[]
              (Option.bind (Json.member "cached" hello) Json.to_str_list);
          match cfg.secret with
          | None -> send_setup p
          | Some secret -> (
            (* Challenge–response: never ship the spec to a peer that has
               not proven knowledge of the shared secret. *)
            match Option.bind (Json.member "nonce" hello) Json.to_str with
            | None -> Shard.auth_reject f p "unauthenticated hello (no nonce)"
            | Some nw when Hashtbl.mem seen_nonces nw ->
              Shard.auth_reject f p "replayed hello nonce"
            | Some nw ->
              Hashtbl.add seen_nonces nw ();
              let nd = Hmac.nonce () in
              state := Awaiting_auth (nw, nd);
              let mac_d = mac secret "llhsc-disp:" nw nd in
              Shard.send_peer f p
                (Json.to_string
                   (Json.Obj
                      [ ( "challenge",
                          Json.Obj [ ("nonce", Json.Str nd); ("mac", Json.Str mac_d) ] ) ])))))
      | Awaiting_auth (nw, nd) -> (
        match (Json.member "auth" j, cfg.secret) with
        | Some aj, Some secret -> (
          match Option.bind (Json.member "mac" aj) Json.to_str with
          | None -> Shard.auth_reject f p "auth without mac"
          | Some mac_w when Hmac.equal (mac secret "llhsc-work:" nd nw) mac_w ->
            Shard.set_session_key p (Hmac.hmac ~key:secret ("llhsc-sess:" ^ nw ^ ":" ^ nd));
            send_setup p
          | Some _ -> Shard.auth_reject f p "bad auth mac")
        | _ -> Shard.auth_reject f p "spoke before authenticating")
      | Awaiting_ready -> (
        match Json.member "ready" j with
        | Some r ->
          let h = Option.bind (Json.member "spec" r) Json.to_str in
          let k = Option.bind (Json.member "tasks" r) Json.to_int in
          if h = Some spec_hash && k = Some n then Shard.admit f p
          else
            (* The worker planned a different run (version skew, wrong
               inputs): none of its results would be trustworthy. *)
            Shard.drop f p
              (Printf.sprintf "planned a different run (spec %s, %s tasks)"
                 (Option.value ~default:"?" h)
                 (match k with Some k -> string_of_int k | None -> "?"))
        | None -> (
          match Option.bind (Json.member "error" j) Json.to_str with
          | Some msg when !sent_cached ->
            (* The worker advertised this spec but lost its cache (e.g. a
               restart between hello and setup): fall back to shipping in
               full rather than dropping a healthy worker. *)
            notice "worker %s lost its cached spec (%s); shipping in full"
              (Shard.peer_name p) msg;
            sent_cached := false;
            decr spec_skips;
            Shard.send_peer f p setup_payload
          | Some msg -> Shard.drop f p (Printf.sprintf "failed to plan: %s" msg)
          | None -> Shard.drop f p "spoke before ready"))
  in

  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let accept () =
    match Llhsc.Util.retry_eintr (fun () -> Unix.accept lfd) with
    | exception Unix.Unix_error _ -> () (* EAGAIN, ECONNABORTED, ... *)
    | fd, _ ->
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      Shard.add_remote f ~name:(peer_name fd) ~on_frame:(handshake ()) fd
  in
  let supervise () =
    (* A dispatcher that cannot listen (port stolen, host misresolved)
       still completes the run: the floor trips at once and everything
       runs in the in-process sweep — the serve daemon relies on this
       when it races other jobs for fleet listen addresses. *)
    match
      Unix.setsockopt lfd Unix.SO_REUSEADDR true;
      Unix.bind lfd (addr_of cfg.host cfg.port);
      Unix.listen lfd 64;
      Unix.set_nonblock lfd
    with
    | exception (Unix.Unix_error _ | Failure _) ->
      notice "cannot listen on %s:%d; finishing %d task(s) in-process" cfg.host cfg.port
        (List.length (Supervise.unresolved st));
      Shard.run f ~floor:(1, 0.) ~on_floor:ignore ()
    | () ->
      let bound_port =
        match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> cfg.port
      in
      notice "listening on %s:%d (fleet floor %d, grace %.1fs)" cfg.host bound_port
        cfg.min_workers cfg.wait_workers;
      (* Atomic: a polling reader sees the old port file or the complete
         new one, never a partially-written port number. *)
      Option.iter
        (fun path -> Llhsc.Durable.write_file ~path (Printf.sprintf "%d\n" bound_port))
        cfg.port_file;
      Shard.run f ~floor:(cfg.min_workers, cfg.wait_workers) ~listen:(lfd, accept) ()
        ~on_floor:(fun live ->
          notice "fleet below %d worker(s) (%d connected); finishing %d task(s) in-process"
            cfg.min_workers live (List.length (Supervise.unresolved st)))
  in
  let finish () = try Unix.close lfd with Unix.Unix_error _ -> () in
  let results = Fun.protect ~finally:finish supervise in
  if Shard.auth_rejected f > 0 then
    notice "auth: rejected %d connection attempt(s)" (Shard.auth_rejected f);
  if !spec_skips > 0 then
    notice "spec cache: skipped %d spec transfer(s) to worker(s) with a warm cache"
      !spec_skips;
  results

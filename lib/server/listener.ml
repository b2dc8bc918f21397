(* The accept path shared by `mrm2 serve` and `mrm2 route`: bind, an
   acceptor thread, one handler thread per connection speaking JSONL
   through [Wire], an idempotent drain, and the shutdown-signal watcher.
   The owner supplies only what to answer for a request line. *)

module Metrics = Mrm_obs.Metrics

type endpoint = [ `Unix of string | `Tcp of string * int ]

type t = {
  endpoint : endpoint;
  listen_fd : Unix.file_descr;
  address : Unix.sockaddr;
  wake_r : Unix.file_descr;  (* self-pipe: drain wakes acceptor and sleepers *)
  wake_w : Unix.file_descr;
  stop : bool Atomic.t;
  connections : Metrics.counter;
  respond : lineno:int -> string -> string;
  registry : (Unix.file_descr, unit) Hashtbl.t;  (* open connections, under reg_mutex *)
  reg_mutex : Mutex.t;
  handler_done : Condition.t;  (* a handler thread exited *)
  mutable acceptor : Thread.t option;
}

let address l = l.address
let stopping l = Atomic.get l.stop

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* ------------------------------------------------------------------ *)
(* Binding *)

(* A Unix socket path left behind by a crashed instance must be
   unlinked before bind — but only after proving it is stale. A connect
   probe decides: a live listener accepts (refuse to clobber a running
   server: EADDRINUSE, exactly what bind would have said), a leftover
   from a dead process refuses the connection. A path that is not a
   socket at all is never touched. *)
let remove_stale_socket path =
  match Unix.stat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | stats when stats.Unix.st_kind <> Unix.S_SOCK ->
      raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path))
  | _ -> begin
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let verdict =
        Fun.protect
          ~finally:(fun () ->
            try Unix.close probe with Unix.Unix_error _ -> ())
          (fun () ->
            match Unix.connect probe (Unix.ADDR_UNIX path) with
            | () -> `Live
            | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> `Stale
            | exception Unix.Unix_error (Unix.ENOENT, _, _) -> `Gone
            | exception Unix.Unix_error _ ->
                (* Can't prove it stale (EACCES, ...): don't clobber. *)
                `Live)
      in
      match verdict with
      | `Gone -> ()
      | `Stale -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
      | `Live -> raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path))
    end

let bind endpoint =
  match endpoint with
  | `Unix path ->
      remove_stale_socket path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | `Tcp (host, port) ->
      let addr =
        if host = "" || host = "*" then Unix.inet_addr_any
        else if host = "localhost" then Unix.inet_addr_loopback
        else begin
          match Unix.inet_addr_of_string host with
          | addr -> addr
          | exception Failure _ ->
              (Unix.gethostbyname host).Unix.h_addr_list.(0)
        end
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 64;
      fd

(* ------------------------------------------------------------------ *)
(* Connections *)

let unregister l fd =
  (with_lock l.reg_mutex @@ fun () ->
   Hashtbl.remove l.registry fd;
   Condition.broadcast l.handler_done);
  (* Off the registry: drain can no longer race this close. *)
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Raw-descriptor line I/O via [Wire]: EINTR from the systhreads tick
   signal is retried instead of surfacing as a bogus disconnect. A
   drain's half-close ([SHUTDOWN_RECEIVE]) makes the blocked read
   return 0, i.e. [Wire.Closed]. *)
let handle_connection l fd =
  let wire = Wire.of_fd fd in
  let rec loop lineno =
    match Wire.read_line wire with
    | exception (Wire.Closed | Wire.Timeout | Unix.Unix_error _) -> ()
    | line -> (
        let line = String.trim line in
        if line = "" then loop (lineno + 1)
        else
          match Wire.write_line wire (l.respond ~lineno line) with
          | () -> if not (stopping l) then loop (lineno + 1)
          | exception (Wire.Closed | Wire.Timeout | Unix.Unix_error _) -> ())
  in
  Fun.protect ~finally:(fun () -> unregister l fd) (fun () -> loop 1)

let spawn_connection l fd =
  Metrics.incr l.connections;
  with_lock l.reg_mutex (fun () -> Hashtbl.replace l.registry fd ());
  (* A drain that iterated the registry before we registered would miss
     this connection; re-check the stop flag so the handler still sees
     EOF promptly. *)
  if stopping l then begin
    try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
    with Unix.Unix_error _ -> ()
  end;
  ignore (Thread.create (handle_connection l) fd)

let accept_loop l =
  let rec loop () =
    if not (stopping l) then begin
      match Unix.select [ l.listen_fd; l.wake_r ] [] [] (-1.) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | ready, _, _ ->
          if stopping l then ()
          else begin
            if List.memq l.listen_fd ready then begin
              match Unix.accept l.listen_fd with
              | fd, _ -> spawn_connection l fd
              | exception Unix.Unix_error _ -> ()
            end;
            loop ()
          end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let start ~connections endpoint respond =
  let listen_fd = bind endpoint in
  let wake_r, wake_w = Unix.pipe () in
  let l =
    {
      endpoint;
      listen_fd;
      address = Unix.getsockname listen_fd;
      wake_r;
      wake_w;
      stop = Atomic.make false;
      connections;
      respond;
      registry = Hashtbl.create 16;
      reg_mutex = Mutex.create ();
      handler_done = Condition.create ();
      acceptor = None;
    }
  in
  l.acceptor <- Some (Thread.create accept_loop l);
  l

let drain l =
  let first = not (Atomic.exchange l.stop true) in
  if first then begin
    (* Wake the acceptor's select and every [sleep]. The byte is never
       consumed, so each later select returns at once. *)
    (try ignore (Unix.write l.wake_w (Bytes.of_string "x") 0 1)
     with Unix.Unix_error _ -> ());
    (* Half-close every open connection: handlers blocked in a read see
       EOF and exit; handlers mid-request finish, flush the response,
       then exit on the stop flag. Snapshot the registry under the lock,
       shut down outside it: shutdown is a syscall that can fail
       arbitrarily, and a handler unregistering concurrently only makes
       its fd's shutdown a caught no-op. *)
    let fds =
      with_lock l.reg_mutex @@ fun () ->
      Hashtbl.fold (fun fd () acc -> fd :: acc) l.registry []
    in
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
        with Unix.Unix_error _ -> ())
      fds
  end;
  first

let sleep l seconds =
  (if not (stopping l) then
     match Unix.select [ l.wake_r ] [] [] seconds with
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
     | _ -> ());
  not (stopping l)

let wait l =
  (match l.acceptor with Some t -> Thread.join t | None -> ());
  (with_lock l.reg_mutex @@ fun () ->
   while Hashtbl.length l.registry > 0 do
     Condition.wait l.handler_done l.reg_mutex
   done);
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ l.listen_fd; l.wake_r; l.wake_w ];
  match l.endpoint with
  | `Unix path ->
      (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | `Tcp _ -> ()

let with_shutdown_signals ~drain start =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let signals = [ Sys.sigterm; Sys.sigint ] in
  (* Block the shutdown signals BEFORE spawning any thread (threads
     inherit the mask), then consume them from a dedicated watcher: the
     classic threaded-daemon pattern — no async-signal-unsafe work in a
     signal handler, no thread left with the default disposition, and
     repeated signals stay graceful. *)
  ignore (Thread.sigmask Unix.SIG_BLOCK signals);
  let h = start () in
  let rec watch () =
    (match Thread.wait_signal signals with
    | _ -> drain h
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    watch ()
  in
  ignore (Thread.create watch ());
  h

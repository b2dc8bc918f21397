(** The accept path shared by [mrm2 serve] ({!Server}) and [mrm2 route]
    ([Mrm_cluster.Router]).

    A listener binds an endpoint, runs one acceptor thread and one
    handler thread per connection, and drains gracefully. Each handler
    reads request lines with {!Wire}, skips blank ones, and writes back
    whatever the owner's [respond] callback returns for each trimmed
    line — the owner keeps its own request processing, the listener
    owns every socket.

    {2 Drain}

    {!drain} sets the stop flag, wakes the acceptor (and every {!sleep})
    through a self-pipe, and half-closes ([SHUTDOWN_RECEIVE]) every
    open connection: an idle handler sees EOF and exits, a handler in
    the middle of a request finishes it, flushes the response, and
    exits. A connection accepted while the drain runs is half-closed
    too. {!wait} returns once the acceptor and every handler are gone
    and the sockets are closed. *)

type endpoint = [ `Unix of string | `Tcp of string * int ]

type t

val start :
  connections:Mrm_obs.Metrics.counter -> endpoint ->
  (lineno:int -> string -> string) -> t
(** [start ~connections endpoint respond] binds and listens (backlog
    64), then spawns the acceptor. Every accepted connection increments
    [connections]. [respond ~lineno line] runs on the connection's
    handler thread; [lineno] counts the connection's lines from 1,
    blank ones included.

    A Unix socket path already on disk is connect-probed first: a
    refused connection marks it as the leftover of a crashed process
    and it is unlinked; a live listener (or a path that is not a
    socket) raises [Unix.Unix_error (EADDRINUSE, _, _)] instead of
    being clobbered.
    @raise Unix.Unix_error when the endpoint cannot be bound. *)

val address : t -> Unix.sockaddr
(** The bound address — for [`Tcp (host, 0)] this carries the port. *)

val drain : t -> bool
(** Begin graceful shutdown. Idempotent and callable from any thread;
    [true] only for the call that began the drain. *)

val sleep : t -> float -> bool
(** Sleep up to [seconds], returning early once the listener drains;
    [true] while it is still running. *)

val wait : t -> unit
(** Block until drained: acceptor joined, every connection handler
    exited, listening socket and self-pipe closed, and a Unix socket
    path unlinked. [respond] runs on the handlers, so this also waits
    out every call of it in progress (a server's in-flight solves). *)

val with_shutdown_signals : drain:('h -> unit) -> (unit -> 'h) -> 'h
(** [with_shutdown_signals ~drain start] ignores SIGPIPE, blocks
    SIGTERM/SIGINT {e before} calling [start] (so every thread it
    spawns inherits the mask), then spawns a watcher thread that calls
    [drain h] on each of those signals, and returns [h]. *)

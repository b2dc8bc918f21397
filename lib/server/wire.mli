(** Line-oriented socket I/O shared by the solver service and the
    cluster tier: raw descriptors with an explicit residue buffer.

    Every read and write retries [EINTR] — OCaml installs signal
    handlers without [SA_RESTART], so the systhreads tick signal
    routinely interrupts blocking socket syscalls; an interrupted
    syscall is not a dead peer. Receive/send deadlines set with
    [SO_RCVTIMEO]/[SO_SNDTIMEO] surface as {!Timeout} instead of a
    corrupted buffered channel. *)

type conn

exception Timeout
(** The send/receive deadline passed (SO_RCVTIMEO / SO_SNDTIMEO). *)

exception Closed
(** The peer closed or reset the connection. *)

val of_fd : Unix.file_descr -> conn
(** Wrap an open descriptor (fresh, empty residue buffer). The wrapper
    owns nothing: closing is explicit via {!close}. *)

val fd : conn -> Unix.file_descr
(** The underlying descriptor (for [shutdown], registry bookkeeping). *)

val close : conn -> unit
(** Close the descriptor (errors ignored). *)

val write_line : conn -> string -> unit
(** Send [line ^ "\n"], handling partial writes and retrying [EINTR].
    @raise Timeout / Closed / Unix.Unix_error on transport failure. *)

val read_line : conn -> string
(** Receive the next newline-terminated line (the newline is stripped),
    retrying [EINTR].
    @raise Timeout / Closed / Unix.Unix_error on transport failure. *)

val exchange : conn -> string -> (string, string) result
(** [write_line] then [read_line], with every transport failure mapped
    to [Error reason]. *)

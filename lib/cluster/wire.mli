(** Line-oriented socket I/O for replica connections and the load
    generator: raw descriptors with an explicit residue buffer, so a
    pooled connection can move between threads and SO_RCVTIMEO
    deadlines surface as {!Timeout} instead of a corrupted channel. *)

type conn

exception Timeout
(** The send/receive deadline passed (SO_RCVTIMEO / SO_SNDTIMEO). *)

exception Closed
(** The peer closed or reset the connection. *)

val connect : ?timeout:float -> Mrm_server.Server.endpoint -> conn
(** Open a connection; [timeout] (seconds, when positive) bounds every
    subsequent send and receive.
    @raise Unix.Unix_error when the endpoint is unreachable. *)

val close : conn -> unit
(** Close the descriptor (errors ignored). *)

val write_line : conn -> string -> unit
(** Send [line ^ "\n"], handling partial writes.
    @raise Timeout / Closed / Unix.Unix_error on transport failure. *)

val read_line : conn -> string
(** Receive the next newline-terminated line (the newline is stripped).
    @raise Timeout / Closed / Unix.Unix_error on transport failure. *)

val exchange : conn -> string -> (string, string) result
(** [write_line] then [read_line], with every transport failure mapped
    to [Error reason]. *)

(** Thin synchronous client for the solver service — the engine behind
    [mrm2 call].

    The client streams job-spec lines to a running [mrm2 serve] (or the
    [mrm2 route] cluster front-end — same wire format), in lockstep:
    send one line, read one response line, hand it to the caller's
    callback (output policy stays with the front end — this library
    never prints). Blank input lines are skipped, mirroring the
    [mrm2 batch] reader.

    {!call} is resilient: a refused connect or a connection cut
    mid-session retries with capped exponential backoff and jitter
    (up to [retries] consecutive failures), then resumes from the
    request that went unanswered — solves are deterministic and
    idempotent, so a request that was actually processed before the cut
    simply re-answers from the server's cache. *)

type endpoint = Server.endpoint

val connect : ?timeout:float -> endpoint -> Unix.file_descr
(** Open a connection to the service. [timeout > 0] (seconds) bounds
    every subsequent send and receive on the socket
    ([SO_SNDTIMEO]/[SO_RCVTIMEO]); an expired receive surfaces as a
    {!Disconnected} session failure.
    @raise Unix.Unix_error when the endpoint is unreachable. *)

type summary = {
  sent : int;  (** requests answered (nonblank lines) *)
  errors : int;  (** responses with [status = "error"] *)
  srv_errors : int;
      (** the subset of [errors] that are structured service failures
          (an [SRV00x] code) — [mrm2 call] exits 4 when nonzero *)
  cache_hits : int;  (** responses with [cached = true] *)
  retries : int;  (** reconnects performed by {!call} *)
}

exception Disconnected of string
(** The server closed the connection (or the transport failed, or the
    receive timeout expired) before answering a sent request; the
    payload names the failed request id. *)

val call :
  ?retries:int -> ?timeout:float ->
  ?on_retry:(attempt:int -> delay:float -> string -> unit) ->
  endpoint -> input:in_channel -> on_response:(string -> unit) -> summary
(** Read all job specs from [input], then connect and drive the session
    to completion, reconnecting on transport failure. [retries]
    (default 0) caps {e consecutive} failures — the counter resets on
    every answered request; attempt [n] sleeps
    [min 1.0 (0.05 * 2^n) * U(0.5, 1.5)] seconds. [on_retry] is invoked
    before each backoff sleep (CLI feedback hook; the library itself
    never prints).
    @raise Disconnected when the budget is exhausted mid-session.
    @raise Unix.Unix_error when connecting fails with a non-transport
    error, or the budget is exhausted before any connect succeeds. *)

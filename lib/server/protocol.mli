(** Wire protocol of the solver service — the [mrm2 batch] JSONL job
    format, extended with service-level fields.

    Requests are {!Mrm_batch.Batch.job_of_json} objects (one per line)
    with one extra optional field:
    - [deadline_s] (number [> 0]): a per-request budget in seconds,
      counted from the moment the server reads the line. A request still
      waiting in the queue when its deadline passes is answered with an
      [SRV003] error instead of being solved; a solve already running is
      never interrupted (same rule as graceful drain).

    Responses are {!Mrm_batch.Batch.outcome_to_json} objects with one
    extra field:
    - [cached] (bool): whether the result was served from the LRU cache
      (bit-for-bit the stored outcome of the first solve) rather than
      computed for this request.

    Service failures never close the connection; they are structured
    error lines [{"id", "status": "error", "code": "SRVxxx", "error":
    msg, "diagnostics"?: [...]}] with codes from {!error_table}.
    [SRV005] carries the {!Mrm_check} report (MRM0xx codes) of a model
    that failed server-side validation. *)

type request = {
  job : Mrm_batch.Batch.job;
  digest : string;  (** {!Mrm_batch.Batch.digest} of [job] — the cache key *)
  expires : float option;
      (** absolute [Unix.gettimeofday]-clock deadline, from [deadline_s] *)
}

val request_of_json :
  ?default_eps:float -> now:float -> default_id:string -> Mrm_util.Json.t ->
  (request, string) result
(** Read a request from an already-parsed line ([now] anchors
    [deadline_s]). The error string is ready for an [SRV001] reply. *)

val parse_request :
  ?default_eps:float -> now:float -> default_id:string -> string ->
  (request, string) result
(** {!Mrm_util.Json.parse} followed by {!request_of_json}. *)

val validate : Mrm_batch.Batch.job -> Mrm_check.Diagnostics.t list
(** Server-side model validation: {!Mrm_check.Check.check} over the
    job's model with the job's solve configuration. Only
    [Error]-severity findings are returned — warnings must not reject a
    request that the one-shot CLI would happily solve. *)

(* ------------------------------------------------------------------ *)
(* Response rendering (one JSONL line, no trailing newline)             *)

val response_of_outcome :
  cached:bool -> Mrm_batch.Batch.outcome -> string

val cached_body : Mrm_batch.Batch.outcome -> string
(** The cache-hit response of an outcome, encoded once when the outcome
    is cached: [response_of_outcome ~cached:true outcome] without its
    leading ["id"] member. *)

val cached_response : id:string -> string -> string
(** [cached_response ~id body] splices the requester's [id] back into a
    {!cached_body}. The line is byte-identical to
    [response_of_outcome ~cached:true {outcome with id}]. *)

val error_response :
  id:string -> code:string ->
  ?diagnostics:Mrm_check.Diagnostics.t list -> string -> string

val error_table : (string * string) list
(** Registry of stable service error codes:
    [SRV001] malformed request line, [SRV002] queue full (backpressure)
    — also issued by the cluster router when the owning replica is at
    its in-flight cap, [SRV003] deadline exceeded, [SRV004] server
    draining, [SRV005] model failed validation, [SRV006] no healthy
    replica (cluster router, all failover candidates down). *)

(* ------------------------------------------------------------------ *)
(* Shared response accessors (used by the client and the tests)         *)

val response_status : Mrm_util.Json.t -> string option
(** The ["status"] field: ["ok"] or ["error"]. *)

val response_cached : Mrm_util.Json.t -> bool
(** The ["cached"] field, defaulting to [false]. *)

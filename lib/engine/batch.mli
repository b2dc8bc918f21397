(** Batch solver front-end: many [(model, times, order, eps)] jobs,
    deduplicated and run across a {!Mrm_engine.Pool}. Moments jobs are
    solved by randomization ({!Mrm_core.Randomization}), the one
    production moments solver; the eq.-6 ODE and the transform-domain
    solver are test oracles, not job options.

    Parallelism works at two levels that share one pool: independent
    unique jobs run concurrently via [Pool.map_array], and each solve
    passes the pool down to {!Mrm_core.Randomization} — whichever level
    grabs the pool first wins, the other degrades to sequential (the
    pool's re-entrancy rule), so a batch of one big job parallelizes
    inside the solve while a batch of many small jobs parallelizes
    across them.

    Deduplication is structural: jobs are keyed by a digest of the full
    model content (generator triplets, rewards, initial vector) plus the
    solve parameters, so two jobs that load the same model file — or
    build the same built-in — solve once and share the result; the
    duplicate's outcome names the representative it reused.

    This module also speaks the [mrm2 batch] JSONL wire format:
    {!job_of_json} / {!outcome_to_json}, one JSON object per line. *)

type kind = Moments | Stationary of { drain : float; regularize : float }
(** What to compute: transient accumulated-reward moments (the original
    batch job, [kind] absent or ["moments"] on the wire) or the MMBM
    stationary density via {!Mrm_mmbm.Mmbm.solve} ([kind] =
    ["stationary"], with optional [drain] > mean reward rate and
    [regularize] variance floor). *)

type job = {
  id : string;
  model : Mrm_core.Model.t;
  times : float array;
      (** time points; empty (and unused) for stationary jobs *)
  order : int;  (** highest moment order (moments jobs) *)
  eps : float;  (** randomization truncation-error bound *)
  kind : kind;
}

type point = {
  time : float;
  values : float array;
      (** unconditional raw moments [E[B(t)^n]], [n = 0 .. order] *)
  iterations : int option;
      (** randomization truncation point [G]; always [Some] since
          randomization is the only moments solver, kept an option so
          readers of the record need not change *)
}

type density = {
  marginal : float array;  (** stationary phase marginal (sums to 1) *)
  mean_level : float;  (** stationary mean of the regulated level *)
  reward_rate : float;  (** long-run reward rate under the marginal *)
  tau : float;  (** CR shift parameter *)
  cr_iterations : int;
  residual : float;  (** quadratic-equation residual of the solvent *)
  stationary_warnings : string list;
      (** rendered [CODE: message] lines from {!Mrm_mmbm.Mmbm.solve} *)
}

type solution = Points of point array | Density of density
(** [Points] for moments jobs, [Density] for stationary jobs. *)

type outcome = {
  id : string;
  digest : string;  (** structural job key (hex) *)
  duplicate_of : string option;
      (** [Some id'] when this job reused the solve of job [id'] *)
  elapsed : float;  (** solve wall-clock seconds; 0 for reused results *)
  result : (solution, string) result;
      (** the solution, or the exception message when the solve raised
          (one failing job does not abort the batch) *)
}

val digest : job -> string
(** Hex digest of the job's full structural content; equal digests
    means interchangeable solves. Moments digests are byte-identical to
    the pre-[kind] wire format, including a method tag that is the
    constant 0 (randomization); stationary jobs append a tag plus their
    [drain]/[regularize] parameters. *)

val run : ?pool:Mrm_engine.Pool.t -> job array -> outcome array
(** Solve every job; output order matches input order. Without [pool]
    (or with a 1-job pool) everything runs sequentially in the
    caller. *)

(* ------------------------------------------------------------------ *)
(* JSONL wire format                                                    *)

val job_of_json :
  default_id:string -> ?default_eps:float -> Mrm_util.Json.t ->
  (job, string) result
(** Decode one job-spec object. Fields: [model] (built-in name
    [onoff]/[repair]/[multi], with optional [sigma2], [size]) {e or}
    [file] (a Model_io path); [times] (array) or [t] (scalar); optional
    [id] (default [default_id]), [order] (default 3), [eps] (default
    [default_eps], itself defaulting to 1e-9) and [method], which must
    be ["randomization"] or ["rand"] when present: any other value, the
    comparators ["ode"] and ["gaver"] included, is refused with
    [field "method": invalid value] rather than solved by another
    method. Optional [kind] selects the computation:
    ["moments"] (default) or ["stationary"] (with optional [drain] and
    [regularize] numbers, a zero [regularize] meaning no floor; [times]
    may then be omitted).

    Refusals, as the [Error] string:
    - a field of the wrong shape: [field "X": invalid value] or
      [field "X": expected ...]; an unrecognised [kind], an [MRM069]
      message that names the offending value and the supported set;
    - a failed parameter rule of {!Mrm_check.Check.config_errors} (a
      horizon, [order], [eps], [drain] or [regularize] out of its
      domain), checked before the model is built, as [CODE: message]
      with the failures joined by ["; "], for example
      [MRM060: precision eps = inf must be finite and > 0];
    - a model that does not load ({!Mrm_models.Builtin.load}):
      [PATH: <Model_io message>] for a file, the constructor's message
      for a built-in out of its domain;
    - a file declaring impulse rewards (route those through
      [mrm2 moments]);
    - for a moments job, a failed solver-constant rule of the built model
      ({!Mrm_check.Check.constant_errors} at the largest horizon: a
      non-finite [q t] or reward scaling), as [CODE: message]. *)

val outcome_to_json : outcome -> Mrm_util.Json.t
(** [{"id", "digest", "duplicate_of", "elapsed", "status": "ok" |
    "error", then "points": [{"t", "moments", "iterations"?}] or
    "stationary": {"marginal", "mean_level", "reward_rate", "tau",
    "iterations", "residual", "warnings"} or "error": message}]. *)

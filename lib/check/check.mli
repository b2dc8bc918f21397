(** Static verification of second-order MRM inputs — every invariant the
    solvers assume, checked {e without} solving anything.

    The paper's randomization solver (Theorems 3/4) multiplies
    substochastic matrices by bounded vectors; its a-priori error bound
    (eq. 11) is only valid when the inputs actually are a generator
    ([q_ij >= 0] off the diagonal, zero row sums), a reward structure
    ([sigma_i^2 >= 0], finite drifts) and a probability vector, and when
    the uniformized [Q' = Q/q + I], [|R'| = |R|/(q d)] and
    [S' = S/(q d^2)] are substochastic for the chosen [q] and [d].
    Reachability matters too: states unreachable from the initial
    support waste work, and absorbing states change moment behaviour
    (arXiv:2105.00330 analyses exactly that regime).

    Checks operate on {!data} — raw, {e unvalidated} model components —
    so they can lint inputs that the validating constructors
    ({!Mrm_ctmc.Generator.of_sparse}, [Model.make]) would reject
    outright, and report {e all} findings with state indices instead of
    failing on the first.

    Diagnostics carry stable codes; {!code_table} is the registry. *)

type data = {
  states : int;
  q_matrix : Mrm_linalg.Sparse.t;  (** full generator, diagonal included *)
  rates : float array;  (** drift [r_i] per state *)
  variances : float array;  (** [sigma_i^2] per state *)
  initial : float array;  (** initial probability vector *)
}

val data :
  q_matrix:Mrm_linalg.Sparse.t ->
  rates:float array ->
  variances:float array ->
  initial:float array ->
  data
(** Convenience constructor; [states] is taken from the matrix row
    count. Performs no validation — that is the checks' job. *)

val of_triplets :
  states:int ->
  transitions:(int * int * float) list ->
  rates:float array ->
  variances:float array ->
  initial:float array ->
  data
(** Build [data] from off-diagonal rate triplets, filling the diagonal
    with negated row sums (the [Model_io] convention). Unlike
    {!Mrm_ctmc.Generator.of_triplets} this {e keeps} negative and
    out-of-range-clamped entries so the checks can report them;
    out-of-range indices raise [Invalid_argument] (they cannot be
    represented in a sparse matrix at all). *)

type config = {
  t : float;  (** accumulation horizon *)
  order : int;  (** highest moment order *)
  eps : float;  (** randomization truncation-error bound *)
  q : float option;  (** uniformization-rate override; default [max_i |q_ii|] *)
  d : float option;
      (** reward-scaling override; default {!reward_scaling}, the
          solver's choice *)
  jobs : int;
      (** domain count the solve would run on ([--jobs] / [MRM2_JOBS];
          1 = sequential) — only used to flag paper-scale models left on
          a single core ([MRM053]) *)
}

val default_config : config
(** [t = 1., order = 3, eps = 1e-9, jobs = 1], no overrides. *)

(* ------------------------------------------------------------------ *)
(* The solver's scaling constant, truncation point and error bound,     *)
(* defined once: Randomization calls these, and so do the passes below. *)

val reward_scaling : q:float -> rates:float array -> variances:float array ->
  float
(** The reward scaling constant of Theorem 3,
    [d = max(max_i |r_i| / q, max_i sigma_i / sqrt q)]: the minimal [d]
    making [|R'| = |R|/(q d)] and [S' = S/(q d^2)] substochastic. Rates
    may be negative; the recursion runs on the signed [R']. [0.] when
    [q <= 0] (transition-free models take a closed form). *)

val truncation_point :
  impulses:bool -> d:float -> lambda:float -> order:int -> eps:float -> int
(** The truncation point [G]: the smallest [G] whose a-priori bound
    {!log_error_bound} is below [eps], for [n = order] and
    [lambda = q t]. Two rules:
    - [~impulses:false] (rate rewards): Theorem 4 with the corrected tail
      index, [2 d^n n! lambda^n P(Pois(lambda) >= G+1-n) < eps];
    - [~impulses:true] (impulse rewards on transitions):
      [(4d)^n lambda^n P(Pois(lambda) >= G+1-n) < eps], with
      [G >= 2 order]. [d] must then also dominate the impulses.
    Order 0 needs only [P(Pois(lambda) >= G+1) < eps] under both rules,
    and [lambda = 0.] (a point-mass Poisson) short-circuits to
    [max 1 order].
    @raise Invalid_argument if [lambda] is NaN, infinite or negative. *)

val log_error_bound :
  impulses:bool -> d:float -> lambda:float -> order:int -> g:int -> float
(** The natural log of the a-priori truncation-error bound of a sweep
    truncated at [g], under the same rule as {!truncation_point};
    [neg_infinity] at order 0, where the recursion is exact. *)

(* ------------------------------------------------------------------ *)
(* Request rules: whether a solve request is admissible, decided once.  *)
(* The CLI solver commands, [Batch.job_of_json] (batch, serve, route)   *)
(* and the passes below call these.                                     *)

val config_errors :
  ?times:float array -> ?order:int -> ?eps:float -> ?drain:float ->
  ?regularize:float -> unit -> Diagnostics.t list
(** The parameter rules, run before any model is built: one [MRM060]
    error, naming the value, per failure in the order of the arguments.
    Each horizon in [times] must be finite and [>= 0], [order >= 0],
    [eps] finite and [> 0], a stationary [drain] finite, and a
    [regularize] variance floor finite and [> 0]. *)

val constant_errors :
  q:float -> rates:float array -> variances:float array -> t:float ->
  Diagnostics.t list
(** The solver-constant rules of a randomization solve, run on the built
    model (its uniformization rate [q], O(states)) at the largest horizon
    [t]: [q t] must be finite ([MRM060]; eq. 11 has no truncation point
    otherwise) and so must the {!reward_scaling} [d] ([MRM044]). *)

(* ------------------------------------------------------------------ *)
(* Individual passes. Each returns an independent diagnostic list;      *)
(* [check] composes them.                                               *)

val check_dimensions : data -> Diagnostics.t list
(** [MRM005] when the matrix is not square or the array lengths disagree
    with [states]. When this fails, the index-based passes below are not
    safe to run — {!check} handles the sequencing. *)

val check_generator : ?tol:float -> data -> Diagnostics.t list
(** Generator validity: finiteness ([MRM001]), non-negative
    off-diagonals ([MRM002]), non-positive diagonal ([MRM003]), row sums
    zero within [tol * max (1, q)] ([MRM004], default [tol = 1e-9]).
    Every diagnostic names the offending state index and value. *)

val check_rewards : data -> Diagnostics.t list
(** Finite drifts ([MRM010]), non-negative ([MRM011]) and finite
    ([MRM012]) variances. *)

val check_initial : data -> Diagnostics.t list
(** Entries in [0, 1] and finite ([MRM020]); total mass 1 within 1e-9
    ([MRM021]). *)

val check_structure : data -> Diagnostics.t list
(** Reachability and communication structure (Tarjan SCC on positive
    off-diagonal entries): unreachable states ([MRM030], warning),
    absorbing states ([MRM031], warning — moment behaviour changes when
    the chain can get stuck), reducible chains ([MRM032], info, with the
    communicating-class count). *)

val check_uniformization : ?tol:float -> ?config:config -> data ->
  Diagnostics.t list
(** Substochasticity of the uniformized matrices for the chosen (or
    default) [q] and [d]: [q] at least the max exit rate ([MRM040]),
    row sums of [Q'] at most 1 ([MRM041]), [|r_i|/(q d) <= 1] ([MRM042]),
    [sigma_i^2/(q d^2) <= 1] ([MRM043]), and a finiteness scan of [q],
    [d] (the rule of {!constant_errors}) and the scaled quantities
    ([MRM044]). Skipped for transition-free models
    ([q = 0] — the solvers use a closed form there). *)

val check_conditioning : ?config:config -> data -> Diagnostics.t list
(** Solver-configuration sanity: invalid [t]/[order]/[eps] and a
    non-finite [q t] ([MRM060], error: the rules of {!config_errors} and
    {!constant_errors}, so [mrm2 lint] refuses what the solvers refuse),
    a Theorem-4 truncation point so large the solve is
    impractical ([MRM050], warning, threshold ~2e6 iterations),
    reward scales [|r_i|], [sigma_i] spanning more than 8 orders of
    magnitude ([MRM051], warning), a paper-scale model (>= 10^4
    states) about to be solved with [jobs = 1] when the row-parallel
    engine could be used ([MRM053], info, points at
    [--jobs]/[MRM2_JOBS]), and [eps] below attainable double precision
    ([MRM061], warning). *)

val check_stationary : data -> Diagnostics.t list
(** Stationary (MMBM) applicability, as warnings: zero-variance states
    that would make the level diffusion degenerate ([MRM062], needs
    [--regularize]), positive mean drift ([MRM063], needs [--drain]),
    and zero mean drift / null recurrence ([MRM064]). Opt-in — not part
    of {!check}; [mrm2 lint --stationary] adds it. Skipped when the
    generator is reducible (the core passes report that instead). *)

val check : ?tol:float -> ?config:config -> data -> Diagnostics.t list
(** All passes, in severity order. If {!check_dimensions} fails, only
    dimension and matrix-local generator findings are returned. *)

(* ------------------------------------------------------------------ *)

exception Failed of Diagnostics.t list
(** Raised by {!validate_exn}; the payload is the full report. The
    registered exception printer lists the failed error codes. *)

val validate_exn : ?tol:float -> ?config:config -> data -> unit
(** Run {!check}; raise {!Failed} if any [Error]-severity diagnostic is
    present (warnings and notes do not raise). *)

val code_table : (string * Diagnostics.severity * string) list
(** The registry of stable diagnostic codes: (code, worst-case severity,
    one-line description). [MRM090] (model-file parse error) is emitted
    by the [mrm2 lint] front end rather than by {!check}. *)

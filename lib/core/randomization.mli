(** Randomization (uniformization) solver for the moments of accumulated
    reward in a second-order MRM — the paper's main algorithm
    (Theorems 3 and 4, Appendix B).

    The recursion runs on the signed drifts: [Q'] and [S'] are
    non-negative substochastic and [|R'|] is substochastic, so every
    iterate is bounded by the same recursion run with [|R'|] — the
    paper's non-negative case. The computation is therefore
    subtraction-free for non-negative rates and keeps a componentwise
    rounding bound otherwise, and the truncation point [G] comes with
    the a-priori error bound of Theorem 4 either way. Cost: [G] sparse
    matrix–vector products per moment order, with [G = O(qt)]. *)

type diagnostics = {
  q : float;  (** uniformization rate [max_i |q_ii|] *)
  d : float;  (** reward scaling constant (see note below) *)
  iterations : int;
      (** the truncation point [G] of Theorem 4 (or of the impulse rule,
          see [impulses] below) *)
  eps : float;  (** requested precision *)
  log_error_bound : float;
      (** natural log of the guaranteed element-wise truncation error of
          the highest-order moment vector [V^(order)] *)
}

type result = {
  moments : float array array;
      (** [moments.(n).(i) = V_i^(n)(t) = E[B(t)^n | Z(0) = i]] for
          [n = 0 .. order] *)
  diagnostics : diagnostics;
}

val moments :
  ?validate:bool -> ?eps:float -> ?pool:Mrm_engine.Pool.t ->
  ?impulses:Mrm_linalg.Sparse.t -> Model.t -> t:float -> order:int -> result
(** All per-state raw moments of [B(t)] up to [order].

    [validate] (default [false]) runs the full static-analysis pass of
    {!Mrm_check.Check} on the model and this solve's configuration
    before touching the solver, raising {!Mrm_check.Check.Failed} (whose
    printer lists the violated [MRM] codes) on any error-severity
    finding. Models built through {!Model.make} are structurally valid
    by construction; the flag additionally guards against post-hoc array
    mutation and flags conditioning hazards of the configuration itself.

    [eps] (default 1e-9, the paper's setting for the large example) bounds
    the truncation error of each element of the highest-order moment
    vector.

    [pool] runs the per-step recursion
    [U^(n)(k+1) = R' U^(n-1)(k) + (1/2) S' U^(n-2)(k) + Q' U^(n)(k)]
    row-partitioned across the pool's domains (partition balanced by the
    nnz of the uniformized generator, see {!Mrm_engine.Partition}).
    Bit-for-bit identical to the sequential result — ranges write
    disjoint row slices and each row keeps its operation order. Omitted
    (or with a 1-job pool) the same per-row round runs in the caller
    over all rows.

    Note on [d]: the paper prescribes [d = max_i {r_i, sigma_i} / q], but
    that choice leaves [S' = S/(q d^2)] super-stochastic whenever [q > 1],
    invalidating the Lemma-2 bound behind Theorem 4. The computed moments
    are invariant to [d] (it cancels from eq. (9)/(10)), so this
    implementation uses the minimal [d] making both [|R'|] and [S']
    substochastic: [d = max(max_i |r_i| / q, max_i sigma_i / sqrt q)]
    ({!Mrm_check.Check.reward_scaling}). Only [G] is (slightly) affected.
    Negative drifts need no shift: the paper's shift [r_i - min_j r_j]
    and the binomial map back cancel catastrophically from about order 8.

    A model whose states all share one drift [c] and have no variance
    short-circuits to [V^(n) = (c t)^n] (reported with [d = 0.] and
    [iterations = 0]).

    [impulses] is model data, not a setting: the impulse-reward matrix
    [rho_ij] of an {!Impulse.t}, as validated by {!Impulse.make}
    (non-negative entries on the off-diagonal support of [Q]);
    {!Impulse.moments} is the entry point that passes it. When [rho] has
    any entry the same sweep adds the terms
    [sum_{m=1..n} (1/m!) P^(m) U^(n-m)(k)] with
    [P^(m)_ij = q_ij rho_ij^m / (q d^m)] to each row, after its [R'] and
    [S'] terms (pool and bit-for-bit guarantees as above), and:
    - [d = max(max_ij rho_ij, reward_scaling)], so every [P^(m)] stays
      substochastic;
    - [G] and [log_error_bound] follow the [(4d)^n] impulse rule of
      {!Mrm_check.Check.truncation_point} ([~impulses:true]), with
      [G >= 2 order];
    - the constant-drift closed form is off: the impulses make [B(t)]
      random even when every drift is the same.
    An empty [rho] is the same solve as no [rho].

    [t = 0.] short-circuits to the exact answer — moment 0 is the ones
    vector, every higher moment is the zero vector — without touching
    the truncation-point machinery (whose tail bound would need
    [log lambda] with [lambda = qt = 0]).

    @raise Invalid_argument if [t] is NaN, infinite or negative, if
    [order < 0], or unless [eps > 0]. The NaN/infinity rejection is
    deliberate: [t < 0.] alone would let non-finite horizons through
    (every NaN comparison is false) and silently poison the solve. *)

val moment : ?eps:float -> Model.t -> t:float -> order:int -> float
(** [pi . V^(order)(t)] — the unconditional raw moment. *)

val moment_series :
  ?validate:bool -> ?eps:float -> ?pool:Mrm_engine.Pool.t -> Model.t ->
  times:float array -> order:int -> (float * float array) array
(** For each [t] in [times]: [(t, [| m_0; ...; m_order |])] unconditional
    raw moments — a thin projection of {!moments_at_times}, so the whole
    ramp is computed in one shared randomization sweep ([max_j G(t_j)]
    iterations, not [sum_j G(t_j)]). [validate] and [pool] as in
    {!moments}. *)

val moments_at_times :
  ?validate:bool -> ?eps:float -> ?pool:Mrm_engine.Pool.t -> Model.t ->
  times:float array -> order:int -> result array
(** Same results as calling {!moments} per time point, but in a single
    randomization sweep: the [U^(n)(k)] recursion does not depend on [t]
    (only the Poisson weights do), so one pass to
    [G = max_j G(t_j)] serves every time point. For a ramp of [m] times
    this costs [max G] iterations instead of [sum G] — e.g. the five
    Figure-8 time points for the price of the last one. Results match the
    pointwise solver to within the [eps] bounds (asserted in the tests);
    {!moments} is the one-point case of this same solve, bit for bit.
    Emits the [randomization.setup]/[sweep]/[finalize] spans under a
    [randomization.moments_at_times] span, as {!moments} does under
    [randomization.moments]. *)

val mean : ?eps:float -> Model.t -> t:float -> float
val variance : ?eps:float -> Model.t -> t:float -> float
(** Central second moment [E B^2 - (E B)^2] of the unconditional reward. *)

val central_moment : ?eps:float -> Model.t -> t:float -> order:int -> float

(** Second-order Markov reward models with impulse rewards — the extension
    the paper flags as compatible with its solution method ("the introduced
    solution method allows to relax these restrictions", Section 1).

    An impulse reward [rho_ij >= 0] is earned instantaneously at each
    transition [i -> j] of the structure-state process, on top of the
    Brownian rate accumulation of the base model.

    Derivation (following the paper's proof pattern):
    conditioning eq. (3) on the first transition and keeping the impulse
    factor [e^(-v rho_ik)] in the Laplace domain turns eq. (2) into

    [d b*/dt = (Q o E(v)) b* - v R b* + v^2/2 S b*],
    [(Q o E(v))_ij = q_ij e^(-v rho_ij)]  (i <> j),

    so the moment ODE (6) gains the terms
    [sum_{m=1..n} C(n,m) Q^(m) V^(n-m)] with [Q^(m)_ij = q_ij rho_ij^m],
    and the randomization recursion (10) gains
    [sum_{m=1..n} (1/m!) P^(m) U^(n-m)(k)] with [P^(m) = Q^(m)/(q d^m)],
    which stays substochastic provided [d >= max_ij rho_ij].

    The truncation bound generalizes with the coefficient-wise domination
    [phi(x) <= e^(2x)]: [|U^(n)(k)| <= (2k)^n/n!] (by induction on the
    recursion run with [|R'|], so signed drifts need no shift), giving
    [xi(G) <= (4d)^n (qt)^n P(Pois(qt) >= G+1-n)] (more conservative than
    Theorem 4's pure-rate bound; documented in DESIGN.md).

    The recursion itself runs in {!Randomization}: {!moments} hands the
    impulse matrix to the shared sweep, which adds the [P^(m)] terms and
    takes [d], [G] and the bound from the impulse rule of
    {!Mrm_check.Check.truncation_point}. This module keeps the model
    type and the simulator. The extended moment ODE, built on its own
    [Q^(m)], is a test oracle ([test/oracles.ml]), not a solver of the
    library. *)

type t = private {
  base : Model.t;
  impulses : Mrm_linalg.Sparse.t;
      (** [rho_ij] aligned with the off-diagonal support of [Q] *)
}

val make : Model.t -> (int * int * float) list -> t
(** [make model impulses] attaches impulse rewards given as
    [(i, j, rho_ij)] triplets.
    @raise Invalid_argument if any [rho < 0], duplicates appear, or an
    impulse sits on a pair with [q_ij = 0] (it could never fire — almost
    always a model bug). *)

val moments :
  ?eps:float -> ?pool:Mrm_engine.Pool.t -> t -> t:float -> order:int ->
  Randomization.result
(** {!Randomization.moments} with the impulse terms ([~impulses]): same
    result layout, diagnostics, pool and bit-for-bit semantics. Negative
    *rates* are allowed (the recursion runs on the signed [R']);
    impulses are non-negative by construction.
    @raise Invalid_argument as {!Randomization.moments} does, so also
    for a NaN or infinite [t]. *)

val moment : ?eps:float -> t -> t:float -> order:int -> float
val mean : ?eps:float -> t -> t:float -> float
val variance : ?eps:float -> t -> t:float -> float

val reward_rate : t -> float
(** Long-run reward rate [lim E B(t)/t = sum_i pi_i (r_i + sum_j q_ij
    rho_ij)], [pi] the stationary distribution of the base model:
    {!Steady.reward_rate} plus the rate at which impulses are earned.
    Without impulses it equals {!Steady.reward_rate} bit for bit. *)

val sample : t -> Mrm_util.Rng.t -> t:float -> replicas:int -> float array
(** Exact-increment simulation including the impulses (third independent
    road, used by the tests).
    @raise Invalid_argument unless [t] is finite and [>= 0] and
    [replicas > 0]. *)

(** Stationary (invariant) density of the Markov-modulated Brownian
    motion defined by a second-order reward model, following the
    componentwise-accurate Cyclic Reduction approach of Nguyen–Poloni
    (arXiv:1605.01482).

    The accumulated reward of a second-order MRM [(Q, R, S)] is an MMBM:
    in state [i] the level drifts at rate [r_i] with instantaneous
    variance [sigma_i^2]. Regulated at zero (a fluid queue), its level
    has a stationary distribution whenever the modulating chain is
    irreducible and the mean drift [pi . r] is negative. The stationary
    density has the matrix-exponential form [p(x) = nu e^(Hx)] where
    [H] solves the quadratic matrix equation

      [1/2 H^2 Sigma - H R + Q = 0]

    restricted to its stable (Hurwitz) solvent. The solver shifts the
    equation to a unit-circle quadratic [W^2 A + W B + C = 0] whose
    coefficient triple is a QBD generator family (A, C >= 0, B an
    M-matrix negation, [A + B + C = Q]), and runs Cyclic Reduction on
    it. Because the triple keeps zero column sums through every CR
    step, all M-matrix diagonals are reconstructed additively from
    column sums (GTH style) and the whole iteration is subtraction-free
    — the componentwise-accuracy argument of the paper (DESIGN §12).

    Scope: every state needs strictly positive variance (use
    [regularize] to floor exact zeros) and the mean drift must be
    strictly negative (use [drain] to analyse capacity-C service of an
    otherwise increasing reward). Structured failures raise {!Error}
    with MRM06x diagnostics. *)

module Dense := Mrm_linalg.Dense
module Model := Mrm_core.Model
module Diagnostics := Mrm_check.Diagnostics

exception Error of Diagnostics.t
(** Structured failure: MRM062 (zero-variance states), MRM063 (positive
    mean drift), MRM064 (zero mean drift / null recurrent), MRM065 (CR
    did not converge), MRM066 (singular boundary system). *)

(** {1 Solver} *)

type result = {
  nu : float array;  (** density at the boundary, [p(0)] *)
  h : Dense.t;  (** stable exponent: [p(x) = nu e^(Hx)] *)
  atoms : float array;
      (** point mass at level 0 per state (zero when every state has
          positive variance — the only case the solver accepts) *)
  marginal : float array;
      (** stationary phase distribution [atoms + int_0^inf p]; equals
          the CTMC stationary vector of [Q] (a cross-check, see
          [validate]) *)
  mean_level : float;  (** stationary mean of the regulated level *)
  reward_rate : float;
      (** stationary expected reward rate [marginal . rates] of the
          {e original} (pre-drain) model *)
  tau : float;  (** Cayley-like shift used to reach the unit circle *)
  iterations : int;  (** CR steps to componentwise convergence *)
  residual : float;
      (** relative residual of the recovered solvent in the original
          quadratic [1/2 H^2 Sigma - H R + Q] *)
  regularized : int;  (** number of states whose variance was floored *)
  warnings : Diagnostics.t list;
      (** MRM067 (variance floor applied), MRM068 (validation
          cross-check exceeded tolerance) *)
}

val solve :
  ?drain:float ->
  ?regularize:float ->
  ?eps:float ->
  ?max_iterations:int ->
  ?validate:bool ->
  ?on_iterate:(int -> float -> unit) ->
  Model.t ->
  result
(** [solve model] computes the stationary density of the regulated MMBM.

    [drain] (default 0) is subtracted from every reward rate first: the
    level then measures the backlog of a queue served at constant rate
    [drain]. [regularize] floors variances at the given value (states
    strictly below it are bumped and counted; MRM067 rides along in
    [warnings]). [eps] (default 1e-14) is the CR stopping threshold on
    the relative size of the down-coupling block. [max_iterations]
    defaults to 200. [validate] (default false) cross-checks the phase
    marginal against GTH on the modulating chain and appends MRM068 on
    disagreement beyond 1e-8. [on_iterate] observes [(step,
    down_block_norm)] after each CR step — the bench residual
    trajectory.

    @raise Error on structured failures (see {!Error}).
    @raise Invalid_argument if the modulating chain is reducible. *)

val density : result -> float -> float array
(** [density r x] is [p(x) = nu e^(Hx)] (per-state density row). *)

val cdf : result -> float -> float array
(** [cdf r x] is [P(level <= x, phase = i)] per state, including the
    boundary atom. *)

val total_density : result -> float -> float
(** Sum of {!density} over states — the marginal level density. *)

val decay_rate : result -> float
(** Asymptotic tail decay rate [eta > 0] of the level,
    [P(level > x) ~ C e^(-eta x)]: minus the largest real part among the
    eigenvalues of the stable exponent [h]. [mrm2 fluid] prints it beside
    [P(level > x) = 1 - sum (cdf r x)]. *)

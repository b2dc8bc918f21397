(** Second-order (Markov-modulated Brownian) fluid queues — the bounded
    sibling the paper contrasts with second-order reward models (Section 4
    and refs [7, 8], Karandikar–Kulkarni 1995).

    The buffer level [X(t) >= 0] evolves as a Brownian motion with drift
    [r_i] and variance [sigma_i^2 > 0] while the background CTMC sits in
    state [i], reflected at 0 (infinite buffer). The same PDE as the
    reward density (eq. 4) governs the interior, but the boundary
    condition at 0 changes the solution completely — which is exactly the
    paper's point about why its unbounded-reward analysis is simpler.

    Stationary solution (spectral method): the joint distribution
    [F_i(x) = P(X <= x, Z = i)] is

    [F(x) = pi + sum_j a_j e^(z_j x) phi_j]

    over the solutions of the quadratic eigenproblem
    [(z^2/2 S - z R + Q^T) phi = 0] with [Re z < 0]; for a stable queue
    (mean drift < 0) with all [sigma_i^2 > 0] there are exactly [N] of
    them, and the coefficients [a_j] are pinned by the reflecting-boundary
    condition [F(0) = 0].

    Test oracle: production solves the same stationary problem with
    [Mrm_mmbm.Mmbm] (cyclic reduction). test_mmbm compares the two, and
    test_fluid checks this solution against the reflected-Brownian closed
    form, Euler–Maruyama simulation and the ccdf integral. *)

type t
(** A validated second-order fluid queue (no initial distribution — only
    stationary analysis is provided). *)

val make :
  generator:Mrm_ctmc.Generator.t ->
  rates:float array ->
  variances:float array ->
  t
(** @raise Invalid_argument if dimensions mismatch, any [sigma_i^2 <= 0]
    (the spectral method needs a nonsingular [S]), the chain is reducible,
    or the mean drift [sum_i pi_i r_i] is not negative (the queue would be
    unstable). *)

type stationary
(** The computed spectral representation. *)

val stationary : t -> stationary
(** Solve the quadratic eigenproblem and boundary conditions.
    @raise Failure if the spectrum does not split as expected (numerical
    breakdown — not observed on meaningful inputs). *)

val background_distribution : stationary -> float array
(** The stationary distribution [pi] of the background CTMC ( = [F(inf)]). *)

val mean_drift : stationary -> float

val joint_cdf : stationary -> state:int -> float -> float
(** [F_i(x) = P(X <= x, Z = i)]; 0 for [x < 0]. *)

val cdf : stationary -> float -> float
(** Marginal buffer CDF [P(X <= x)]. *)

val ccdf : stationary -> float -> float
(** [P(X > x)] — the overflow probability the fluid literature reports. *)

val mean_level : stationary -> float
(** Stationary mean buffer content [E X]. *)

val decay_rate : stationary -> float
(** Asymptotic decay rate [eta > 0] with
    [P(X > x) ~ C e^(-eta x)]: the negative of the largest (closest to 0)
    eigenvalue real part among [Re z < 0]. *)

val simulate_level :
  t -> Mrm_util.Rng.t -> horizon:float -> dt:float -> burn_in:float ->
  float array
(** Euler–Maruyama simulation of the reflected process (state jumps
    approximated per step); returns the post-burn-in trajectory samples.
    Test/validation oracle, not a production solver. *)

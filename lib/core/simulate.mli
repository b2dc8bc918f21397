(** Monte-Carlo simulation of second-order MRMs — the paper's third
    comparator ("a second-order reward model simulation tool").

    A trajectory of the structure-state CTMC is sampled jump by jump; the
    reward increment over a sojourn of length [tau] in state [i] is drawn
    as N(r_i tau, sigma_i^2 tau), which is exact (no discretization error
    in the reward dimension). *)

type estimate = {
  order : int;
  value : float;  (** point estimate of [E B(t)^order] *)
  ci_low : float;
  ci_high : float;  (** normal-approximation confidence interval *)
}

val accumulated_reward : Model.t -> Mrm_util.Rng.t -> t:float -> float
(** One exact sample of [B(t)] with [Z(0) ~ pi].
    @raise Invalid_argument unless [t] is finite and [>= 0] (a NaN or
    infinite horizon would never end the trajectory). *)

val sample : Model.t -> Mrm_util.Rng.t -> t:float -> replicas:int -> float array
(** [replicas] i.i.d. samples of [B(t)].
    @raise Invalid_argument unless [t] is finite and [>= 0] and
    [replicas > 0]. *)

val estimate_moments :
  ?confidence:float -> Model.t -> Mrm_util.Rng.t -> t:float ->
  max_order:int -> replicas:int -> estimate array
(** Raw-moment estimates for orders 1..[max_order] from a single batch of
    samples (default [confidence] 0.95). Index 0 of the result is order 1. *)

type path_point = { time : float; state : int; reward : float }

val joint_path :
  Model.t -> Mrm_util.Rng.t -> t_max:float -> grid:int -> path_point array
(** A discretized joint realization (Figure 1 of the paper): the state and
    accumulated reward on a uniform grid of [grid] intervals, with the
    Brownian increments refined inside sojourns so the reward path shows
    the within-state fluctuation. State changes between grid points are
    handled exactly (the increment over a straddling interval sums the
    per-state normal contributions).
    @raise Invalid_argument unless [t_max] is finite and [> 0] and
    [grid > 0]. *)

val empirical_cdf :
  Model.t -> Mrm_util.Rng.t -> t:float -> replicas:int -> float -> float
(** [P(B(t) <= x)] estimated from fresh samples; used to sandwich-test the
    moment-based CDF bounds. *)

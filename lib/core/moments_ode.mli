(** Moments of accumulated reward by direct numerical integration of the
    coupled ODE system of Theorem 2 (eq. 6):

    [dV^(n)/dt = Q V^(n) + n R V^(n-1) + n(n-1)/2 S V^(n-2)]

    This is the comparator the paper validates randomization against
    ("a numerical ODE solver working based on eq. 6 using trapezoid
    rule" = {!Mrm_ode.Ode.Heun}). Explicit steppers require
    [dt <~ 1/q] for stability; {!default_steps} encodes that. *)

val default_steps : Model.t -> t:float -> int
(** [max 100 (ceil (2 q t))] — a stable step count for the explicit
    steppers on a model with uniformization rate [q]. *)

val moments :
  ?method_:Mrm_ode.Ode.method_ -> ?steps:int -> Model.t -> t:float ->
  order:int -> float array array
(** [moments m ~t ~order] with the same layout as
    {!Randomization.moments}: result [.(n).(i) = V_i^(n)(t)].
    Default method is [Heun] (the paper's trapezoid comparator) with
    {!default_steps}.

    [t = 0.] returns the exact initial condition without stepping.
    @raise Invalid_argument if [t] is NaN, infinite or negative (the
    non-finite cases are rejected explicitly; a plain sign check would
    let them through), or if [order < 0]. *)

val moment :
  ?method_:Mrm_ode.Ode.method_ -> ?steps:int -> Model.t -> t:float ->
  order:int -> float
(** Unconditional moment [pi . V^(order)(t)]. *)

val moments_adaptive :
  ?tol:float -> Model.t -> t:float -> order:int -> float array array
(** Same system integrated with adaptive RKF45 (default [tol = 1e-10]). *)

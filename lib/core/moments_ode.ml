module Generator = Mrm_ctmc.Generator
module Sparse = Mrm_linalg.Sparse
module Vec = Mrm_linalg.Vec
module Ode = Mrm_ode.Ode
module Trace = Mrm_obs.Trace
module Metrics = Mrm_obs.Metrics

let m_solves = Metrics.counter "ode.solves"
let m_steps = Metrics.counter "ode.steps"

let default_steps model ~t =
  let q = Generator.uniformization_rate model.Model.generator in
  max 100 (int_of_float (ceil (2. *. q *. t)))

(* The stacked state vector is [V^(0); V^(1); ...; V^(order)]. *)
let rhs model ~order =
  let n = Model.dim model in
  let qm = Generator.matrix model.Model.generator in
  let rates = model.Model.rates and variances = model.Model.variances in
  fun ~t:_ ~y ->
    let dy = Array.make (n * (order + 1)) 0. in
    let block j = Array.sub y (j * n) n in
    for j = 0 to order do
      let qv = Sparse.mv qm (block j) in
      let jf = float_of_int j in
      for i = 0 to n - 1 do
        let drift_term =
          if j >= 1 then jf *. rates.(i) *. y.(((j - 1) * n) + i) else 0.
        in
        let diffusion_term =
          if j >= 2 then
            0.5 *. jf *. (jf -. 1.) *. variances.(i) *. y.(((j - 2) * n) + i)
          else 0.
        in
        dy.((j * n) + i) <- qv.(i) +. drift_term +. diffusion_term
      done
    done;
    dy

let initial_state model ~order =
  let n = Model.dim model in
  let y0 = Array.make (n * (order + 1)) 0. in
  for i = 0 to n - 1 do
    y0.(i) <- 1.
  done;
  y0

let unstack model ~order y =
  let n = Model.dim model in
  Array.init (order + 1) (fun j -> Array.sub y (j * n) n)

let check_args ~t ~order =
  (* Reject NaN/infinite horizons outright: [t < 0.] alone lets them
     through (NaN comparisons are all false) and the stepper would grind
     on a poisoned state vector. *)
  if not (Float.is_finite t) || t < 0. then
    invalid_arg "Moments_ode: requires finite t >= 0";
  if order < 0 then invalid_arg "Moments_ode: requires order >= 0"

let moments ?(method_ = Ode.Heun) ?steps model ~t ~order =
  check_args ~t ~order;
  let steps = Option.value steps ~default:(default_steps model ~t) in
  Trace.with_span "ode.moments"
    ~attrs:
      [ ("t", Trace.Float t); ("order", Trace.Int order);
        ("steps", Trace.Int steps) ]
  @@ fun () ->
  Metrics.incr m_solves;
  let y0 = initial_state model ~order in
  if t = 0. then unstack model ~order y0
  else begin
    Metrics.incr ~by:steps m_steps;
    let y =
      Ode.integrate method_ (rhs model ~order) ~t0:0. ~t1:t ~steps y0
    in
    unstack model ~order y
  end

let moment ?method_ ?steps model ~t ~order =
  let m = moments ?method_ ?steps model ~t ~order in
  Vec.dot model.Model.initial m.(order)

let moments_adaptive ?(tol = 1e-10) model ~t ~order =
  check_args ~t ~order;
  Trace.with_span "ode.moments_adaptive"
    ~attrs:
      [ ("t", Trace.Float t); ("order", Trace.Int order);
        ("tol", Trace.Float tol) ]
  @@ fun () ->
  Metrics.incr m_solves;
  let y0 = initial_state model ~order in
  if t = 0. then unstack model ~order y0
  else begin
    let q = Generator.uniformization_rate model.Model.generator in
    (* Start inside the stability region so the controller does not have to
       recover from a wildly unstable first step. *)
    let dt0 = if q > 0. then Float.min (t /. 10.) (0.5 /. q) else t /. 10. in
    let y = Ode.rkf45 (rhs model ~order) ~t0:0. ~t1:t ~tol ~dt0 y0 in
    unstack model ~order y
  end

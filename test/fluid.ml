module Generator = Mrm_ctmc.Generator
module Stationary_ctmc = Mrm_ctmc.Stationary
module Dense = Mrm_linalg.Dense
module Sparse = Mrm_linalg.Sparse
module Eigen = Mrm_linalg.Eigen
module Vec = Mrm_linalg.Vec
module Rng = Mrm_util.Rng

type t = {
  generator : Generator.t;
  rates : float array;
  variances : float array;
  pi : float array;
  drift : float;
}

let make ~generator ~rates ~variances =
  let n = Generator.dim generator in
  if Array.length rates <> n || Array.length variances <> n then
    invalid_arg "Fluid.make: dimension mismatch";
  Array.iteri
    (fun i v ->
      if v <= 0. || not (Float.is_finite v) then
        invalid_arg
          (Printf.sprintf
             "Fluid.make: variance %g at state %d (must be > 0 for the \
              spectral method)"
             v i))
    variances;
  Array.iter
    (fun r ->
      if not (Float.is_finite r) then invalid_arg "Fluid.make: bad rate")
    rates;
  let pi = Stationary_ctmc.gth generator in
  let drift = Vec.dot pi rates in
  if drift >= 0. then
    invalid_arg
      (Printf.sprintf
         "Fluid.make: mean drift %g >= 0 — the queue is unstable" drift);
  { generator; rates; variances; pi; drift }

type stationary = {
  states : int;
  pi : float array;
  drift : float;
  (* Modes with Re z < 0: (z_j, a_j phi_j) pre-multiplied so
     F(x) = pi + sum_j e^(z_j x) mode_j. *)
  modes : (Complex.t * Complex.t array) array;
}

(* The quadratic pencil M(z) = z^2/2 S - z R + Q^T as a complex matrix. *)
let pencil model z =
  let n = Generator.dim model.generator in
  let qt = Sparse.to_dense (Sparse.transpose (Generator.matrix model.generator)) in
  let open Complex in
  let z2_half = div (mul z z) { re = 2.; im = 0. } in
  Cmatrix.init ~rows:n ~cols:n (fun i j ->
      let base = { re = Dense.get qt i j; im = 0. } in
      if i = j then
        add base
          (sub
             (mul z2_half { re = model.variances.(i); im = 0. })
             (mul z { re = model.rates.(i); im = 0. }))
      else base)

(* Null vector of the (nearly singular) pencil at an approximate
   eigenvalue: two steps of inverse iteration from a fixed start. *)
let null_vector model z =
  let n = Generator.dim model.generator in
  let normalize v =
    let scale =
      Array.fold_left (fun acc c -> Float.max acc (Complex.norm c)) 0. v
    in
    if scale = 0. then v
    else Array.map (fun c -> Complex.div c { re = scale; im = 0. }) v
  in
  let start =
    Array.init n (fun i ->
        { Complex.re = 1. +. (0.37 *. float_of_int i); im = 0. })
  in
  (* If z is exact enough that the LU hits a hard zero pivot (common for
     n = 1 where the pencil is scalar), nudge it off the eigenvalue — the
     inverse iteration only needs "nearly singular". *)
  let rec solve_with_jitter z attempt =
    let m = pencil model z in
    match Cmatrix.solve m start with
    | v -> (m, v)
    | exception Failure _ when attempt < 3 ->
        let bump = 1e-9 *. (1. +. Complex.norm z) *. (10. ** float_of_int attempt) in
        solve_with_jitter (Complex.add z { re = bump; im = bump /. 7. })
          (attempt + 1)
  in
  let m, first = solve_with_jitter z 0 in
  let first = normalize first in
  match Cmatrix.solve m first with
  | second -> normalize second
  | exception Failure _ -> first

let linearized_matrix model =
  (* Companion form for f'' = 2 S^{-1} (R f' - Q^T f):
     d/dx (f, f') = [[0, I], [-2 S^{-1} Q^T, 2 S^{-1} R]] (f, f'). *)
  let n = Generator.dim model.generator in
  let qt =
    Sparse.to_dense (Sparse.transpose (Generator.matrix model.generator))
  in
  Dense.init ~rows:(2 * n) ~cols:(2 * n) (fun i j ->
      if i < n then (if j = i + n then 1. else 0.)
      else begin
        let row = i - n in
        if j < n then -2. /. model.variances.(row) *. Dense.get qt row j
        else if j - n = row then 2. *. model.rates.(row) /. model.variances.(row)
        else 0.
      end)

let stationary model =
  let n = Generator.dim model.generator in
  let eigenvalues = Eigen.eigenvalues (linearized_matrix model) in
  (* Keep the stable modes. The spectrum contains one (numerically tiny)
     zero eigenvalue; exclude it with a scale-aware threshold. *)
  let magnitude_scale =
    Array.fold_left
      (fun acc z -> Float.max acc (Complex.norm z))
      1. eigenvalues
  in
  let threshold = -1e-9 *. magnitude_scale in
  let stable =
    Array.of_list
      (List.filter
         (fun z -> z.Complex.re < threshold)
         (Array.to_list eigenvalues))
  in
  if Array.length stable <> n then
    failwith
      (Printf.sprintf
         "Fluid.stationary: expected %d stable modes, found %d" n
         (Array.length stable));
  let vectors = Array.map (fun z -> null_vector model z) stable in
  (* Boundary condition F(0) = 0: sum_j a_j phi_j = -pi. *)
  let system =
    Cmatrix.init ~rows:n ~cols:n (fun i j -> vectors.(j).(i))
  in
  let rhs =
    Array.init n (fun i -> { Complex.re = -.model.pi.(i); im = 0. })
  in
  let coefficients = Cmatrix.solve system rhs in
  let modes =
    Array.mapi
      (fun j z ->
        (z, Array.map (fun c -> Complex.mul coefficients.(j) c) vectors.(j)))
      stable
  in
  { states = n; pi = Array.copy model.pi; drift = model.drift; modes }

let background_distribution s = Array.copy s.pi
let mean_drift s = s.drift

let joint_cdf s ~state x =
  if state < 0 || state >= s.states then
    invalid_arg "Fluid.joint_cdf: state out of range";
  if x < 0. then 0.
  else begin
    let acc = ref s.pi.(state) in
    Array.iter
      (fun (z, mode) ->
        (* Re(e^{z x} mode_i) — the conjugate pairs cancel imaginaries. *)
        let exponent = Complex.exp (Complex.mul z { re = x; im = 0. }) in
        acc := !acc +. (Complex.mul exponent mode.(state)).Complex.re)
      s.modes;
    Float.max 0. (Float.min 1. !acc)
  end

let cdf s x =
  if x < 0. then 0.
  else begin
    let acc = ref 0. in
    for i = 0 to s.states - 1 do
      acc := !acc +. joint_cdf s ~state:i x
    done;
    Float.max 0. (Float.min 1. !acc)
  end

let ccdf s x = 1. -. cdf s x

let mean_level s =
  (* E X = int_0^inf P(X > x) dx = -sum_j (sum_i mode_j,i) / z_j
     (each mode integrates to [e^{zx}/z] and P(X>x) = -sum modes). *)
  let acc = ref Complex.zero in
  Array.iter
    (fun (z, mode) ->
      let total = Array.fold_left Complex.add Complex.zero mode in
      acc := Complex.add !acc (Complex.div total z))
    s.modes;
  (* P(X > x) = - sum_j e^{z_j x} total_j, so E X = sum_j total_j / z_j. *)
  !acc.Complex.re

let decay_rate s =
  let slowest =
    Array.fold_left
      (fun acc (z, _) -> Float.max acc z.Complex.re)
      neg_infinity s.modes
  in
  -.slowest

let simulate_level model rng ~horizon ~dt ~burn_in =
  if dt <= 0. || horizon <= burn_in then
    invalid_arg "Fluid.simulate_level: bad horizon/dt";
  let exit_rates = Generator.exit_rates model.generator in
  let n = Generator.dim model.generator in
  let targets = Array.make n [||] and probabilities = Array.make n [||] in
  for i = 0 to n - 1 do
    let jumps = Generator.embedded_jump_distribution model.generator i in
    targets.(i) <- Array.map fst jumps;
    probabilities.(i) <- Array.map snd jumps
  done;
  let steps = int_of_float (horizon /. dt) in
  let burn_steps = int_of_float (burn_in /. dt) in
  let samples = Array.make (max 1 (steps - burn_steps)) 0. in
  let state = ref (Rng.categorical rng model.pi) in
  let level = ref 0. in
  for k = 0 to steps - 1 do
    let i = !state in
    level :=
      Float.max 0.
        (!level +. (model.rates.(i) *. dt)
        +. Rng.gaussian rng ~mu:0. ~sigma:(sqrt (model.variances.(i) *. dt)));
    (* First-order jump approximation: at most one transition per step. *)
    if exit_rates.(i) > 0. && Rng.uniform rng < exit_rates.(i) *. dt then
      state := targets.(i).(Rng.categorical rng probabilities.(i));
    if k >= burn_steps then samples.(k - burn_steps) <- !level
  done;
  samples

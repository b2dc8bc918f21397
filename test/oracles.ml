(* Independent oracles shared by the test executables. *)

module Model = Mrm_core.Model
module Transient = Mrm_ctmc.Transient
module Vec = Mrm_linalg.Vec

(* The mean E B(t) = int_0^t p(u) r du by Simpson's rule over the
   expected instantaneous reward rate, on uniformization-computed
   transient probabilities. Valid for any variance (the mean is
   variance-independent). *)
let expected_reward_integral ?eps m ~t ~steps =
  if steps <= 0 then
    invalid_arg "Oracles.expected_reward_integral: steps > 0";
  let steps = if steps mod 2 = 1 then steps + 1 else steps in
  let g = m.Model.generator and pi = m.Model.initial in
  let rates = m.Model.rates in
  let h = t /. float_of_int steps in
  let rate_at u =
    let eps = Option.map (fun e -> e /. 10.) eps in
    Vec.dot (Transient.probabilities ?eps g ~initial:pi ~t:u) rates
  in
  let acc = ref (rate_at 0. +. rate_at t) in
  for k = 1 to steps - 1 do
    let w = if k mod 2 = 1 then 4. else 2. in
    acc := !acc +. (w *. rate_at (float_of_int k *. h))
  done;
  !acc *. h /. 3.

(* The multi-pass randomization round the solver ran before its row
   kernels, kept as their oracle: rows [lo, hi) of U(k+1) from U(k) by
   the fused mat-vec ([Kernel.mv_fused], highest order first), then
   element-wise passes adding R' U^(j-1) and (1/2) S' U^(j-2), then the
   impulse terms (1/m!) P^(m) U^(j-m) through a scratch vector, then
   one pass per order and Poisson term folding U(k+1) into its
   accumulator. [cur] and [next] hold order j at index j, with the
   shared ones vector at index 0; each accumulator holds order j at
   index j (index 0 unused); [coupling] is empty without impulses. *)
let multipass_round structure ~r' ~s' ~coupling ~order ~cur ~next ~terms ~lo
    ~hi =
  let heads buf = Array.init order (fun idx -> buf.(order - idx)) in
  Mrm_engine.Kernel.mv_fused structure (heads cur) (heads next) ~lo ~hi;
  for j = order downto 1 do
    let nj = next.(j) and cj1 = cur.(j - 1) in
    for i = lo to hi - 1 do
      nj.(i) <- nj.(i) +. (r'.(i) *. cj1.(i))
    done;
    if j >= 2 then begin
      let cj2 = cur.(j - 2) in
      for i = lo to hi - 1 do
        nj.(i) <- nj.(i) +. (0.5 *. s'.(i) *. cj2.(i))
      done
    end
  done;
  if Array.length coupling > 0 then begin
    let scratch = Vec.zeros (Array.length r') in
    for j = order downto 1 do
      let nj = next.(j) in
      for m = 1 to j do
        let c, pm = coupling.(m - 1) in
        if Mrm_linalg.Sparse.nnz pm > 0 then begin
          Mrm_linalg.Sparse.mv_into_range pm cur.(j - m) scratch ~lo ~hi;
          for i = lo to hi - 1 do
            nj.(i) <- nj.(i) +. (c *. scratch.(i))
          done
        end
      done
    done
  end;
  List.iter
    (fun (w, acc) ->
      for j = 1 to order do
        let accj = acc.(j) and nj = next.(j) in
        for i = lo to hi - 1 do
          accj.(i) <- accj.(i) +. (w *. nj.(i))
        done
      done)
    terms

(* The uniformized generator Q' = I + Q/rate (rate > 0) as
   Generator.uniformized built it before its one-pass construction:
   scale Q, add the identity through triplets (the 1 sorts before Q's
   diagonal, so the sum is 1 + q_ii/rate), then clamp negatives to 0
   through triplets again; of_triplets drops the exact zeros on both
   trips. *)
let uniformized_three_step g ~rate =
  let module Sparse = Mrm_linalg.Sparse in
  let n = Mrm_ctmc.Generator.dim g in
  let triplets m =
    let acc = ref [] in
    Sparse.iter m (fun i j v -> acc := (i, j, v) :: !acc);
    List.rev !acc
  in
  let scaled = Sparse.scale (1. /. rate) (Mrm_ctmc.Generator.matrix g) in
  let shifted =
    Sparse.of_triplets ~rows:n ~cols:n
      (List.init n (fun i -> (i, i, 1.)) @ triplets scaled)
  in
  Sparse.of_triplets ~rows:n ~cols:n
    (List.map
       (fun (i, j, v) -> (i, j, if v < 0. then 0. else v))
       (triplets shifted))

(* The embedded jump distribution of state [i] as it was computed
   before it walked one row: the exit rate from the whole exit_rates
   vector, the row collected by a scan of every matrix entry. *)
let embedded_jump_distribution_scan g i =
  let exit = (Mrm_ctmc.Generator.exit_rates g).(i) in
  if exit <= 0. then [||]
  else begin
    let acc = ref [] in
    Mrm_linalg.Sparse.iter (Mrm_ctmc.Generator.matrix g) (fun row j v ->
        if row = i && j <> i && v > 0. then acc := (j, v /. exit) :: !acc);
    Array.of_list (List.rev !acc)
  end

(* A birth-death generator as Generator.birth_death built it before it
   wrote the CSR arrays directly: positive rates collected as triplets
   (state by state downwards, death before birth in the list), the
   diagonal and the CSR arrays then formed by Generator.of_triplets,
   which sorts them. *)
let birth_death_triplets ~states ~birth ~death =
  let triplets = ref [] in
  for i = states - 1 downto 0 do
    if i < states - 1 then begin
      let b = birth i in
      if b > 0. then triplets := (i, i + 1, b) :: !triplets
    end;
    if i > 0 then begin
      let d = death i in
      if d > 0. then triplets := (i, i - 1, d) :: !triplets
    end
  done;
  Mrm_ctmc.Generator.of_triplets ~states !triplets

(* The impulse-extended moment ODE, an oracle for Impulse.moments
   independent of its sweep: eq. (6) plus the impulse coupling
   sum_{m=1..n} C(n,m) Q^(m) V^(n-m), integrated with an explicit
   stepper (defaults mirror Moments_ode). Q^(m) has entries
   q_ij rho_ij^m on the impulse support, built here apart from the
   sweep's P^(m). *)
let q_power_matrix (t : Mrm_core.Impulse.t) m =
  let module Sparse = Mrm_linalg.Sparse in
  let q = Mrm_ctmc.Generator.matrix t.base.Model.generator in
  let triplets = ref [] in
  Sparse.iter t.impulses (fun i j rho ->
      let rate = Sparse.get q i j in
      triplets := (i, j, rate *. (rho ** float_of_int m)) :: !triplets);
  Sparse.of_triplets ~rows:(Model.dim t.base) ~cols:(Model.dim t.base)
    !triplets

let impulse_moments_ode ?(method_ = Mrm_ode.Ode.Heun) ?steps
    (t : Mrm_core.Impulse.t) ~t:horizon ~order =
  let module Sparse = Mrm_linalg.Sparse in
  if horizon < 0. then
    invalid_arg "Oracles.impulse_moments_ode: requires t >= 0";
  if order < 0 then
    invalid_arg "Oracles.impulse_moments_ode: requires order >= 0";
  let base = t.base in
  let n = Model.dim base in
  let qm = Mrm_ctmc.Generator.matrix base.Model.generator in
  let q_powers = Array.init order (fun k -> q_power_matrix t (k + 1)) in
  let rates = base.Model.rates and variances = base.Model.variances in
  let rhs ~t:_ ~y =
    let dy = Array.make (n * (order + 1)) 0. in
    let block j = Array.sub y (j * n) n in
    for j = 0 to order do
      let qv = Sparse.mv qm (block j) in
      let jf = float_of_int j in
      for i = 0 to n - 1 do
        let drift =
          if j >= 1 then jf *. rates.(i) *. y.(((j - 1) * n) + i) else 0.
        in
        let diffusion =
          if j >= 2 then
            0.5 *. jf *. (jf -. 1.) *. variances.(i) *. y.(((j - 2) * n) + i)
          else 0.
        in
        dy.((j * n) + i) <- qv.(i) +. drift +. diffusion
      done;
      (* Impulse coupling: + sum_m C(j,m) Q^(m) V^(j-m). *)
      for m = 1 to j do
        if Sparse.nnz q_powers.(m - 1) > 0 then begin
          let coupled = Sparse.mv q_powers.(m - 1) (block (j - m)) in
          let coefficient = Mrm_util.Special.binomial j m in
          for i = 0 to n - 1 do
            dy.((j * n) + i) <- dy.((j * n) + i) +. (coefficient *. coupled.(i))
          done
        end
      done
    done;
    dy
  in
  let y0 = Array.make (n * (order + 1)) 0. in
  for i = 0 to n - 1 do
    y0.(i) <- 1.
  done;
  if horizon = 0. then Array.init (order + 1) (fun j -> Array.sub y0 (j * n) n)
  else begin
    let steps =
      Option.value steps
        ~default:(Mrm_core.Moments_ode.default_steps base ~t:horizon)
    in
    let y =
      Mrm_ode.Ode.integrate method_ rhs ~t0:0. ~t1:horizon ~steps y0
    in
    Array.init (order + 1) (fun j -> Array.sub y (j * n) n)
  end

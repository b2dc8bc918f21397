module Generator = Mrm_ctmc.Generator
module Sparse = Mrm_linalg.Sparse
module Vec = Mrm_linalg.Vec
module Special = Mrm_util.Special
module Rng = Mrm_util.Rng

type t = { base : Model.t; impulses : Sparse.t }

let make base impulse_list =
  let n = Model.dim base in
  let q = Generator.matrix base.Model.generator in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (i, j, rho) ->
      if Int.equal i j then
        invalid_arg "Impulse.make: impulses live on transitions (i <> j)";
      if rho < 0. || not (Float.is_finite rho) then
        invalid_arg
          (Printf.sprintf "Impulse.make: invalid impulse %g on (%d,%d)" rho i
             j);
      if Hashtbl.mem seen (i, j) then
        invalid_arg
          (Printf.sprintf "Impulse.make: duplicate impulse on (%d,%d)" i j);
      Hashtbl.add seen (i, j) ();
      if i < 0 || i >= n || j < 0 || j >= n then
        invalid_arg "Impulse.make: state out of range";
      if Sparse.get q i j <= 0. then
        invalid_arg
          (Printf.sprintf
             "Impulse.make: impulse on (%d,%d) but q_ij = 0 (cannot fire)" i
             j))
    impulse_list;
  let impulses =
    Sparse.of_triplets ~rows:n ~cols:n
      (List.filter (fun (_, _, rho) -> rho > 0.) impulse_list)
  in
  { base; impulses }

(* Q^(m): entries q_ij rho_ij^m on the impulse support. The moment ODE
   builds its own, apart from the sweep's P^(m), so that it stays an
   independent oracle. *)
let q_power_matrix t m =
  let q = Generator.matrix t.base.Model.generator in
  let triplets = ref [] in
  Sparse.iter t.impulses (fun i j rho ->
      let rate = Sparse.get q i j in
      triplets := (i, j, rate *. (rho ** float_of_int m)) :: !triplets);
  Sparse.of_triplets ~rows:(Model.dim t.base) ~cols:(Model.dim t.base)
    !triplets

let moments ?eps ?pool t ~t:horizon ~order =
  Randomization.moments ?eps ?pool ~impulses:t.impulses t.base ~t:horizon
    ~order

let moment ?eps t ~t:horizon ~order =
  let { Randomization.moments = m; _ } = moments ?eps t ~t:horizon ~order in
  Vec.dot t.base.Model.initial m.(order)

let mean ?eps t ~t:horizon = moment ?eps t ~t:horizon ~order:1

let variance ?eps t ~t:horizon =
  let { Randomization.moments = m; _ } = moments ?eps t ~t:horizon ~order:2 in
  let pi = t.base.Model.initial in
  let m1 = Vec.dot pi m.(1) and m2 = Vec.dot pi m.(2) in
  m2 -. (m1 *. m1)

let reward_rate t =
  let pi = Steady.stationary_distribution t.base in
  let q = Generator.matrix t.base.Model.generator in
  let rate = ref (Vec.dot pi t.base.Model.rates) in
  Sparse.iter t.impulses (fun i j rho ->
      rate := !rate +. (pi.(i) *. Sparse.get q i j *. rho));
  !rate

(* Impulse-extended moment ODE (independent comparator). *)
let moments_ode ?(method_ = Mrm_ode.Ode.Heun) ?steps t ~t:horizon ~order =
  if horizon < 0. then invalid_arg "Impulse.moments_ode: requires t >= 0";
  if order < 0 then invalid_arg "Impulse.moments_ode: requires order >= 0";
  let base = t.base in
  let n = Model.dim base in
  let qm = Generator.matrix base.Model.generator in
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
          let coefficient = Special.binomial j m in
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
        ~default:(Moments_ode.default_steps base ~t:horizon)
    in
    let y =
      Mrm_ode.Ode.integrate method_ rhs ~t0:0. ~t1:horizon ~steps y0
    in
    Array.init (order + 1) (fun j -> Array.sub y (j * n) n)
  end

let sample t rng ~t:horizon ~replicas =
  if horizon < 0. then invalid_arg "Impulse.sample: requires t >= 0";
  if replicas <= 0 then invalid_arg "Impulse.sample: requires replicas > 0";
  let base = t.base in
  let g = base.Model.generator in
  let n = Model.dim base in
  let exit_rates = Generator.exit_rates g in
  let targets = Array.make n [||] and probabilities = Array.make n [||] in
  for i = 0 to n - 1 do
    let jumps = Generator.embedded_jump_distribution g i in
    targets.(i) <- Array.map fst jumps;
    probabilities.(i) <- Array.map snd jumps
  done;
  let impulse i j = Sparse.get t.impulses i j in
  let one_sample () =
    let rec go state now reward =
      if now >= horizon then reward
      else begin
        let exit = exit_rates.(state) in
        if exit <= 0. then
          reward
          +. Mrm_brownian.Brownian.sample_increment
               (Model.brownian_of_state base state)
               rng ~dt:(horizon -. now)
        else begin
          let sojourn = Rng.exponential rng ~rate:exit in
          let dt = Float.min sojourn (horizon -. now) in
          let reward =
            reward
            +. Mrm_brownian.Brownian.sample_increment
                 (Model.brownian_of_state base state)
                 rng ~dt
          in
          if now +. sojourn >= horizon then reward
          else begin
            let next =
              targets.(state).(Rng.categorical rng probabilities.(state))
            in
            go next (now +. sojourn) (reward +. impulse state next)
          end
        end
      end
    in
    go (Rng.categorical rng base.Model.initial) 0. 0.
  in
  Array.init replicas (fun _ -> one_sample ())

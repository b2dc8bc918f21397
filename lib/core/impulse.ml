module Generator = Mrm_ctmc.Generator
module Sparse = Mrm_linalg.Sparse
module Vec = Mrm_linalg.Vec
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

let sample t rng ~t:horizon ~replicas =
  if not (Float.is_finite horizon && horizon >= 0.) then
    invalid_arg "Impulse.sample: requires finite t >= 0";
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

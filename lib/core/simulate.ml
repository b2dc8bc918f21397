module Rng = Mrm_util.Rng
module Stats = Mrm_util.Stats
module Generator = Mrm_ctmc.Generator

type estimate = { order : int; value : float; ci_low : float; ci_high : float }
type path_point = { time : float; state : int; reward : float }

(* Per-state jump tables, precomputed once per simulation batch. *)
type jump_tables = {
  exit_rates : float array;
  targets : int array array;
  probabilities : float array array;
}

let build_jump_tables model =
  let g = model.Model.generator in
  let n = Model.dim model in
  let exit_rates = Generator.exit_rates g in
  let targets = Array.make n [||] and probabilities = Array.make n [||] in
  for i = 0 to n - 1 do
    let jumps = Generator.embedded_jump_distribution g i in
    targets.(i) <- Array.map fst jumps;
    probabilities.(i) <- Array.map snd jumps
  done;
  { exit_rates; targets; probabilities }

let sample_initial_state model rng = Rng.categorical rng model.Model.initial

let next_state tables rng i =
  let p = tables.probabilities.(i) in
  tables.targets.(i).(Rng.categorical rng p)

let reward_increment model rng i ~dt =
  Mrm_brownian.Brownian.sample_increment (Model.brownian_of_state model i) rng
    ~dt

let accumulated_reward_with model tables rng ~t =
  let rec go state now reward =
    if now >= t then reward
    else begin
      let exit = tables.exit_rates.(state) in
      if exit <= 0. then
        (* Absorbing state: accumulate for the remaining horizon. *)
        reward +. reward_increment model rng state ~dt:(t -. now)
      else begin
        let sojourn = Rng.exponential rng ~rate:exit in
        let dt = Float.min sojourn (t -. now) in
        let reward = reward +. reward_increment model rng state ~dt in
        if now +. sojourn >= t then reward
        else go (next_state tables rng state) (now +. sojourn) reward
      end
    end
  in
  go (sample_initial_state model rng) 0. 0.

let accumulated_reward model rng ~t =
  if not (Float.is_finite t && t >= 0.) then
    invalid_arg "Simulate.accumulated_reward: requires finite t >= 0";
  accumulated_reward_with model (build_jump_tables model) rng ~t

let sample model rng ~t ~replicas =
  if not (Float.is_finite t && t >= 0.) then
    invalid_arg "Simulate.sample: requires finite t >= 0";
  if replicas <= 0 then invalid_arg "Simulate.sample: requires replicas > 0";
  let tables = build_jump_tables model in
  Array.init replicas (fun _ -> accumulated_reward_with model tables rng ~t)

let estimate_moments ?(confidence = 0.95) model rng ~t ~max_order ~replicas =
  if max_order < 1 then invalid_arg "Simulate.estimate_moments: max_order >= 1";
  let xs = sample model rng ~t ~replicas in
  Array.init max_order (fun k ->
      let order = k + 1 in
      let value = Stats.raw_moment order xs in
      let ci_low, ci_high =
        Stats.raw_moment_confidence_interval ~confidence order xs
      in
      { order; value; ci_low; ci_high })

let joint_path model rng ~t_max ~grid =
  if not (Float.is_finite t_max && t_max > 0.) then
    invalid_arg "Simulate.joint_path: requires finite t_max > 0";
  if grid <= 0 then invalid_arg "Simulate.joint_path: requires grid > 0";
  let tables = build_jump_tables model in
  let dt = t_max /. float_of_int grid in
  let out = Array.make (grid + 1) { time = 0.; state = 0; reward = 0. } in
  let state = ref (sample_initial_state model rng) in
  let reward = ref 0. in
  (* Time remaining in the current sojourn. *)
  let sojourn_left = ref 0. in
  let draw_sojourn () =
    let exit = tables.exit_rates.(!state) in
    if exit <= 0. then infinity else Rng.exponential rng ~rate:exit
  in
  sojourn_left := draw_sojourn ();
  out.(0) <- { time = 0.; state = !state; reward = 0. };
  for k = 1 to grid do
    (* Advance exactly dt of wall-clock time, possibly across jumps. *)
    let remaining = ref dt in
    while !remaining > 0. do
      if !sojourn_left > !remaining then begin
        reward := !reward +. reward_increment model rng !state ~dt:!remaining;
        sojourn_left := !sojourn_left -. !remaining;
        remaining := 0.
      end
      else begin
        reward :=
          !reward +. reward_increment model rng !state ~dt:!sojourn_left;
        remaining := !remaining -. !sojourn_left;
        state := next_state tables rng !state;
        sojourn_left := draw_sojourn ()
      end
    done;
    out.(k) <-
      { time = float_of_int k *. dt; state = !state; reward = !reward }
  done;
  out

let empirical_cdf model rng ~t ~replicas x =
  let xs = sample model rng ~t ~replicas in
  Stats.empirical_cdf xs x

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

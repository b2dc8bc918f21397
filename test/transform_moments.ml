module Model = Mrm_core.Model
module Generator = Mrm_ctmc.Generator
module Dense = Mrm_linalg.Dense
module Lu = Mrm_linalg.Lu
module Sparse = Mrm_linalg.Sparse
module Vec = Mrm_linalg.Vec
module Special = Mrm_util.Special

let stehfest_coefficients stages =
  if stages < 2 || stages mod 2 = 1 || stages > 20 then
    invalid_arg "Transform_moments: stages must be even, in [2, 20]";
  let half = stages / 2 in
  Array.init stages (fun k_minus_1 ->
      let k = k_minus_1 + 1 in
      let sign = if (k + half) mod 2 = 0 then 1. else -1. in
      let acc = ref 0. in
      for j = (k + 1) / 2 to Int.min k half do
        let jf = float_of_int j in
        acc :=
          !acc
          +. (jf ** float_of_int half)
             *. Special.binomial half j *. Special.binomial (2 * j) j
             *. Special.binomial j (k - j)
             *. jf (* j^half * j = j^(half+1) *)
             /. Special.factorial half
      done;
      sign *. !acc)

(* V*^(n)(s) for all n = 0..order at a single real abscissa s > 0. *)
let transform_moments_at model ~order s =
  let n = Model.dim model in
  let q_dense = Sparse.to_dense (Generator.matrix model.Model.generator) in
  let a =
    Dense.sub (Dense.scale s (Dense.identity n)) q_dense
  in
  let factorization = Lu.factorize a in
  let result = Array.make (order + 1) [||] in
  result.(0) <- Lu.solve factorization (Vec.ones n);
  for j = 1 to order do
    let jf = float_of_int j in
    let rhs =
      Array.init n (fun i ->
          let drift = jf *. model.Model.rates.(i) *. result.(j - 1).(i) in
          let diffusion =
            if j >= 2 then
              0.5 *. jf *. (jf -. 1.) *. model.Model.variances.(i)
              *. result.(j - 2).(i)
            else 0.
          in
          drift +. diffusion)
    in
    result.(j) <- Lu.solve factorization rhs
  done;
  result

let moments ?(stages = 12) model ~t ~order =
  if t <= 0. then invalid_arg "Transform_moments.moments: requires t > 0";
  if order < 0 then invalid_arg "Transform_moments.moments: order >= 0";
  let zeta = stehfest_coefficients stages in
  let n = Model.dim model in
  let log2 = log 2. in
  let out = Array.init (order + 1) (fun _ -> Vec.zeros n) in
  for k = 1 to stages do
    let s = float_of_int k *. log2 /. t in
    let vs = transform_moments_at model ~order s in
    let w = zeta.(k - 1) *. log2 /. t in
    for j = 0 to order do
      Vec.axpy ~alpha:w ~x:vs.(j) ~y:out.(j)
    done
  done;
  out

let moment ?stages model ~t ~order =
  let m = moments ?stages model ~t ~order in
  Vec.dot model.Model.initial m.(order)

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

(* Property-based tests (qcheck): cross-method agreement and structural
   invariants on randomly generated second-order MRMs. *)

module Model = Mrm_core.Model
module Randomization = Mrm_core.Randomization
module Check = Mrm_check.Check
module Moments_ode = Mrm_core.Moments_ode
module Moment_bounds = Mrm_core.Moment_bounds
module Generator = Mrm_ctmc.Generator
module Stationary = Mrm_ctmc.Stationary
module Poisson = Mrm_ctmc.Poisson
module Sparse = Mrm_linalg.Sparse
module Vec = Mrm_linalg.Vec
module Special = Mrm_util.Special

(* ------------------------------------------------------------------ *)
(* Generators for random models                                         *)

(* A random irreducible-ish CTMC generator: a guaranteed cycle plus random
   extra transitions, so GTH and stationary analyses are well defined. *)
let random_generator_gen =
  QCheck2.Gen.(
    let* n = int_range 2 5 in
    let* cycle_rates = list_repeat n (float_range 0.2 3.) in
    let* extra =
      list_repeat (n * n)
        (oneof [ return 0.; float_range 0.1 2. ])
    in
    let triplets = ref [] in
    List.iteri
      (fun i r -> triplets := (i, (i + 1) mod n, r) :: !triplets)
      cycle_rates;
    List.iteri
      (fun k r ->
        let i = k / n and j = k mod n in
        if i <> j && r > 0. then triplets := (i, j, r) :: !triplets)
      extra;
    return (Generator.of_triplets ~states:n !triplets))

let random_model_gen =
  QCheck2.Gen.(
    let* g = random_generator_gen in
    let n = Generator.dim g in
    let* rates = list_repeat n (float_range (-3.) 3.) in
    let* variances = list_repeat n (float_range 0. 2.) in
    let* start = int_range 0 (n - 1) in
    let initial = Array.init n (fun i -> if i = start then 1. else 0.) in
    return
      (Model.make ~generator:g ~rates:(Array.of_list rates)
         ~variances:(Array.of_list variances) ~initial))

let model_print m =
  Format.asprintf "%a (rates %a, variances %a)" Model.pp m Vec.pp
    (m : Model.t).Model.rates Vec.pp (m : Model.t).Model.variances

let count = 60

(* ------------------------------------------------------------------ *)

let prop_randomization_matches_ode =
  QCheck2.Test.make ~count ~name:"randomization = adaptive ODE (orders 1-3)"
    ~print:model_print random_model_gen (fun m ->
      let t = 0.7 in
      let a = Randomization.moments m ~t ~order:3 in
      let b = Moments_ode.moments_adaptive ~tol:1e-11 m ~t ~order:3 in
      let ok = ref true in
      for n = 1 to 3 do
        for i = 0 to Model.dim m - 1 do
          let x = a.Randomization.moments.(n).(i) and y = b.(n).(i) in
          let scale = 1. +. Float.max (abs_float x) (abs_float y) in
          if abs_float (x -. y) > 1e-6 *. scale then ok := false
        done
      done;
      !ok)

(* The shared generator (rates in [-3, 3], variances almost surely
   positive) at orders 1-3 cannot show high-order cancellation: draw
   wider mixed-sign drifts, zero variance in about half the states, and
   orders 8-23. *)
let high_order_case_gen =
  QCheck2.Gen.(
    let* g = random_generator_gen in
    let n = Generator.dim g in
    let* rates = list_repeat n (float_range (-10.) 10.) in
    let* variances = list_repeat n (oneof [ return 0.; float_range 0. 2. ]) in
    let* start = int_range 0 (n - 1) in
    let* t = float_range 0.05 1.05 in
    let* order = int_range 8 23 in
    let initial = Array.init n (fun i -> if i = start then 1. else 0.) in
    return
      ( Model.make ~generator:g ~rates:(Array.of_list rates)
          ~variances:(Array.of_list variances) ~initial,
        t,
        order ))

let prop_randomization_matches_ode_high_order =
  QCheck2.Test.make ~count
    ~name:"mixed-sign randomization = adaptive ODE (orders 8-23)"
    ~print:(fun (m, t, order) ->
      Printf.sprintf "%s, t = %h, order %d" (model_print m) t order)
    high_order_case_gen
    (fun (m, t, order) ->
      let a = Randomization.moments m ~t ~order in
      let b = Moments_ode.moments_adaptive ~tol:1e-13 m ~t ~order in
      let ok = ref true in
      for n = 1 to order do
        for i = 0 to Model.dim m - 1 do
          let x = a.Randomization.moments.(n).(i) and y = b.(n).(i) in
          let scale = 1. +. Float.max (abs_float x) (abs_float y) in
          if abs_float (x -. y) > 1e-7 *. scale then ok := false
        done
      done;
      !ok)

let prop_variance_nonnegative =
  QCheck2.Test.make ~count ~name:"Var B(t) >= 0" ~print:model_print
    random_model_gen (fun m ->
      Randomization.variance m ~t:0.9 >= -1e-9)

let prop_cauchy_schwarz_m1_m3 =
  (* For any real random variable, E[B^2]^2 <= E[B] E[B^3] fails in
     general, but Cauchy-Schwarz gives E[B^2]^2 <= E[B^1 B^3]... instead
     test the always-valid Jensen pair: E[B^2] >= (E[B])^2 and
     E[B^4] >= (E[B^2])^2. *)
  QCheck2.Test.make ~count ~name:"Jensen: m2 >= m1^2 and m4 >= m2^2"
    ~print:model_print random_model_gen (fun m ->
      let t = 0.8 in
      let r = Randomization.moments m ~t ~order:4 in
      let pi = (m : Model.t).Model.initial in
      let raw n = Vec.dot pi r.Randomization.moments.(n) in
      let tolerance = 1e-9 *. (1. +. abs_float (raw 4)) in
      raw 2 +. tolerance >= raw 1 ** 2.
      && raw 4 +. tolerance >= raw 2 ** 2.)

let prop_mean_ignores_variances =
  QCheck2.Test.make ~count ~name:"mean independent of S (Figure 3)"
    ~print:model_print random_model_gen (fun m ->
      let t = 1.1 in
      let zeroed = Model.with_variances m (Array.make (Model.dim m) 0.) in
      let a = Randomization.mean m ~t and b = Randomization.mean zeroed ~t in
      abs_float (a -. b) <= 1e-9 *. (1. +. abs_float a))

let prop_variance_monotone_in_s =
  QCheck2.Test.make ~count ~name:"variance monotone in S (Figure 4)"
    ~print:model_print random_model_gen (fun m ->
      let t = 1.1 in
      let inflated =
        Model.with_variances m
          (Array.map (fun v -> v +. 1.) (m : Model.t).Model.variances)
      in
      Randomization.variance inflated ~t
      >= Randomization.variance m ~t -. 1e-9)

let prop_error_bound_honored =
  QCheck2.Test.make ~count:30 ~name:"Theorem 4 error bound (corrected index)"
    ~print:(fun (m, order) ->
      Printf.sprintf "%s, order %d" (model_print m) order)
    QCheck2.Gen.(pair random_model_gen (int_range 1 23))
    (fun (m, order) ->
      let t = 0.6 in
      let tight = Randomization.moments ~eps:1e-13 m ~t ~order in
      let loose = Randomization.moments ~eps:1e-5 m ~t ~order in
      let bound = exp loose.Randomization.diagnostics.log_error_bound in
      let ok = ref (bound <= 1e-5 +. 1e-15) in
      (* The bound applies to the highest-order moment vector itself;
         only rounding is allowed on top. *)
      for i = 0 to Model.dim m - 1 do
        let v = tight.Randomization.moments.(order).(i) in
        let diff = abs_float (v -. loose.Randomization.moments.(order).(i)) in
        if diff > bound +. (1e-12 *. abs_float v) then ok := false
      done;
      !ok)

let prop_moment_series_consistent =
  QCheck2.Test.make ~count:20 ~name:"moment_series = pointwise calls"
    ~print:model_print random_model_gen (fun m ->
      let times = [| 0.3; 0.9 |] in
      let series = Randomization.moment_series m ~times ~order:2 in
      Array.for_all
        (fun (t, ms) ->
          let direct = Randomization.moment m ~t ~order:2 in
          abs_float (ms.(2) -. direct) <= 1e-10 *. (1. +. abs_float direct))
        series)

let prop_moments_is_one_point_sweep =
  QCheck2.Test.make ~count ~name:"moments = one-point moments_at_times (bitwise)"
    ~print:(fun (m, t, order) ->
      Printf.sprintf "%s, t = %h, order %d" (model_print m) t order)
    QCheck2.Gen.(
      triple random_model_gen
        (oneof [ return 0.; float_range 0.01 3. ])
        (int_range 0 5))
    (fun (m, t, order) ->
      let a = Randomization.moments m ~t ~order in
      let b = (Randomization.moments_at_times m ~times:[| t |] ~order).(0) in
      let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
      let da = a.Randomization.diagnostics and db = b.Randomization.diagnostics in
      da.iterations = db.iterations
      && List.for_all2 same
           [ da.q; da.d; da.log_error_bound ]
           [ db.q; db.d; db.log_error_bound ]
      && Array.for_all2 (Array.for_all2 same) a.moments b.moments)

(* ------------------------------------------------------------------ *)

let prop_poisson_window_mass =
  QCheck2.Test.make ~count ~name:"Poisson window captures 1 - eps"
    ~print:string_of_float
    QCheck2.Gen.(float_range 0.01 5000.)
    (fun lambda ->
      let w = Poisson.weights_window ~lambda ~eps:1e-8 in
      w.Poisson.mass > 1. -. 1e-8 && w.Poisson.mass <= 1. +. 1e-12)

let prop_poisson_tail_monotone =
  QCheck2.Test.make ~count ~name:"Poisson tail decreasing in m"
    ~print:string_of_float
    QCheck2.Gen.(float_range 0.5 500.)
    (fun lambda ->
      let ms = [ 1; 3; 10; 30; 100; 300 ] in
      let tails = List.map (fun m -> Poisson.log_tail ~lambda m) ms in
      let rec decreasing = function
        | a :: (b :: _ as rest) -> a >= b && decreasing rest
        | _ -> true
      in
      decreasing tails)

(* Truncation point of the randomization solver: G must be nondecreasing
   in lambda for fixed (d, order, eps) — more expected jumps can only need
   more terms. Monotonicity in the moment order additionally requires the
   corrected tail prefactor d*lambda*(order+1) to be >= 1: below that the
   d^n n! lambda^n correction itself shrinks with n and G may legitimately
   drop by a term (e.g. d=0.01, lambda=10, eps=1e-6: G(1)=28 > G(2)=27). *)
let prop_truncation_point_monotone =
  QCheck2.Test.make ~count ~name:"truncation point monotone in order/lambda"
    ~print:(fun (d, lambda, eps, order) ->
      Printf.sprintf "d=%g lambda=%g eps=%g order=%d" d lambda eps order)
    QCheck2.Gen.(
      let* d = float_range 0.05 4. in
      let* lambda = float_range 0.1 300. in
      let* eps = oneofl [ 1e-12; 1e-9; 1e-6; 1e-3 ] in
      let* order = int_range 0 6 in
      return (d, lambda, eps, order))
    (fun (d, lambda, eps, order) ->
      let g o =
        Check.truncation_point ~impulses:false ~d ~lambda ~order:o ~eps
      in
      let lambda_ok =
        g order
        <= Check.truncation_point ~impulses:false ~d ~lambda:(2. *. lambda)
             ~order ~eps
      in
      let order_ok =
        (* Only claimed on the validated domain (see comment above). *)
        d *. lambda *. float_of_int (order + 1) < 1.
        || g order <= g (order + 1)
      in
      let floor_ok = g order >= max 1 order in
      lambda_ok && order_ok && floor_ok)

let prop_stationary_solves_pi_q =
  QCheck2.Test.make ~count ~name:"GTH: pi Q = 0, pi >= 0, sum pi = 1"
    ~print:(fun g -> Printf.sprintf "generator dim %d" (Generator.dim g))
    random_generator_gen (fun g ->
      let pi = Stationary.gth g in
      let residual = Sparse.vm pi (Generator.matrix g) in
      Vec.norm_inf residual < 1e-10
      && Array.for_all (fun w -> w >= 0.) pi
      && abs_float (Vec.sum pi -. 1.) < 1e-10)

let prop_uniformized_rows_stochastic =
  QCheck2.Test.make ~count ~name:"uniformized rows sum to 1"
    ~print:(fun g -> Printf.sprintf "generator dim %d" (Generator.dim g))
    random_generator_gen (fun g ->
      let q = Generator.uniformization_rate g in
      let p = Generator.uniformized g ~rate:(q +. 1.) in
      Array.for_all
        (fun s -> abs_float (s -. 1.) < 1e-12)
        (Sparse.row_sums p))

let prop_transient_is_distribution =
  QCheck2.Test.make ~count ~name:"transient probabilities form a distribution"
    ~print:(fun g -> Printf.sprintf "generator dim %d" (Generator.dim g))
    random_generator_gen (fun g ->
      let n = Generator.dim g in
      let initial = Array.init n (fun i -> if i = 0 then 1. else 0.) in
      let p = Mrm_ctmc.Transient.probabilities g ~initial ~t:0.8 in
      Array.for_all (fun x -> x >= -1e-12) p
      && abs_float (Vec.sum p -. 1.) < 1e-9)

(* ------------------------------------------------------------------ *)

let prop_bounds_bracket_mixtures =
  (* Two-component normal-mixture moments are available in closed form;
     the CMS bounds must bracket the true CDF everywhere. *)
  let gen =
    QCheck2.Gen.(
      let* w = float_range 0.1 0.9 in
      let* mu1 = float_range (-2.) 0. in
      let* mu2 = float_range 0.5 3. in
      let* s1 = float_range 0.3 1.5 in
      let* s2 = float_range 0.3 1.5 in
      return (w, mu1, mu2, s1, s2))
  in
  QCheck2.Test.make ~count:40 ~name:"CMS bounds bracket normal mixtures"
    ~print:(fun (w, mu1, mu2, s1, s2) ->
      Printf.sprintf "w=%g mu=(%g,%g) s=(%g,%g)" w mu1 mu2 s1 s2)
    gen
    (fun (w, mu1, mu2, s1, s2) ->
      let normal_raw mu sigma n =
        Mrm_brownian.Brownian.raw_moment
          { Mrm_brownian.Brownian.drift = mu; variance = sigma *. sigma }
          ~t:1. n
      in
      let moments =
        Array.init 9 (fun n ->
            (w *. normal_raw mu1 s1 n) +. ((1. -. w) *. normal_raw mu2 s2 n))
      in
      let b = Moment_bounds.prepare moments in
      let cdf x =
        (w *. Special.normal_cdf ~mu:mu1 ~sigma:s1 x)
        +. ((1. -. w) *. Special.normal_cdf ~mu:mu2 ~sigma:s2 x)
      in
      List.for_all
        (fun x ->
          let { Moment_bounds.lower; upper; _ } =
            Moment_bounds.cdf_bounds b x
          in
          let truth = cdf x in
          lower <= truth +. 1e-7 && truth <= upper +. 1e-7)
        [ -2.; -1.; 0.; 0.5; 1.; 2.; 3. ])

let prop_gauss_rule_reproduces_moments =
  QCheck2.Test.make ~count:40 ~name:"Gauss rule reproduces 2n moments"
    ~print:model_print random_model_gen (fun m ->
      let t = 0.8 in
      let order = 8 in
      let r = Randomization.moments m ~t ~order in
      let pi = (m : Model.t).Model.initial in
      let moments =
        Array.init (order + 1) (fun n -> Vec.dot pi r.Randomization.moments.(n))
      in
      match Moment_bounds.prepare moments with
      | exception Invalid_argument _ ->
          (* Nearly-degenerate distribution (e.g. all variances ~ 0 on a
             slow chain): acceptable to refuse. *)
          true
      | b ->
          let nodes, weights = Moment_bounds.gauss_quadrature b in
          let n = Moment_bounds.quadrature_size b in
          let ok = ref true in
          for k = 0 to (2 * n) - 1 do
            let integral = ref 0. in
            Array.iteri
              (fun i node ->
                integral := !integral +. (weights.(i) *. (node ** float_of_int k)))
              nodes;
            let scale = 1. +. abs_float moments.(k) in
            if abs_float (!integral -. moments.(k)) > 1e-5 *. scale then
              ok := false
          done;
          !ok)

let prop_simulation_mean_close =
  QCheck2.Test.make ~count:10 ~name:"simulation mean within 5 sigma"
    ~print:model_print random_model_gen (fun m ->
      let t = 0.6 in
      let rng = Mrm_util.Rng.create ~seed:99L () in
      let replicas = 20_000 in
      let xs = Mrm_core.Simulate.sample m rng ~t ~replicas in
      let sample_mean = Mrm_util.Stats.mean xs in
      let sample_sd =
        sqrt (Mrm_util.Stats.variance xs /. float_of_int replicas)
      in
      let truth = Randomization.mean m ~t in
      abs_float (sample_mean -. truth) <= (5. *. sample_sd) +. 1e-9)

(* ------------------------------------------------------------------ *)

let prop_eigen_transpose_invariant =
  (* A and A^T have the same spectrum: a strong consistency check on the
     QR iteration (completely different Hessenberg forms). *)
  let gen =
    QCheck2.Gen.(
      let* n = int_range 2 7 in
      let* entries = list_repeat (n * n) (float_range (-1.) 1.) in
      return (n, entries))
  in
  QCheck2.Test.make ~count:40 ~name:"eigenvalues of A = eigenvalues of A^T"
    ~print:(fun (n, _) -> Printf.sprintf "%dx%d" n n)
    gen
    (fun (n, entries) ->
      let entries = Array.of_list entries in
      let a =
        Mrm_linalg.Dense.init ~rows:n ~cols:n (fun i j ->
            entries.((i * n) + j))
      in
      let sort e =
        let e = Array.copy e in
        Array.sort
          (fun x y ->
            compare (x.Complex.re, x.Complex.im) (y.Complex.re, y.Complex.im))
          e;
        e
      in
      let ea = sort (Mrm_linalg.Eigen.eigenvalues a) in
      let eat = sort (Mrm_linalg.Eigen.eigenvalues (Mrm_linalg.Dense.transpose a)) in
      let ok = ref true in
      Array.iteri
        (fun k z ->
          let d = Complex.norm (Complex.sub z eat.(k)) in
          if d > 1e-6 *. (1. +. Complex.norm z) then ok := false)
        ea;
      !ok)

let prop_fluid_cdf_valid =
  (* Random stable second-order fluid queues: F(0) = 0, monotone CDF,
     total mass 1, positive mean consistent with the ccdf integral. *)
  let gen =
    QCheck2.Gen.(
      let* g = random_generator_gen in
      let n = Generator.dim g in
      let* raw_rates = list_repeat n (float_range (-3.) 3.) in
      let* variances = list_repeat n (float_range 0.2 2.) in
      return (g, Array.of_list raw_rates, Array.of_list variances))
  in
  QCheck2.Test.make ~count:30 ~name:"fluid stationary CDF is a CDF"
    ~print:(fun (g, _, _) -> Printf.sprintf "dim %d" (Generator.dim g))
    gen
    (fun (g, raw_rates, variances) ->
      (* Force stability by shifting rates to a negative mean drift. *)
      let pi = Stationary.gth g in
      let drift = Vec.dot pi raw_rates in
      let rates = Array.map (fun r -> r -. drift -. 0.5) raw_rates in
      match Fluid.make ~generator:g ~rates ~variances with
      | exception Invalid_argument _ -> true (* e.g. all rates negative *)
      | queue -> begin
          match Fluid.stationary queue with
          | exception Failure _ -> false
          | s ->
              let ok = ref true in
              if Fluid.cdf s 0. > 1e-6 then ok := false;
              let previous = ref (-1e-9) in
              for k = 0 to 30 do
                let c = Fluid.cdf s (0.5 *. float_of_int k) in
                if c < !previous -. 1e-7 then ok := false;
                previous := c
              done;
              if abs_float (Fluid.cdf s 400. -. 1.) > 1e-3 then
                ok := false;
              if Fluid.mean_level s <= 0. then ok := false;
              !ok
        end)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ( "cross-method",
        [
          to_alcotest prop_randomization_matches_ode;
          to_alcotest prop_variance_nonnegative;
          to_alcotest prop_cauchy_schwarz_m1_m3;
          to_alcotest prop_mean_ignores_variances;
          to_alcotest prop_variance_monotone_in_s;
          to_alcotest prop_error_bound_honored;
          to_alcotest prop_moment_series_consistent;
          to_alcotest prop_moments_is_one_point_sweep;
          to_alcotest prop_truncation_point_monotone;
          to_alcotest prop_randomization_matches_ode_high_order;
        ] );
      ( "ctmc",
        [
          to_alcotest prop_poisson_window_mass;
          to_alcotest prop_poisson_tail_monotone;
          to_alcotest prop_stationary_solves_pi_q;
          to_alcotest prop_uniformized_rows_stochastic;
          to_alcotest prop_transient_is_distribution;
        ] );
      ( "bounds-and-simulation",
        [
          to_alcotest prop_bounds_bracket_mixtures;
          to_alcotest prop_gauss_rule_reproduces_moments;
          to_alcotest prop_simulation_mean_close;
        ] );
      ( "spectral",
        [
          to_alcotest prop_eigen_transpose_invariant;
          to_alcotest prop_fluid_cdf_valid;
        ] );
    ]

(* Tests for mrm_core: the model type, the randomization solver
   (Theorems 3-4), the ODE/transform/simulation comparators, the PDE
   density solver, moment-based CDF bounds and steady-state analysis. *)

module Model = Mrm_core.Model
module Randomization = Mrm_core.Randomization
module Check = Mrm_check.Check
module Moments_ode = Mrm_core.Moments_ode
module Transform_moments = Mrm_core.Transform_moments
module Simulate = Mrm_core.Simulate
module Pde = Mrm_core.Pde
module Moment_bounds = Mrm_core.Moment_bounds
module Steady = Mrm_core.Steady
module Brownian = Mrm_brownian.Brownian
module Generator = Mrm_ctmc.Generator
module Vec = Mrm_linalg.Vec
module Rng = Mrm_util.Rng

let check_close ?(tol = 1e-12) name expected actual =
  let scale = 1. +. Float.max (abs_float expected) (abs_float actual) in
  if abs_float (expected -. actual) > tol *. scale then
    Alcotest.failf "%s: expected %.17g, got %.17g" name expected actual

(* Shared fixtures. *)
let generator2 = Generator.of_triplets ~states:2 [ (0, 1, 2.); (1, 0, 3.) ]

let model2 =
  Model.make ~generator:generator2 ~rates:[| 2.0; -1.0 |]
    ~variances:[| 0.5; 1.5 |] ~initial:[| 0.7; 0.3 |]

let generator3 =
  Generator.of_triplets ~states:3
    [ (0, 1, 1.0); (1, 2, 2.0); (2, 0, 1.5); (1, 0, 0.5) ]

let model3 =
  Model.make ~generator:generator3 ~rates:[| 4.0; 2.0; 0.5 |]
    ~variances:[| 0.3; 1.0; 0.1 |] ~initial:[| 1.; 0.; 0. |]

let unconditional model vectors order =
  Vec.dot (model : Model.t).Model.initial vectors.(order)

(* ------------------------------------------------------------------ *)
(* Model                                                                *)

let test_model_validation () =
  (match
     Model.make ~generator:generator2 ~rates:[| 1. |] ~variances:[| 0.; 0. |]
       ~initial:[| 1.; 0. |]
   with
  | _ -> Alcotest.fail "rate dimension"
  | exception Invalid_argument _ -> ());
  (match
     Model.make ~generator:generator2 ~rates:[| 1.; 1. |]
       ~variances:[| -1.; 0. |] ~initial:[| 1.; 0. |]
   with
  | _ -> Alcotest.fail "negative variance"
  | exception Invalid_argument _ -> ());
  (match
     Model.make ~generator:generator2 ~rates:[| 1.; 1. |]
       ~variances:[| 0.; 0. |] ~initial:[| 0.9; 0.3 |]
   with
  | _ -> Alcotest.fail "initial mass"
  | exception Invalid_argument _ -> ());
  match
    Model.make ~generator:generator2
      ~rates:[| Float.infinity; 1. |]
      ~variances:[| 0.; 0. |] ~initial:[| 1.; 0. |]
  with
  | _ -> Alcotest.fail "infinite rate"
  | exception Invalid_argument _ -> ()

let test_model_accessors () =
  Alcotest.(check int) "dim" 2 (Model.dim model2);
  Alcotest.(check bool) "second order" false (Model.is_first_order model2);
  check_close "min rate" (-1.) (Model.min_rate model2);
  check_close "max rate" 2. (Model.max_rate model2);
  check_close "max std" (sqrt 1.5) (Model.max_std_dev model2);
  let bp = Model.brownian_of_state model2 1 in
  check_close "state brownian drift" (-1.) bp.Brownian.drift;
  check_close "state brownian var" 1.5 bp.Brownian.variance

let test_model_first_order_constructor () =
  let m =
    Model.first_order ~generator:generator2 ~rates:[| 1.; 2. |]
      ~initial:[| 1.; 0. |]
  in
  Alcotest.(check bool) "first order" true (Model.is_first_order m)

let test_model_with_variances () =
  let m = Model.with_variances model2 [| 0.; 0. |] in
  Alcotest.(check bool) "now first order" true (Model.is_first_order m);
  (* Original untouched. *)
  Alcotest.(check bool) "original unchanged" false
    (Model.is_first_order model2)

let test_model_defensive_copies () =
  let rates = [| 1.; 1. |] in
  let m =
    Model.make ~generator:generator2 ~rates ~variances:[| 0.; 0. |]
      ~initial:[| 1.; 0. |]
  in
  rates.(0) <- 99.;
  check_close "rates copied" 1. (m : Model.t).Model.rates.(0)

(* ------------------------------------------------------------------ *)
(* Randomization                                                        *)

let test_rand_single_state_closed_form () =
  (* One state, no transitions: B(t) is a drifted Brownian motion. *)
  let g = Generator.of_triplets ~states:1 [] in
  let m =
    Model.make ~generator:g ~rates:[| 1.2 |] ~variances:[| 0.7 |]
      ~initial:[| 1. |]
  in
  let t = 1.4 in
  let r = Randomization.moments m ~t ~order:5 in
  let bp = { Brownian.drift = 1.2; variance = 0.7 } in
  for n = 0 to 5 do
    check_close ~tol:1e-12
      (Printf.sprintf "moment %d" n)
      (Brownian.raw_moment bp ~t n)
      r.moments.(n).(0)
  done

let test_rand_uniform_rewards_reduce_to_brownian () =
  (* Equal (r, sigma^2) in every state: the modulation is invisible and
     B(t) is exactly Brownian, but the solver still runs the full
     recursion. *)
  let r = 1.5 and s2 = 0.8 and t = 0.7 in
  let m =
    Model.make ~generator:generator2 ~rates:[| r; r |] ~variances:[| s2; s2 |]
      ~initial:[| 1.; 0. |]
  in
  let result = Randomization.moments m ~t ~order:4 in
  let bp = { Brownian.drift = r; variance = s2 } in
  for n = 0 to 4 do
    check_close ~tol:1e-9
      (Printf.sprintf "brownian reduction %d" n)
      (Brownian.raw_moment bp ~t n)
      result.moments.(n).(0);
    (* Both initial states give the same answer. *)
    check_close ~tol:1e-12 "states agree" result.moments.(n).(0)
      result.moments.(n).(1)
  done

let test_rand_time_zero () =
  let r = Randomization.moments model2 ~t:0. ~order:3 in
  check_close "m0" 1. r.moments.(0).(0);
  check_close "m1" 0. r.moments.(1).(0);
  check_close "m3" 0. r.moments.(3).(1)

let test_rand_order_zero () =
  let r = Randomization.moments model2 ~t:1.3 ~order:0 in
  check_close "V0 state 0" 1. r.moments.(0).(0);
  check_close "V0 state 1" 1. r.moments.(0).(1)

let test_rand_negative_rates_shift () =
  (* Moments of -B equal (-1)^n times moments of B: run the mirrored model
     and compare; exercises the signed R' recursion. *)
  let mirrored =
    Model.make ~generator:generator2 ~rates:[| -2.0; 1.0 |]
      ~variances:[| 0.5; 1.5 |] ~initial:[| 0.7; 0.3 |]
  in
  let t = 0.8 in
  let original = Randomization.moments model2 ~t ~order:4 in
  let negated = Randomization.moments mirrored ~t ~order:4 in
  for n = 0 to 4 do
    let sign = if n mod 2 = 0 then 1. else -1. in
    for i = 0 to 1 do
      check_close ~tol:1e-9
        (Printf.sprintf "mirror n=%d state=%d" n i)
        (sign *. original.moments.(n).(i))
        negated.moments.(n).(i)
    done
  done

let test_rand_negative_rates_end_to_end () =
  (* A negative-rate model exercises the signed R' recursion inside the
     solver; cross-check randomization against the adaptive ODE
     comparator. *)
  let g = Generator.of_triplets ~states:2 [ (0, 1, 2.); (1, 0, 3.) ] in
  let m =
    Model.make ~generator:g ~rates:[| -4.; 2. |] ~variances:[| 0.5; 1. |]
      ~initial:[| 1.; 0. |]
  in
  let t = 0.8 in
  let a = Randomization.moments m ~t ~order:4 in
  let b = Moments_ode.moments_adaptive ~tol:1e-11 m ~t ~order:4 in
  for n = 0 to 4 do
    for i = 0 to 1 do
      check_close ~tol:1e-7
        (Printf.sprintf "E[B^%d | Z=%d]" n i)
        b.(n).(i)
        a.Randomization.moments.(n).(i)
    done
  done

(* Table 1 at sigma^2 = 0 re-centred on its mean rate (rates shifted by
   c = m_1 / t): the drifts straddle zero, which is where a shift to
   non-negative rates and the binomial map back cancel catastrophically
   from about order 8. The signed recursion must track the moment ODE
   through order 23. *)
let test_rand_centred_table1_high_order () =
  let t = 0.5 and order = 23 in
  let table1 = Mrm_models.Onoff.model (Mrm_models.Onoff.table1 ~sigma2:0.) in
  let c = Randomization.mean table1 ~t /. t in
  let m =
    Model.make ~generator:(table1 : Model.t).Model.generator
      ~rates:(Array.map (fun r -> r -. c) (table1 : Model.t).Model.rates)
      ~variances:(table1 : Model.t).Model.variances
      ~initial:(table1 : Model.t).Model.initial
  in
  let a = Randomization.moments m ~t ~order in
  let b = Moments_ode.moments_adaptive ~tol:1e-13 m ~t ~order in
  for n = 1 to order do
    Array.iteri
      (fun i y ->
        check_close ~tol:1e-10
          (Printf.sprintf "E[B^%d | Z=%d]" n i)
          y a.Randomization.moments.(n).(i))
      b.(n)
  done

let test_rand_all_zero_rewards () =
  let m =
    Model.make ~generator:generator2 ~rates:[| 0.; 0. |]
      ~variances:[| 0.; 0. |] ~initial:[| 1.; 0. |]
  in
  let r = Randomization.moments m ~t:2. ~order:3 in
  check_close "m0" 1. r.moments.(0).(0);
  check_close "m1" 0. r.moments.(1).(0);
  check_close "m2" 0. r.moments.(2).(1)

let test_rand_constant_negative_drift () =
  (* All rates equal and negative, zero variance: B(t) = r t exactly
     (the solver's constant-drift closed form). *)
  let m =
    Model.make ~generator:generator2 ~rates:[| -3.; -3. |]
      ~variances:[| 0.; 0. |] ~initial:[| 1.; 0. |]
  in
  let t = 1.1 in
  let r = Randomization.moments m ~t ~order:3 in
  check_close "m1" (-3.3) r.moments.(1).(0);
  check_close "m2" (3.3 *. 3.3) r.moments.(2).(0);
  check_close "m3" (-.(3.3 ** 3.)) r.moments.(3).(0)

let test_rand_error_bound_honored () =
  (* A loose-eps run deviates from a tight-eps reference by no more than
     the guaranteed bound. *)
  let t = 0.9 and order = 3 in
  let reference = Randomization.moments ~eps:1e-13 model2 ~t ~order in
  let loose = Randomization.moments ~eps:1e-4 model2 ~t ~order in
  let bound = exp loose.diagnostics.log_error_bound in
  Alcotest.(check bool) "bound <= eps" true (bound <= 1e-4);
  (* The bound applies to the highest-order moment vector itself. *)
  for i = 0 to 1 do
    let diff =
      abs_float (reference.moments.(order).(i) -. loose.moments.(order).(i))
    in
    if diff > bound +. 1e-12 then
      Alcotest.failf "error %g exceeds bound %g (state %d)" diff bound i
  done

let test_rand_eps_controls_iterations () =
  let t = 0.9 in
  let loose = Randomization.moments ~eps:1e-3 model2 ~t ~order:2 in
  let tight = Randomization.moments ~eps:1e-12 model2 ~t ~order:2 in
  Alcotest.(check bool) "tighter eps, more iterations" true
    (tight.diagnostics.iterations > loose.diagnostics.iterations);
  (* But the results agree to the loose tolerance. *)
  check_close ~tol:1e-3 "loose close to tight"
    (unconditional model2 tight.moments 2)
    (unconditional model2 loose.moments 2)

let test_rand_diagnostics_substochastic () =
  (* d is chosen so |R'| and S' are substochastic: max |r'_i| <= 1,
     max s'_i <= 1 (the DESIGN.md correction to the paper's d). *)
  let r = Randomization.moments model2 ~t:1. ~order:2 in
  let { Randomization.q; d; _ } = r.diagnostics in
  let max_abs_rate =
    Array.fold_left Float.max neg_infinity
      (Array.map abs_float (model2 : Model.t).Model.rates)
  in
  let max_variance =
    Array.fold_left Float.max 0. (model2 : Model.t).Model.variances
  in
  Alcotest.(check bool) "R' substochastic" true
    (max_abs_rate /. (q *. d) <= 1. +. 1e-12);
  Alcotest.(check bool) "S' substochastic" true
    (max_variance /. (q *. d *. d) <= 1. +. 1e-12)

let test_rand_mean_vs_transient_integral () =
  (* E B(t) = int_0^t p(u) r du, via Simpson on uniformization transients
     (an oracle independent of the moment recursion). *)
  let t = 1.7 in
  let simpson = Oracles.expected_reward_integral model2 ~t ~steps:200 in
  check_close ~tol:1e-8 "mean = rate integral"
    simpson
    (Randomization.mean model2 ~t)

let test_rand_mean_independent_of_variance () =
  (* The paper's Figure-3 observation. *)
  let t = 1.2 in
  let m_a = Randomization.mean model2 ~t in
  let m_b =
    Randomization.mean (Model.with_variances model2 [| 7.; 0.2 |]) ~t
  in
  check_close ~tol:1e-10 "mean unaffected by S" m_a m_b

let test_rand_variance_increases_with_s () =
  (* Adding Brownian variance adds exactly int_0^t E[sigma^2_{Z(u)}] du to
     the variance; in particular it increases it. *)
  let t = 1.2 in
  let low = Randomization.variance model2 ~t in
  let high =
    Randomization.variance (Model.with_variances model2 [| 2.5; 3.5 |]) ~t
  in
  Alcotest.(check bool) "variance grows" true (high > low)

let test_rand_variance_decomposition () =
  (* Var_2nd(t) - Var_1st(t) = int_0^t sum_i p_i(u) sigma_i^2 du: check
     against Simpson on the transient probabilities. *)
  let t = 0.9 in
  let second = Randomization.variance model2 ~t in
  let first =
    Randomization.variance (Model.with_variances model2 [| 0.; 0. |]) ~t
  in
  (* Reuse the rate-integral oracle with sigma^2 as "rates". *)
  let sigma_model =
    Model.make ~generator:generator2 ~rates:(model2 : Model.t).Model.variances
      ~variances:[| 0.; 0. |] ~initial:(model2 : Model.t).Model.initial
  in
  let brownian_contribution =
    Oracles.expected_reward_integral sigma_model ~t ~steps:400
  in
  check_close ~tol:1e-7 "variance decomposition"
    (first +. brownian_contribution)
    second

let test_rand_moment_series () =
  let times = [| 0.; 0.5; 1. |] in
  let series = Randomization.moment_series model2 ~times ~order:2 in
  Alcotest.(check int) "rows" 3 (Array.length series);
  let t1, ms = series.(2) in
  check_close "time" 1. t1;
  check_close ~tol:1e-10 "matches single call"
    (Randomization.moment model2 ~t:1. ~order:2)
    ms.(2);
  check_close "m0 row" 1. ms.(0)

let test_rand_central_moment () =
  let t = 0.8 in
  let mean = Randomization.mean model2 ~t in
  let c2 = Randomization.central_moment model2 ~t ~order:2 in
  check_close ~tol:1e-10 "central 2 = variance"
    (Randomization.variance model2 ~t)
    c2;
  check_close ~tol:1e-10 "central 1 = 0" 0.
    (Randomization.central_moment model2 ~t ~order:1);
  ignore mean

let test_rand_invalid_arguments () =
  (match Randomization.moments model2 ~t:(-1.) ~order:2 with
  | _ -> Alcotest.fail "negative t"
  | exception Invalid_argument _ -> ());
  (* Regression: NaN and infinite horizons used to slip past the `t < 0.`
     guard (IEEE comparisons with NaN are false) and poison the Poisson
     truncation search downstream. They must be rejected up front. *)
  List.iter
    (fun t ->
      (match Randomization.moments model2 ~t ~order:2 with
      | _ -> Alcotest.failf "t = %g accepted" t
      | exception Invalid_argument _ -> ());
      match Randomization.moments_at_times model2 ~times:[| 1.0; t |] ~order:2 with
      | _ -> Alcotest.failf "times containing %g accepted" t
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity ];
  (match Randomization.moments model2 ~t:1. ~order:(-1) with
  | _ -> Alcotest.fail "negative order"
  | exception Invalid_argument _ -> ());
  match Randomization.moments ~eps:0. model2 ~t:1. ~order:1 with
  | _ -> Alcotest.fail "zero eps"
  | exception Invalid_argument _ -> ()

let test_rand_truncation_point_degenerate () =
  (* Regression: lambda = 0 used to take log 0 = -inf through the tail
     search and return a poisoned truncation point. A zero uniformization
     rate means the Poisson mixture is concentrated at N = 0, so order
     terms suffice exactly. *)
  let truncation_point = Check.truncation_point ~impulses:false ~d:1. in
  Alcotest.(check int) "lambda = 0, order 3" 3
    (truncation_point ~lambda:0. ~order:3 ~eps:1e-9);
  Alcotest.(check int) "lambda = 0, order 0" 1
    (truncation_point ~lambda:0. ~order:0 ~eps:1e-9);
  (match truncation_point ~lambda:Float.nan ~order:2 ~eps:1e-9 with
  | _ -> Alcotest.fail "nan lambda accepted"
  | exception Invalid_argument _ -> ());
  (match truncation_point ~lambda:(-1.) ~order:2 ~eps:1e-9 with
  | _ -> Alcotest.fail "negative lambda accepted"
  | exception Invalid_argument _ -> ());
  (* Sanity on a regular call: G grows with lambda and stays modest. *)
  let g = truncation_point ~lambda:10. ~order:2 ~eps:1e-9 in
  Alcotest.(check bool) "regular G sensible" true (g > 10 && g < 100)

(* Golden fixtures hold one record per line; blank and '#' lines are
   comments. Values are compared by their bits. *)
let fixture_records path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec read acc =
        match input_line ic with
        | line -> read (if line = "" || line.[0] = '#' then acc else line :: acc)
        | exception End_of_file -> List.rev acc
      in
      read [])

let check_bits name expected actual =
  if Int64.bits_of_float expected <> Int64.bits_of_float actual then
    Alcotest.failf "%s: expected %h, got %h" name expected actual

(* Golden values: [moments] on the Section-7 ON-OFF model must reproduce
   the recorded hex floats bit for bit (values, G and the error bound),
   so a restructuring of the solver cannot drift the numbers silently. *)
let test_rand_golden_hex () =
  let lines = fixture_records "fixtures/moments_golden.txt" in
  let rec cases = function
    | [] -> ()
    | header :: rest ->
        Scanf.sscanf header "case %s sigma2=%h t=%h order=%d G=%d bound=%h"
          (fun name sigma2 t order g bound ->
            let model = Mrm_models.Onoff.model (Mrm_models.Onoff.table1 ~sigma2) in
            let r = Randomization.moments model ~t ~order in
            Alcotest.(check int) (name ^ ": G") g r.diagnostics.iterations;
            check_bits (name ^ ": bound") bound r.diagnostics.log_error_bound;
            List.iteri
              (fun n row ->
                List.iteri
                  (fun i hex ->
                    check_bits
                      (Printf.sprintf "%s: V^(%d)_%d" name n i)
                      (float_of_string hex) r.moments.(n).(i))
                  (String.split_on_char ' ' row))
              (List.filteri (fun n _ -> n <= order) rest);
            cases (List.filteri (fun n _ -> n > order) rest))
  in
  cases lines

(* The sweep paths moments_golden.txt leaves open: the CSR kernel (the
   multiprocessor model at orders 3 and 5), a five-point shared sweep on
   the Table-2 shape at orders 2 and 3, and a first-order model at
   order 1. Each case is solved without a pool and on a 2-job pool; both
   must reproduce the recorded bits. *)
let sweep_golden_model = function
  | "multi20" ->
      Mrm_models.Multiprocessor.(model { default with processors = 20 })
  | "scaled400" -> Mrm_models.Onoff.(model (scaled_table2 ~sources:400))
  | "onoff-sigma0" -> Mrm_models.Onoff.(model (table1 ~sigma2:0.))
  | name -> Alcotest.failf "sweep_golden.txt: unknown model %s" name

let test_rand_sweep_golden_hex () =
  let rec take k acc rest =
    if k = 0 then (List.rev acc, rest)
    else
      match rest with
      | x :: rest -> take (k - 1) (x :: acc) rest
      | [] -> Alcotest.fail "sweep_golden.txt: truncated case"
  in
  let check_case pool ~name ~order ~stride points =
    let model = sweep_golden_model name in
    let times = Array.of_list (List.map (fun (t, _, _, _) -> t) points) in
    let results =
      Randomization.moments_at_times ?pool model ~times ~order
    in
    List.iteri
      (fun k (t, g, bound, rows) ->
        let r = results.(k) in
        let what =
          Printf.sprintf "%s order %d t=%h (%s)" name order t
            (if pool = None then "no pool" else "2 jobs")
        in
        Alcotest.(check int) (what ^ ": G") g r.diagnostics.iterations;
        check_bits (what ^ ": bound") bound r.diagnostics.log_error_bound;
        List.iteri
          (fun n row ->
            List.iteri
              (fun k hex ->
                let i = k * stride in
                check_bits
                  (Printf.sprintf "%s: V^(%d)_%d" what n i)
                  (float_of_string hex) r.moments.(n).(i))
              (String.split_on_char ' ' row))
          rows)
      points
  in
  let rec cases pool = function
    | [] -> ()
    | header :: rest ->
        let name, order, stride, count =
          Scanf.sscanf header "case model=%s order=%d stride=%d times=%d"
            (fun name order stride count -> (name, order, stride, count))
        in
        let rec points k acc rest =
          if k = 0 then (List.rev acc, rest)
          else
            match rest with
            | point :: rest ->
                let t, g, bound =
                  Scanf.sscanf point "t=%h G=%d bound=%h" (fun t g b ->
                      (t, g, b))
                in
                let rows, rest = take (order + 1) [] rest in
                points (k - 1) ((t, g, bound, rows) :: acc) rest
            | [] -> Alcotest.fail "sweep_golden.txt: truncated case"
        in
        let pts, rest = points count [] rest in
        check_case pool ~name ~order ~stride pts;
        cases pool rest
  in
  let lines = fixture_records "fixtures/sweep_golden.txt" in
  cases None lines;
  Mrm_engine.Pool.with_pool ~jobs:2 (fun pool -> cases (Some pool) lines)

let test_rand_higher_order_moments_positive () =
  (* Non-negative rates + nonneg support start: all raw moments of the
     shifted process are positive; with positive drift everywhere the raw
     moments must increase with t. *)
  let m =
    Model.make ~generator:generator3 ~rates:[| 4.; 2.; 0.5 |]
      ~variances:[| 0.1; 0.2; 0.3 |] ~initial:[| 1.; 0.; 0. |]
  in
  let a = Randomization.moments m ~t:0.5 ~order:6 in
  let b = Randomization.moments m ~t:1.0 ~order:6 in
  for n = 1 to 6 do
    Alcotest.(check bool)
      (Printf.sprintf "moment %d grows" n)
      true
      (unconditional m b.moments n > unconditional m a.moments n
      && unconditional m a.moments n > 0.)
  done

(* ------------------------------------------------------------------ *)
(* First-order models (sigma^2 = 0)                                     *)

let test_first_order_two_state_mean_closed_form () =
  (* For a 2-state chain the mean reward has the closed form
     rho t + (r(pi_0) - rho) (1 - e^{-(a+b)t})/(a+b) starting from
     state 0. *)
  let a = 2. and b = 3. in
  let r0 = 2. and r1 = -1. in
  let m =
    Model.first_order ~generator:generator2 ~rates:[| r0; r1 |]
      ~initial:[| 1.; 0. |]
  in
  let rho = ((b *. r0) +. (a *. r1)) /. (a +. b) in
  let t = 1.1 in
  let expected =
    (rho *. t) +. ((r0 -. rho) *. (1. -. exp (-.(a +. b) *. t)) /. (a +. b))
  in
  check_close ~tol:1e-10 "closed-form mean" expected
    (Randomization.mean m ~t)

(* ------------------------------------------------------------------ *)
(* Moments_ode                                                          *)

let test_ode_matches_randomization () =
  let t = 0.8 in
  let reference = Randomization.moments model2 ~t ~order:3 in
  let heun = Moments_ode.moments model2 ~t ~order:3 in
  let rk4 = Moments_ode.moments ~method_:Mrm_ode.Ode.Rk4 model2 ~t ~order:3 in
  let adaptive = Moments_ode.moments_adaptive ~tol:1e-12 model2 ~t ~order:3 in
  for n = 0 to 3 do
    for i = 0 to 1 do
      (* Heun at the default ~100 steps: O(h^2) ~ 1e-4 relative. *)
      check_close ~tol:1e-4
        (Printf.sprintf "heun n=%d i=%d" n i)
        reference.moments.(n).(i)
        heun.(n).(i);
      check_close ~tol:1e-8
        (Printf.sprintf "rk4 n=%d i=%d" n i)
        reference.moments.(n).(i)
        rk4.(n).(i);
      check_close ~tol:1e-9
        (Printf.sprintf "rkf45 n=%d i=%d" n i)
        reference.moments.(n).(i)
        adaptive.(n).(i)
    done
  done

let test_ode_time_zero () =
  let m = Moments_ode.moments model2 ~t:0. ~order:2 in
  check_close "V0" 1. m.(0).(0);
  check_close "V1" 0. m.(1).(0)

let test_ode_default_steps_scale_with_q () =
  let steps_small = Moments_ode.default_steps model2 ~t:1. in
  let steps_large = Moments_ode.default_steps model2 ~t:100. in
  Alcotest.(check bool) "steps grow with horizon" true
    (steps_large > steps_small)

let test_ode_moment_convenience () =
  let t = 0.7 in
  check_close ~tol:1e-5 "moment wrapper"
    (Randomization.moment model2 ~t ~order:2)
    (Moments_ode.moment model2 ~t ~order:2)

(* ------------------------------------------------------------------ *)
(* Transform_moments                                                    *)

let test_stehfest_coefficients_properties () =
  List.iter
    (fun stages ->
      let zeta = Transform_moments.stehfest_coefficients stages in
      let total = Array.fold_left ( +. ) 0. zeta in
      (* Coefficients sum to 0 (consistency for F(s) = const). *)
      check_close ~tol:1e-6
        (Printf.sprintf "sum zero M=%d" stages)
        0. total;
      (* Inverting F(s) = 1/s at any t gives 1: sum_k zeta_k / k = 1. *)
      let weighted =
        Array.mapi (fun i z -> z /. float_of_int (i + 1)) zeta
      in
      check_close ~tol:1e-6
        (Printf.sprintf "inverts 1/s M=%d" stages)
        1.
        (Array.fold_left ( +. ) 0. weighted))
    [ 6; 10; 12; 14 ]

let test_stehfest_inverts_polynomial_transform () =
  (* F(s) = 1/s^2 -> f(t) = t; check via the coefficient identity
     sum zeta_k ln2/t * (t / (k ln2))^2 = t. *)
  let stages = 12 in
  let zeta = Transform_moments.stehfest_coefficients stages in
  let t = 2.5 in
  let log2 = log 2. in
  let acc = ref 0. in
  Array.iteri
    (fun i z ->
      let s = float_of_int (i + 1) *. log2 /. t in
      acc := !acc +. (z *. log2 /. t /. (s *. s)))
    zeta;
  check_close ~tol:1e-6 "inverts 1/s^2" t !acc

let test_stehfest_invalid () =
  (match Transform_moments.stehfest_coefficients 7 with
  | _ -> Alcotest.fail "odd stages"
  | exception Invalid_argument _ -> ());
  match Transform_moments.stehfest_coefficients 0 with
  | _ -> Alcotest.fail "zero stages"
  | exception Invalid_argument _ -> ()

let test_transform_matches_randomization () =
  let t = 0.8 in
  let reference = Randomization.moments model2 ~t ~order:3 in
  let transform = Transform_moments.moments model2 ~t ~order:3 in
  for n = 0 to 3 do
    for i = 0 to 1 do
      check_close ~tol:2e-4
        (Printf.sprintf "gaver n=%d i=%d" n i)
        reference.moments.(n).(i)
        transform.(n).(i)
    done
  done

let test_transform_invalid () =
  match Transform_moments.moments model2 ~t:0. ~order:1 with
  | _ -> Alcotest.fail "t = 0 rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Simulate                                                             *)

let test_simulate_moments_cover_analytic () =
  let t = 0.8 in
  let rng = Rng.create ~seed:77L () in
  let estimates =
    Simulate.estimate_moments ~confidence:0.999 model2 rng ~t ~max_order:3
      ~replicas:60_000
  in
  let reference = Randomization.moments model2 ~t ~order:3 in
  Array.iter
    (fun e ->
      let truth = unconditional model2 reference.moments e.Simulate.order in
      if not (e.Simulate.ci_low <= truth && truth <= e.Simulate.ci_high) then
        Alcotest.failf "moment %d CI [%g, %g] misses %g" e.Simulate.order
          e.ci_low e.ci_high truth)
    estimates

let test_simulate_deterministic_with_seed () =
  let t = 0.5 in
  let a = Simulate.sample model2 (Rng.create ~seed:5L ()) ~t ~replicas:100 in
  let b = Simulate.sample model2 (Rng.create ~seed:5L ()) ~t ~replicas:100 in
  Alcotest.(check bool) "same seed, same samples" true (a = b)

let test_simulate_first_order_single_state () =
  (* Deterministic accumulation: every sample equals r t exactly. *)
  let g = Generator.of_triplets ~states:1 [] in
  let m =
    Model.make ~generator:g ~rates:[| 2.5 |] ~variances:[| 0. |]
      ~initial:[| 1. |]
  in
  let rng = Rng.create () in
  let xs = Simulate.sample m rng ~t:2. ~replicas:50 in
  Array.iter (fun x -> check_close "deterministic sample" 5. x) xs

let test_simulate_joint_path_structure () =
  let rng = Rng.create ~seed:9L () in
  let path = Simulate.joint_path model2 rng ~t_max:1. ~grid:40 in
  Alcotest.(check int) "points" 41 (Array.length path);
  check_close "starts at 0" 0. path.(0).Simulate.time;
  check_close "reward starts at 0" 0. path.(0).Simulate.reward;
  Array.iteri
    (fun k p ->
      if k > 0 then begin
        let prev = path.(k - 1) in
        Alcotest.(check bool) "time increases" true
          (p.Simulate.time > prev.Simulate.time);
        Alcotest.(check bool) "valid state" true
          (p.Simulate.state >= 0 && p.Simulate.state < 2)
      end)
    path

let test_simulate_absorbing_state () =
  (* Absorbing chain: after absorption the reward accumulates at the
     absorbing state's rate. With zero variances B(t) is piecewise
     linear and bounded by max-rate * t. *)
  let g = Generator.of_triplets ~states:2 [ (0, 1, 5.) ] in
  let m =
    Model.make ~generator:g ~rates:[| 1.; 3. |] ~variances:[| 0.; 0. |]
      ~initial:[| 1.; 0. |]
  in
  let rng = Rng.create ~seed:21L () in
  let xs = Simulate.sample m rng ~t:4. ~replicas:500 in
  Array.iter
    (fun x ->
      Alcotest.(check bool) "within range" true (x >= 4. && x <= 12.))
    xs;
  (* Mean matches the randomization solver. *)
  let mean = Mrm_util.Stats.mean xs in
  let truth = Randomization.mean m ~t:4. in
  Alcotest.(check bool) "absorbing mean close" true
    (abs_float (mean -. truth) < 0.15)

let test_simulate_empirical_cdf () =
  let rng = Rng.create ~seed:4L () in
  let below = Simulate.empirical_cdf model2 rng ~t:0.5 ~replicas:2_000 (-100.) in
  let above = Simulate.empirical_cdf model2 rng ~t:0.5 ~replicas:2_000 100. in
  check_close "cdf far left" 0. below;
  check_close "cdf far right" 1. above

(* ------------------------------------------------------------------ *)
(* Pde                                                                  *)

let test_pde_mass_conserved () =
  let solution = Pde.solve model3 ~t:1.0 ~cells:400 in
  check_close ~tol:1e-6 "mass" 1. (Pde.raw_moment model3 solution 0)

let test_pde_moments_match_randomization () =
  let t = 1.0 in
  let solution = Pde.solve model3 ~t ~cells:1200 in
  let reference = Randomization.moments model3 ~t ~order:2 in
  check_close ~tol:5e-3 "pde mean"
    (unconditional model3 reference.moments 1)
    (Pde.raw_moment model3 solution 1);
  check_close ~tol:5e-2 "pde second moment"
    (unconditional model3 reference.moments 2)
    (Pde.raw_moment model3 solution 2)

let test_pde_cdf_monotone () =
  let solution = Pde.solve model3 ~t:0.8 ~cells:300 in
  let previous = ref (-0.001) in
  for k = 0 to 20 do
    let x = -2. +. (0.4 *. float_of_int k) in
    let c = Pde.cdf model3 solution x in
    Alcotest.(check bool) "monotone" true (c >= !previous -. 1e-9);
    previous := c
  done;
  check_close ~tol:1e-5 "cdf right end" 1.
    (Pde.cdf model3 solution 1e6)

let test_pde_matches_brownian_single_state () =
  (* Single state: the PDE is pure advection-diffusion; compare with the
     exact normal CDF. *)
  let g = Generator.of_triplets ~states:1 [] in
  let m =
    Model.make ~generator:g ~rates:[| 1. |] ~variances:[| 0.5 |]
      ~initial:[| 1. |]
  in
  let t = 1.0 in
  let solution = Pde.solve m ~t ~cells:1500 in
  let bp = { Brownian.drift = 1.; variance = 0.5 } in
  List.iter
    (fun x ->
      check_close ~tol:5e-3
        (Printf.sprintf "normal cdf at %g" x)
        (Brownian.cdf bp ~t x)
        (Pde.cdf m solution x))
    [ 0.; 0.5; 1.; 1.5; 2. ]

let test_pde_invalid () =
  match Pde.solve model3 ~t:0. with
  | _ -> Alcotest.fail "t = 0 rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Moment_bounds                                                        *)

let test_bounds_bracket_exponential () =
  (* Exponential(1): m_k = k!. *)
  let moments = Array.init 10 (fun k -> Mrm_util.Special.factorial k) in
  let b = Moment_bounds.prepare moments in
  List.iter
    (fun x ->
      let { Moment_bounds.lower; upper; _ } = Moment_bounds.cdf_bounds b x in
      let truth = 1. -. exp (-.x) in
      Alcotest.(check bool)
        (Printf.sprintf "bracket at %g" x)
        true
        (lower <= truth +. 1e-9 && truth <= upper +. 1e-9);
      Alcotest.(check bool) "ordered" true (lower <= upper))
    [ 0.2; 0.5; 1.; 2.; 3.; 5. ]

let test_bounds_bracket_uniform () =
  (* Uniform(0,1): m_k = 1/(k+1). *)
  let moments = Array.init 12 (fun k -> 1. /. float_of_int (k + 1)) in
  let b = Moment_bounds.prepare moments in
  List.iter
    (fun x ->
      let { Moment_bounds.lower; upper; _ } = Moment_bounds.cdf_bounds b x in
      Alcotest.(check bool)
        (Printf.sprintf "bracket at %g" x)
        true
        (lower <= x +. 1e-9 && x <= upper +. 1e-9))
    [ 0.1; 0.3; 0.5; 0.7; 0.9 ]

let test_bounds_two_point_distribution () =
  (* Mass 0.3 at 1 and 0.7 at 3. The moment sequence of a 2-atom measure
     has an exactly singular 3x3 Hankel matrix, so the evaluator must
     detect the degeneracy, fall back to one interior node, and still
     bracket the true CDF. *)
  let m k =
    (0.3 *. (1. ** float_of_int k)) +. (0.7 *. (3. ** float_of_int k))
  in
  let moments = Array.init 6 (fun k -> m k) in
  let b = Moment_bounds.prepare moments in
  Alcotest.(check int) "degeneracy reduces nodes" 1
    (Moment_bounds.quadrature_size b);
  let truth x = if x < 1. then 0. else if x < 3. then 0.3 else 1. in
  List.iter
    (fun x ->
      let { Moment_bounds.lower; upper; _ } = Moment_bounds.cdf_bounds b x in
      Alcotest.(check bool)
        (Printf.sprintf "bracket at %g" x)
        true
        (lower <= truth x +. 1e-9 && truth x <= upper +. 1e-9))
    [ 0.5; 1.5; 2.; 2.5; 3.5 ]

let test_bounds_tighten_with_more_moments () =
  let gap count =
    let moments = Array.init count (fun k -> Mrm_util.Special.factorial k) in
    let b = Moment_bounds.prepare moments in
    let { Moment_bounds.lower; upper; _ } = Moment_bounds.cdf_bounds b 1. in
    upper -. lower
  in
  Alcotest.(check bool) "more moments, tighter bounds" true
    (gap 12 < gap 6)

let test_bounds_gauss_quadrature_exactness () =
  (* The n-point Gauss rule reproduces the first 2n moments. *)
  let moments = Array.init 8 (fun k -> Mrm_util.Special.factorial k) in
  let b = Moment_bounds.prepare moments in
  let nodes, weights = Moment_bounds.gauss_quadrature b in
  let n = Moment_bounds.quadrature_size b in
  for k = 0 to (2 * n) - 1 do
    let integral = ref 0. in
    Array.iteri
      (fun i node -> integral := !integral +. (weights.(i) *. (node ** float_of_int k)))
      nodes;
    check_close ~tol:1e-7
      (Printf.sprintf "moment %d reproduced" k)
      moments.(k) !integral
  done

let test_bounds_normal_distribution () =
  (* Standard normal (two-sided support): m_{2k} = (2k-1)!!, odd = 0. *)
  let moments =
    Array.init 11 (fun k ->
        if k mod 2 = 1 then 0.
        else begin
          let rec double_factorial n =
            if n <= 1 then 1. else float_of_int n *. double_factorial (n - 2)
          in
          double_factorial (k - 1)
        end)
  in
  let b = Moment_bounds.prepare moments in
  let mid = Moment_bounds.cdf_bounds b 0. in
  Alcotest.(check bool) "median in bounds" true
    (mid.Moment_bounds.lower <= 0.5 && 0.5 <= mid.Moment_bounds.upper);
  let right = Moment_bounds.cdf_bounds b 1.5 in
  let truth = Mrm_util.Special.normal_cdf ~mu:0. ~sigma:1. 1.5 in
  Alcotest.(check bool) "Phi(1.5) in bounds" true
    (right.Moment_bounds.lower <= truth && truth <= right.Moment_bounds.upper)

let test_bounds_invalid_inputs () =
  (match Moment_bounds.prepare [| 1.; 0.5 |] with
  | _ -> Alcotest.fail "too few moments"
  | exception Invalid_argument _ -> ());
  (match Moment_bounds.prepare [| -1.; 0.; 1. |] with
  | _ -> Alcotest.fail "negative mass"
  | exception Invalid_argument _ -> ());
  match Moment_bounds.prepare [| 1.; Float.nan; 1. |] with
  | _ -> Alcotest.fail "nan moment"
  | exception Invalid_argument _ -> ()

let test_bounds_grid () =
  let moments = Array.init 8 (fun k -> Mrm_util.Special.factorial k) in
  let b = Moment_bounds.prepare moments in
  let grid = Moment_bounds.cdf_bounds_grid b [| 0.5; 1.; 2. |] in
  Alcotest.(check int) "grid size" 3 (Array.length grid);
  check_close "points preserved" 1. grid.(1).Moment_bounds.point

(* ------------------------------------------------------------------ *)
(* Steady                                                               *)

let test_steady_reward_rate () =
  (* pi = (0.6, 0.4), r = (2, -1): rho = 0.8. *)
  check_close ~tol:1e-12 "rho" 0.8 (Steady.reward_rate model2)

let test_steady_mean_line () =
  let line = Steady.mean_line model2 ~times:[| 0.; 1.; 2.5 |] in
  check_close "line at 0" 0. (snd line.(0));
  check_close ~tol:1e-12 "line at 2.5" 2. (snd line.(2))

let test_steady_variance_rate_positive () =
  Alcotest.(check bool) "positive" true (Steady.variance_rate model2 > 0.)

let test_steady_variance_rate_matches_long_run () =
  (* Var B(t) / t converges to the variance rate. *)
  let rate = Steady.variance_rate model2 in
  let t = 200. in
  let v = Randomization.variance model2 ~t in
  check_close ~tol:0.02 "CLT variance constant" rate (v /. t)

let test_steady_variance_rate_brownian_only () =
  (* Constant rates: modulation contributes nothing; the rate is
     pi . sigma^2 exactly. *)
  let m =
    Model.make ~generator:generator2 ~rates:[| 1.; 1. |]
      ~variances:[| 2.; 0.5 |] ~initial:[| 1.; 0. |]
  in
  check_close ~tol:1e-10 "pure Brownian rate"
    ((0.6 *. 2.) +. (0.4 *. 0.5))
    (Steady.variance_rate m)

let test_steady_transient_mean_approaches_line () =
  (* d/dt E B(t) -> rho: compare increments at large t. *)
  let rho = Steady.reward_rate model2 in
  let m1 = Randomization.mean model2 ~t:50. in
  let m2 = Randomization.mean model2 ~t:51. in
  check_close ~tol:1e-8 "slope" rho (m2 -. m1)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mrm_core"
    [
      ( "model",
        [
          Alcotest.test_case "validation" `Quick test_model_validation;
          Alcotest.test_case "accessors" `Quick test_model_accessors;
          Alcotest.test_case "first-order constructor" `Quick
            test_model_first_order_constructor;
          Alcotest.test_case "with_variances" `Quick test_model_with_variances;
          Alcotest.test_case "defensive copies" `Quick
            test_model_defensive_copies;
        ] );
      ( "randomization",
        [
          Alcotest.test_case "single state closed form" `Quick
            test_rand_single_state_closed_form;
          Alcotest.test_case "uniform rewards = Brownian" `Quick
            test_rand_uniform_rewards_reduce_to_brownian;
          Alcotest.test_case "t = 0" `Quick test_rand_time_zero;
          Alcotest.test_case "order 0" `Quick test_rand_order_zero;
          Alcotest.test_case "negative rates (shift)" `Quick
            test_rand_negative_rates_shift;
          Alcotest.test_case "negative rates end-to-end" `Quick
            test_rand_negative_rates_end_to_end;
          Alcotest.test_case "centred Table 1, orders 1-23" `Quick
            test_rand_centred_table1_high_order;
          Alcotest.test_case "all-zero rewards" `Quick
            test_rand_all_zero_rewards;
          Alcotest.test_case "constant negative drift" `Quick
            test_rand_constant_negative_drift;
          Alcotest.test_case "error bound honored" `Quick
            test_rand_error_bound_honored;
          Alcotest.test_case "eps controls iterations" `Quick
            test_rand_eps_controls_iterations;
          Alcotest.test_case "substochastic scaling" `Quick
            test_rand_diagnostics_substochastic;
          Alcotest.test_case "mean = transient rate integral" `Quick
            test_rand_mean_vs_transient_integral;
          Alcotest.test_case "mean independent of S (Fig 3)" `Quick
            test_rand_mean_independent_of_variance;
          Alcotest.test_case "variance grows with S (Fig 4)" `Quick
            test_rand_variance_increases_with_s;
          Alcotest.test_case "variance decomposition" `Quick
            test_rand_variance_decomposition;
          Alcotest.test_case "moment series" `Quick test_rand_moment_series;
          Alcotest.test_case "central moments" `Quick test_rand_central_moment;
          Alcotest.test_case "invalid arguments" `Quick
            test_rand_invalid_arguments;
          Alcotest.test_case "degenerate truncation point" `Quick
            test_rand_truncation_point_degenerate;
          Alcotest.test_case "high orders monotone in t" `Quick
            test_rand_higher_order_moments_positive;
          Alcotest.test_case "golden hex floats" `Quick test_rand_golden_hex;
          Alcotest.test_case "sweep golden hex floats" `Quick
            test_rand_sweep_golden_hex;
        ] );
      ( "first_order",
        [
          Alcotest.test_case "two-state closed-form mean" `Quick
            test_first_order_two_state_mean_closed_form;
        ] );
      ( "moments_ode",
        [
          Alcotest.test_case "matches randomization" `Quick
            test_ode_matches_randomization;
          Alcotest.test_case "t = 0" `Quick test_ode_time_zero;
          Alcotest.test_case "default steps" `Quick
            test_ode_default_steps_scale_with_q;
          Alcotest.test_case "moment wrapper" `Quick
            test_ode_moment_convenience;
        ] );
      ( "transform_moments",
        [
          Alcotest.test_case "Stehfest coefficient identities" `Quick
            test_stehfest_coefficients_properties;
          Alcotest.test_case "inverts 1/s^2" `Quick
            test_stehfest_inverts_polynomial_transform;
          Alcotest.test_case "invalid stages" `Quick test_stehfest_invalid;
          Alcotest.test_case "matches randomization" `Quick
            test_transform_matches_randomization;
          Alcotest.test_case "invalid time" `Quick test_transform_invalid;
        ] );
      ( "simulate",
        [
          Alcotest.test_case "CIs cover analytic moments" `Slow
            test_simulate_moments_cover_analytic;
          Alcotest.test_case "seed determinism" `Quick
            test_simulate_deterministic_with_seed;
          Alcotest.test_case "deterministic single state" `Quick
            test_simulate_first_order_single_state;
          Alcotest.test_case "joint path structure" `Quick
            test_simulate_joint_path_structure;
          Alcotest.test_case "absorbing state" `Quick
            test_simulate_absorbing_state;
          Alcotest.test_case "empirical cdf extremes" `Quick
            test_simulate_empirical_cdf;
        ] );
      ( "pde",
        [
          Alcotest.test_case "mass conserved" `Quick test_pde_mass_conserved;
          Alcotest.test_case "moments match randomization" `Slow
            test_pde_moments_match_randomization;
          Alcotest.test_case "cdf monotone" `Quick test_pde_cdf_monotone;
          Alcotest.test_case "single state = normal" `Slow
            test_pde_matches_brownian_single_state;
          Alcotest.test_case "invalid time" `Quick test_pde_invalid;
        ] );
      ( "moment_bounds",
        [
          Alcotest.test_case "bracket exponential" `Quick
            test_bounds_bracket_exponential;
          Alcotest.test_case "bracket uniform" `Quick
            test_bounds_bracket_uniform;
          Alcotest.test_case "two-point exact" `Quick
            test_bounds_two_point_distribution;
          Alcotest.test_case "tighten with more moments" `Quick
            test_bounds_tighten_with_more_moments;
          Alcotest.test_case "Gauss rule exactness" `Quick
            test_bounds_gauss_quadrature_exactness;
          Alcotest.test_case "normal distribution" `Quick
            test_bounds_normal_distribution;
          Alcotest.test_case "invalid inputs" `Quick
            test_bounds_invalid_inputs;
          Alcotest.test_case "grid evaluation" `Quick test_bounds_grid;
        ] );
      ( "steady",
        [
          Alcotest.test_case "reward rate" `Quick test_steady_reward_rate;
          Alcotest.test_case "mean line" `Quick test_steady_mean_line;
          Alcotest.test_case "variance rate positive" `Quick
            test_steady_variance_rate_positive;
          Alcotest.test_case "variance rate = long-run Var/t" `Quick
            test_steady_variance_rate_matches_long_run;
          Alcotest.test_case "pure Brownian variance rate" `Quick
            test_steady_variance_rate_brownian_only;
          Alcotest.test_case "transient mean slope -> rho" `Quick
            test_steady_transient_mean_approaches_line;
        ] );
    ]

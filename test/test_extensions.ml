(* Tests for the extension modules: impulse rewards, the Gil-Pelaez
   transform-domain distribution, the dense matrix exponential and CTMC
   absorption analysis. *)

module Model = Mrm_core.Model
module Randomization = Mrm_core.Randomization
module Impulse = Mrm_core.Impulse
module Transform_distribution = Mrm_core.Transform_distribution
module Pde = Mrm_core.Pde
module Generator = Mrm_ctmc.Generator
module Absorption = Mrm_ctmc.Absorption
module Dense = Mrm_linalg.Dense
module Expm = Mrm_linalg.Expm
module Vec = Mrm_linalg.Vec
module Rng = Mrm_util.Rng
module Stats = Mrm_util.Stats
module Special = Mrm_util.Special

let check_close ?(tol = 1e-12) name expected actual =
  let scale = 1. +. Float.max (abs_float expected) (abs_float actual) in
  if abs_float (expected -. actual) > tol *. scale then
    Alcotest.failf "%s: expected %.17g, got %.17g" name expected actual

(* ------------------------------------------------------------------ *)
(* Impulse rewards                                                      *)

let symmetric_two_state lam =
  Generator.of_triplets ~states:2 [ (0, 1, lam); (1, 0, lam) ]

let test_impulse_poisson_oracle () =
  (* Two states with equal rates: jumps form a Poisson(lam t) process.
     Pure impulse rho on every transition: B(t) = rho N(t), so the raw
     moments are rho^n times the Poisson (Touchard) moments. *)
  let lam = 2.0 and rho = 0.7 and t = 1.3 in
  let base =
    Model.make ~generator:(symmetric_two_state lam) ~rates:[| 0.; 0. |]
      ~variances:[| 0.; 0. |] ~initial:[| 1.; 0. |]
  in
  let model = Impulse.make base [ (0, 1, rho); (1, 0, rho) ] in
  let r = Impulse.moments model ~t ~order:3 in
  let lt = lam *. t in
  let poisson_moments =
    [| 1.; lt; lt +. (lt ** 2.); lt +. (3. *. (lt ** 2.)) +. (lt ** 3.) |]
  in
  for n = 0 to 3 do
    check_close ~tol:1e-10
      (Printf.sprintf "Poisson moment %d" n)
      ((rho ** float_of_int n) *. poisson_moments.(n))
      r.Randomization.moments.(n).(0)
  done

let mixed_impulse_model () =
  let generator =
    Generator.of_triplets ~states:3
      [ (0, 1, 1.0); (1, 2, 2.0); (2, 0, 1.5); (1, 0, 0.5) ]
  in
  let base =
    Model.make ~generator
      ~rates:[| 2.0; -0.5; 1.0 |]
      ~variances:[| 0.3; 1.0; 0.1 |]
      ~initial:[| 1.; 0.; 0. |]
  in
  Impulse.make base [ (0, 1, 0.4); (1, 2, 1.2); (2, 0, 0.9) ]

(* A birth-death chain (tridiagonal after uniformization) with mixed-sign
   rates, a sigma^2 = 0 state and impulses in both band directions; d
   comes from the rates here, not from the impulses. *)
let birth_death_impulse_model () =
  let generator =
    Generator.birth_death ~states:7
      ~birth:(fun i -> 2.0 +. (0.5 *. float_of_int i))
      ~death:(fun i -> 1.0 +. (0.8 *. float_of_int i))
  in
  let base =
    Model.make ~generator
      ~rates:[| 6.0; 1.5; -0.5; 2.0; -2.5; 0.0; 1.0 |]
      ~variances:[| 0.4; 0.0; 1.2; 0.3; 0.8; 0.5; 2.0 |]
      ~initial:[| 0.5; 0.5; 0.; 0.; 0.; 0.; 0. |]
  in
  Impulse.make base
    [ (0, 1, 0.4); (2, 3, 0.5); (4, 5, 0.3); (3, 2, 0.2); (5, 4, 0.45);
      (6, 5, 0.25) ]

(* Golden values: [Impulse.moments] must reproduce the recorded hex
   floats bit for bit (q, d, G, the error bound and every V^(n)_i), so a
   restructuring of the solver cannot drift the numbers silently. *)
let test_impulse_golden_hex () =
  let ic = open_in "fixtures/impulse_golden.txt" in
  let lines =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let rec read acc =
          match input_line ic with
          | line ->
              read (if line = "" || line.[0] = '#' then acc else line :: acc)
          | exception End_of_file -> List.rev acc
        in
        read [])
  in
  let bits name expected actual =
    if Int64.bits_of_float expected <> Int64.bits_of_float actual then
      Alcotest.failf "%s: expected %h, got %h" name expected actual
  in
  let rec cases = function
    | [] -> ()
    | header :: rest ->
        Scanf.sscanf header "case %s t=%h order=%d q=%h d=%h G=%d bound=%h"
          (fun name t order q d g bound ->
            let model =
              match name with
              | "mixed" -> mixed_impulse_model ()
              | "birth-death" -> birth_death_impulse_model ()
              | other -> Alcotest.failf "unknown case %s" other
            in
            let r = Impulse.moments model ~t ~order in
            let dg = r.Randomization.diagnostics in
            bits (name ^ ": q") q dg.q;
            bits (name ^ ": d") d dg.d;
            Alcotest.(check int) (name ^ ": G") g dg.iterations;
            bits (name ^ ": bound") bound dg.log_error_bound;
            List.iteri
              (fun n row ->
                List.iteri
                  (fun i hex ->
                    bits
                      (Printf.sprintf "%s: V^(%d)_%d" name n i)
                      (float_of_string hex) r.moments.(n).(i))
                  (String.split_on_char ' ' row))
              (List.filteri (fun n _ -> n <= order) rest);
            cases (List.filteri (fun n _ -> n > order) rest))
  in
  cases lines

let test_impulse_matches_ode () =
  let model = mixed_impulse_model () in
  let t = 0.9 in
  let rand = Impulse.moments model ~t ~order:3 in
  let ode =
    Impulse.moments_ode ~method_:Mrm_ode.Ode.Rk4 ~steps:3000 model ~t ~order:3
  in
  for n = 0 to 3 do
    for i = 0 to 2 do
      check_close ~tol:1e-7
        (Printf.sprintf "n=%d i=%d" n i)
        ode.(n).(i)
        rand.Randomization.moments.(n).(i)
    done
  done

let test_impulse_matches_simulation () =
  let model = mixed_impulse_model () in
  let t = 0.9 in
  let rand = Impulse.moments model ~t ~order:2 in
  let rng = Rng.create ~seed:55L () in
  let xs = Impulse.sample model rng ~t ~replicas:100_000 in
  let sample_mean = Stats.mean xs in
  let se = sqrt (Stats.variance xs /. 100_000.) in
  let truth = rand.Randomization.moments.(1).(0) in
  if abs_float (sample_mean -. truth) > 5. *. se then
    Alcotest.failf "simulated mean %g vs %g (se %g)" sample_mean truth se

let test_impulse_mean_linearity () =
  (* E B(t) = rate part + sum_ij rho_ij * E[number of i->j transitions];
     with zero impulses the solver must agree with the pure-rate one. *)
  let model = mixed_impulse_model () in
  let base = (model : Impulse.t).Impulse.base in
  let t = 1.1 in
  let with_impulses = Impulse.mean model ~t in
  let rate_only = Randomization.mean base ~t in
  Alcotest.(check bool) "impulses add reward" true
    (with_impulses > rate_only);
  (* Zero-impulse wrapper degenerates exactly. *)
  let trivial = Impulse.make base [] in
  check_close ~tol:1e-12 "no impulses = base" rate_only
    (Impulse.mean trivial ~t)

let test_impulse_jump_count_via_unit_impulses () =
  (* Unit impulses on every transition and zero rates count jumps: the
     mean must equal int_0^t sum_i p_i(u) |q_ii| du. *)
  let generator =
    Generator.of_triplets ~states:3
      [ (0, 1, 1.0); (1, 2, 2.0); (2, 0, 1.5); (1, 0, 0.5) ]
  in
  let n = 3 in
  let base =
    Model.make ~generator ~rates:(Array.make n 0.)
      ~variances:(Array.make n 0.)
      ~initial:[| 1.; 0.; 0. |]
  in
  let all_transitions = [ (0, 1, 1.); (1, 2, 1.); (2, 0, 1.); (1, 0, 1.) ] in
  let model = Impulse.make base all_transitions in
  let t = 1.4 in
  let mean_jumps = Impulse.mean model ~t in
  (* Oracle: expected jumps = integral of total exit rate. *)
  let exit_model =
    Model.make ~generator ~rates:(Generator.exit_rates generator)
      ~variances:(Array.make n 0.)
      ~initial:[| 1.; 0.; 0. |]
  in
  let expected =
    Oracles.expected_reward_integral exit_model ~t ~steps:400
  in
  check_close ~tol:1e-7 "jump count" expected mean_jumps

let test_impulse_validation () =
  let base =
    Model.make ~generator:(symmetric_two_state 1.) ~rates:[| 0.; 0. |]
      ~variances:[| 0.; 0. |] ~initial:[| 1.; 0. |]
  in
  (match Impulse.make base [ (0, 0, 1.) ] with
  | _ -> Alcotest.fail "diagonal impulse"
  | exception Invalid_argument _ -> ());
  (match Impulse.make base [ (0, 1, -1.) ] with
  | _ -> Alcotest.fail "negative impulse"
  | exception Invalid_argument _ -> ());
  (match Impulse.make base [ (0, 1, 1.); (0, 1, 2.) ] with
  | _ -> Alcotest.fail "duplicate impulse"
  | exception Invalid_argument _ -> ());
  (* Impulse on a non-transition. *)
  let chain = Generator.of_triplets ~states:3 [ (0, 1, 1.); (1, 2, 1.); (2, 0, 1.) ] in
  let base3 =
    Model.make ~generator:chain ~rates:[| 0.; 0.; 0. |]
      ~variances:[| 0.; 0.; 0. |] ~initial:[| 1.; 0.; 0. |]
  in
  match Impulse.make base3 [ (0, 2, 1.) ] with
  | _ -> Alcotest.fail "impulse off support"
  | exception Invalid_argument _ -> ()

let test_impulse_error_bound_conservative () =
  (* Loose-eps impulse run stays within its (generalized, conservative)
     bound of a tight-eps run. *)
  let model = mixed_impulse_model () in
  let t = 0.8 and order = 2 in
  let tight = Impulse.moments ~eps:1e-13 model ~t ~order in
  let loose = Impulse.moments ~eps:1e-5 model ~t ~order in
  let bound = exp loose.Randomization.diagnostics.log_error_bound in
  Alcotest.(check bool) "bound below eps" true (bound <= 1e-5 +. 1e-15);
  for i = 0 to 2 do
    let diff =
      abs_float
        (tight.Randomization.moments.(order).(i)
        -. loose.Randomization.moments.(order).(i))
    in
    if diff > (10. *. bound) +. 1e-12 then
      Alcotest.failf "state %d: error %g > bound %g" i diff bound
  done

let test_impulse_variance () =
  let model = mixed_impulse_model () in
  Alcotest.(check bool) "variance positive" true
    (Impulse.variance model ~t:1. > 0.)

let check_same_result name (a : Randomization.result)
    (b : Randomization.result) =
  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let da = a.diagnostics and db = b.diagnostics in
  if
    not
      (same da.q db.q && same da.d db.d
      && Int.equal da.iterations db.iterations
      && same da.log_error_bound db.log_error_bound)
  then Alcotest.failf "%s: diagnostics differ" name;
  Array.iteri
    (fun n row ->
      Array.iteri
        (fun i v ->
          let w = b.moments.(n).(i) in
          if not (same v w) then
            Alcotest.failf "%s: V^(%d)_%d %h <> %h" name n i v w)
        row)
    a.moments

(* The impulse terms run in the shared row-partitioned sweep: a 2-domain
   pool must reproduce the sequential moments bit for bit, on the
   tridiagonal band kernel and on CSR. *)
let test_impulse_pool_bitwise () =
  Mrm_engine.Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun (name, model) ->
          List.iter
            (fun order ->
              let t = 0.9 in
              check_same_result
                (Printf.sprintf "%s order %d" name order)
                (Impulse.moments model ~t ~order)
                (Impulse.moments ~pool model ~t ~order))
            [ 3; 12 ])
        [ ("csr", mixed_impulse_model ());
          ("tridiagonal", birth_death_impulse_model ()) ])

(* Without impulses Impulse.moments is the plain solve, bit for bit and
   with the same diagnostics, the constant-drift closed form included
   (mrm2 moments runs every model through it). *)
let test_impulse_none_is_plain () =
  let constant =
    Model.make ~generator:(symmetric_two_state 2.) ~rates:[| 1.5; 1.5 |]
      ~variances:[| 0.; 0. |] ~initial:[| 1.; 0. |]
  in
  List.iter
    (fun (name, model) ->
      check_same_result name
        (Randomization.moments model ~t:0.9 ~order:5)
        (Impulse.moments (Impulse.make model []) ~t:0.9 ~order:5))
    [ ("birth-death", (birth_death_impulse_model ()).Impulse.base);
      ("csr", (mixed_impulse_model ()).Impulse.base);
      ("constant drift", constant) ]

let test_impulse_non_finite_time () =
  let model = mixed_impulse_model () in
  List.iter
    (fun t ->
      match Impulse.moments model ~t ~order:2 with
      | _ -> Alcotest.failf "t = %g accepted" t
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity ]

let impulse_file = "fixtures/impulse_onoff.mrm"

(* Long-run rate of impulse_onoff.mrm by hand: birth-death balance gives
   pi = (64, 144, 108, 27)/343, so pi.r = 588/343, and the impulses add
   pi_0 * 9 * 0.5 + pi_2 * 8 * 1.5 = 1584/343. *)
let impulse_onoff_rate = 2172. /. 343.

let test_impulse_reward_rate () =
  let { Mrm_core.Model_io.model; impulses } =
    Mrm_core.Model_io.load impulse_file
  in
  let rate = Impulse.reward_rate (Impulse.make model impulses) in
  check_close "closed form" impulse_onoff_rate rate;
  (* Started in the stationary distribution, E B(t) = rate * t. *)
  let stationary =
    Model.make ~generator:model.Model.generator ~rates:model.Model.rates
      ~variances:model.Model.variances
      ~initial:(Mrm_core.Steady.stationary_distribution model)
  in
  check_close ~tol:1e-9 "stationary mean slope" (rate *. 1.3)
    (Impulse.mean ~eps:1e-13 (Impulse.make stationary impulses) ~t:1.3);
  Alcotest.(check int64) "no impulses = Steady, bitwise"
    (Int64.bits_of_float (Mrm_core.Steady.reward_rate model))
    (Int64.bits_of_float (Impulse.reward_rate (Impulse.make model [])))

(* mrm2 on a model file with impulse rewards: [moments] (randomization)
   solves it with the library's values at any --jobs, [info] reports the
   long-run rate with the impulses, the commands whose solvers carry no
   impulses refuse it with exit 2, and [mtta] and [lint] accept it.
   Solver runs keep stdout only: under MRM2_TRACE=stderr they also write
   trace spans to stderr. *)
let mrm2 = Filename.concat (Filename.concat ".." "bin") "mrm2.exe"

let run_mrm2 ?(stderr = "2>&1") args =
  let out = Filename.temp_file "mrm2_impulse" ".out" in
  let status =
    Sys.command (Printf.sprintf "%s %s > %s %s" mrm2 args out stderr)
  in
  let ic = open_in out in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove out;
  (status, text)

let test_impulse_cli_moments () =
  let args =
    Printf.sprintf "moments --file %s --time 0.5 --order 4" impulse_file
  in
  let status, text = run_mrm2 ~stderr:"2>/dev/null" args in
  Alcotest.(check int) "exit" 0 status;
  let { Mrm_core.Model_io.model; impulses } =
    Mrm_core.Model_io.load impulse_file
  in
  let r = Impulse.moments (Impulse.make model impulses) ~t:0.5 ~order:4 in
  let expected =
    Array.to_list
      (Array.mapi
         (fun n v ->
           Printf.sprintf "E[B^%d] = %.12g" n
             (Vec.dot model.Model.initial v))
         r.Randomization.moments)
  in
  let printed =
    List.filter
      (fun line -> String.length line > 0 && line.[0] <> '#')
      (String.split_on_char '\n' text)
  in
  Alcotest.(check (list string)) "library values" expected printed;
  let status2, text2 = run_mrm2 ~stderr:"2>/dev/null" (args ^ " --jobs 2") in
  Alcotest.(check int) "exit --jobs 2" 0 status2;
  Alcotest.(check string) "--jobs 2 = --jobs 1" text text2

let test_impulse_cli_refusals () =
  List.iter
    (fun cmd ->
      let status, text =
        run_mrm2 (Printf.sprintf "%s --file %s" cmd impulse_file)
      in
      Alcotest.(check int) (cmd ^ " exit") 2 status;
      Alcotest.(check string) (cmd ^ " message")
        (Printf.sprintf
           "%s declares impulse rewards, unsupported in mrm2 %s (use mrm2 \
            moments)\n"
           impulse_file cmd)
        text)
    [ "bounds"; "simulate"; "path"; "distribution"; "stationary";
      "moments --method ode"; "moments --method gaver" ];
  let status, text =
    run_mrm2 ~stderr:"2>/dev/null" ("info --file " ^ impulse_file)
  in
  Alcotest.(check int) "info exit" 0 status;
  Alcotest.(check bool) "info rate includes impulses" true
    (List.mem
       (Printf.sprintf "steady-state reward rate = %.8g" impulse_onoff_rate)
       (String.split_on_char '\n' text));
  List.iter
    (fun args ->
      let status, _ = run_mrm2 args in
      Alcotest.(check int) (args ^ " exit") 0 status)
    [ "mtta --targets 3 --file " ^ impulse_file; "lint " ^ impulse_file ]

(* A model file that does not parse or build (a negative, infinite or
   NaN rate among them) exits 2 from every --file command, with its path
   and the Model_io message on stderr. *)
let test_cli_malformed_files () =
  List.iter
    (fun name ->
      let path = Filename.concat "fixtures" name in
      let message =
        match Mrm_core.Model_io.load_result path with
        | Ok _ -> Alcotest.failf "%s parsed" path
        | Error e ->
            Printf.sprintf "%s: %s" path (Mrm_core.Model_io.error_message e)
      in
      List.iter
        (fun cmd ->
          let status, text =
            run_mrm2 (Printf.sprintf "%s --file %s" cmd path)
          in
          Alcotest.(check int) (cmd ^ " " ^ name ^ " exit") 2 status;
          Alcotest.(check bool)
            (cmd ^ " " ^ name ^ " message")
            true
            (List.mem message (String.split_on_char '\n' text)))
        [ "moments"; "bounds"; "simulate"; "info"; "mtta --targets 1" ])
    [ "broken_syntax.mrm"; "broken_rate.mrm"; "broken_rate_inf.mrm";
      "broken_rate_nan.mrm"; "broken_variance.mrm"; "broken_initial.mrm" ]

(* A built-in out of its domain is refused like a malformed file: the
   constructor's message on stderr and exit 2 from the CLI, and an error
   line for that job with exit 1 from mrm2 batch. *)
let test_cli_builtin_out_of_domain () =
  let check_run args ~exit ~message =
    let status, text = run_mrm2 args in
    Alcotest.(check int) (args ^ " exit") exit status;
    if not (List.mem message (String.split_on_char '\n' text)) then
      Alcotest.failf "%s: no %S line in:\n%s" args message text
  in
  List.iter
    (fun (args, message) -> check_run args ~exit:2 ~message:("mrm2: " ^ message))
    [
      ("moments --size 0", "Onoff: sources must be positive");
      ("moments --sigma2 nan", "Model.make: variance nan at state 0");
      ("info --model multi --size=0", "Multiprocessor: processors > 0");
    ];
  List.iter
    (fun (spec, message) ->
      let path = Filename.temp_file "mrm2_batch" ".jsonl" in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (spec ^ "\n"));
      check_run ("batch " ^ path) ~exit:1
        ~message:("mrm2 batch: line 1 (job-1): " ^ message);
      Sys.remove path)
    [
      ({|{"model":"onoff","size":0,"t":1}|}, "Onoff: sources must be positive");
      ( {|{"model":"onoff","sigma2":1e308,"t":1}|},
        "Model.make: variance inf at state 2" );
    ]

(* Model_io validates impulse lines once: each variant edits line 16 of
   the impulse fixture, lint reports the bad line (exit 1) and the --file
   commands refuse it (exit 2). The last variant repeats the pair of
   line 17. *)
let test_impulse_lines_validated () =
  let valid = In_channel.with_open_text impulse_file In_channel.input_all in
  List.iter
    (fun (bad, bad_line) ->
      let text =
        String.concat "\n"
          (List.map
             (fun l -> if String.equal l "impulse 0 1 0.5" then bad else l)
             (String.split_on_char '\n' valid))
      in
      if String.equal text valid then Alcotest.fail "impulse line not found";
      (match Mrm_core.Model_io.parse_raw text with
      | Ok _ -> Alcotest.failf "%s accepted" bad
      | Error e ->
          Alcotest.(check (option string))
            (bad ^ " field") (Some "impulse") e.Mrm_core.Model_io.field;
          Alcotest.(check (option int))
            (bad ^ " line") (Some bad_line) e.line);
      let path = Filename.temp_file "mrm2_impulse" ".mrm" in
      Out_channel.with_open_text path (fun oc -> output_string oc text);
      List.iter
        (fun (cmd, expected) ->
          let status, _ = run_mrm2 (Printf.sprintf "%s %s" cmd path) in
          Alcotest.(check int) (bad ^ ": " ^ cmd) expected status)
        [ ("lint", 1); ("moments --file", 2); ("info --file", 2) ];
      Sys.remove path)
    [
      ("impulse 0 1 -0.5", 16);
      ("impulse 0 1 nan", 16);
      ("impulse 0 2 1.0", 16);
      ("impulse 0 0 0.5", 16);
      ("impulse 2 1 0.5", 17);
    ]

(* ------------------------------------------------------------------ *)
(* Transform-domain distribution (Gil-Pelaez)                           *)

let test_gilpelaez_single_state_normal () =
  let g = Generator.of_triplets ~states:1 [] in
  let m =
    Model.make ~generator:g ~rates:[| 1.0 |] ~variances:[| 0.5 |]
      ~initial:[| 1. |]
  in
  let t = 1.0 in
  List.iter
    (fun x ->
      check_close ~tol:1e-4
        (Printf.sprintf "normal cdf at %g" x)
        (Special.normal_cdf ~mu:1.0 ~sigma:(sqrt 0.5) x)
        (Transform_distribution.cdf m ~t x))
    [ 0.; 0.5; 1.; 2. ]

let test_gilpelaez_characteristic_function_properties () =
  let g =
    Generator.of_triplets ~states:2 [ (0, 1, 2.); (1, 0, 3.) ]
  in
  let m =
    Model.make ~generator:g ~rates:[| 2.; -1. |] ~variances:[| 0.5; 1.5 |]
      ~initial:[| 0.7; 0.3 |]
  in
  let t = 0.8 in
  (* phi(0) = 1. *)
  let phi0 = Transform_distribution.characteristic_function m ~t ~omega:0. in
  check_close "phi(0) re" 1. phi0.Complex.re;
  check_close "phi(0) im" 0. phi0.Complex.im;
  (* |phi| <= 1 everywhere. *)
  List.iter
    (fun omega ->
      let phi = Transform_distribution.characteristic_function m ~t ~omega in
      Alcotest.(check bool)
        (Printf.sprintf "|phi(%g)| <= 1" omega)
        true
        (Complex.norm phi <= 1. +. 1e-9))
    [ 0.3; 1.; 3.; 10. ];
  (* Derivative at 0 gives the mean: phi'(0) = i m1. *)
  let h = 1e-4 in
  let phi_plus = Transform_distribution.characteristic_function m ~t ~omega:h in
  let phi_minus =
    Transform_distribution.characteristic_function m ~t ~omega:(-.h)
  in
  let derivative_im = (phi_plus.Complex.im -. phi_minus.Complex.im) /. (2. *. h) in
  check_close ~tol:1e-6 "phi'(0) = i mean"
    (Randomization.mean m ~t)
    derivative_im

let test_gilpelaez_matches_pde_and_simulation () =
  let g =
    Generator.of_triplets ~states:3
      [ (0, 1, 1.0); (1, 2, 2.0); (2, 0, 1.5); (1, 0, 0.5) ]
  in
  let m =
    Model.make ~generator:g ~rates:[| 4.0; 2.0; 0.5 |]
      ~variances:[| 0.3; 1.0; 0.1 |]
      ~initial:[| 1.; 0.; 0. |]
  in
  let t = 1.5 in
  let points = [| 2.; 4.; 4.6; 6.; 7. |] in
  let values, grid = Transform_distribution.cdf_grid m ~t points in
  Alcotest.(check bool) "grid used enough frequencies" true
    (grid.Transform_distribution.count > 20);
  let rng = Rng.create ~seed:12L () in
  let xs = Mrm_core.Simulate.sample m rng ~t ~replicas:100_000 in
  Array.iteri
    (fun k x ->
      let empirical = Stats.empirical_cdf xs x in
      check_close ~tol:0.01
        (Printf.sprintf "vs simulation at %g" x)
        empirical values.(k))
    points;
  (* Monotone over the evaluation points. *)
  for k = 1 to Array.length values - 1 do
    Alcotest.(check bool) "monotone" true (values.(k) >= values.(k - 1) -. 1e-6)
  done

let test_gilpelaez_invalid () =
  let g = Generator.of_triplets ~states:1 [] in
  let m =
    Model.make ~generator:g ~rates:[| 1. |] ~variances:[| 1. |]
      ~initial:[| 1. |]
  in
  match Transform_distribution.cdf m ~t:0. 0.5 with
  | _ -> Alcotest.fail "t = 0 rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Matrix exponential                                                   *)

let test_expm_zero_and_diagonal () =
  let z = Dense.zeros ~rows:3 ~cols:3 in
  Alcotest.(check bool) "e^0 = I" true
    (Dense.approx_equal ~tol:1e-14 (Dense.identity 3) (Expm.expm z));
  let d = Dense.diagonal [| 1.; -2.; 0.5 |] in
  let e = Expm.expm d in
  check_close ~tol:1e-13 "diag 0" (exp 1.) (Dense.get e 0 0);
  check_close ~tol:1e-13 "diag 1" (exp (-2.)) (Dense.get e 1 1);
  check_close ~tol:1e-13 "diag 2" (exp 0.5) (Dense.get e 2 2);
  check_close "offdiag" 0. (Dense.get e 0 1)

let test_expm_nilpotent () =
  (* N = [[0,1],[0,0]]: e^N = I + N exactly. *)
  let n = Dense.of_arrays [| [| 0.; 1. |]; [| 0.; 0. |] |] in
  let e = Expm.expm n in
  check_close "11" 1. (Dense.get e 0 0);
  check_close "12" 1. (Dense.get e 0 1);
  check_close "21" 0. (Dense.get e 1 0);
  check_close "22" 1. (Dense.get e 1 1)

let test_expm_rotation () =
  (* A = [[0,-a],[a,0]]: e^A = rotation by a. *)
  let a = 0.7 in
  let m = Dense.of_arrays [| [| 0.; -.a |]; [| a; 0. |] |] in
  let e = Expm.expm m in
  check_close ~tol:1e-13 "cos" (cos a) (Dense.get e 0 0);
  check_close ~tol:1e-13 "-sin" (-.sin a) (Dense.get e 0 1)

let test_expm_large_norm_scaling () =
  (* Scaling path: e^(A) for ||A|| >> theta13, checked against
     (e^(A/k))^k consistency via a diagonal case. *)
  let d = Dense.diagonal [| 30.; -40. |] in
  let e = Expm.expm d in
  check_close ~tol:1e-9 "large diag 0" (exp 30.) (Dense.get e 0 0);
  check_close ~tol:1e-9 "large diag 1" (exp (-40.)) (Dense.get e 1 1)

let test_expm_vs_uniformization () =
  (* p(t) = pi e^(Qt) matches the uniformization transient solver. *)
  let g =
    Generator.of_triplets ~states:4
      [ (0, 1, 1.); (1, 2, 2.); (2, 3, 1.5); (3, 0, 0.7); (2, 0, 0.3) ]
  in
  let t = 0.9 in
  let qt =
    Dense.init ~rows:4 ~cols:4 (fun i j ->
        t *. Mrm_linalg.Sparse.get (Generator.matrix g) i j)
  in
  let e = Expm.expm qt in
  let initial = [| 1.; 0.; 0.; 0. |] in
  let via_expm = Dense.vm initial e in
  let via_uniformization =
    Mrm_ctmc.Transient.probabilities g ~initial ~t
  in
  Alcotest.(check bool) "expm = uniformization" true
    (Vec.approx_equal ~tol:1e-10 via_expm via_uniformization)

let test_expm_action () =
  let d = Dense.diagonal [| 1.; 2. |] in
  let v = Expm.expm_action d [| 1.; 1. |] in
  check_close ~tol:1e-13 "action 0" (exp 1.) v.(0);
  check_close ~tol:1e-13 "action 1" (exp 2.) v.(1)

let test_expm_invalid () =
  match Expm.expm (Dense.zeros ~rows:2 ~cols:3) with
  | _ -> Alcotest.fail "non-square"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Absorption                                                           *)

let test_absorption_two_state () =
  (* 0 -> 1 at rate lam, 1 absorbing: expected time 1/lam. *)
  let lam = 2.5 in
  let g = Generator.of_triplets ~states:2 [ (0, 1, lam) ] in
  let a = Absorption.analyze g ~targets:[ 1 ] in
  check_close "p from 0" 1. a.Absorption.hit_probability.(0);
  check_close ~tol:1e-12 "time from 0" (1. /. lam) a.Absorption.expected_time.(0);
  check_close "time on target" 0. a.Absorption.expected_time.(1)

let test_absorption_birth_death_mtta () =
  (* Pure birth chain 0 -> 1 -> 2 with rates b0, b1: MTTA from 0 is
     1/b0 + 1/b1. *)
  let b0 = 1.5 and b1 = 0.5 in
  let g = Generator.of_triplets ~states:3 [ (0, 1, b0); (1, 2, b1) ] in
  let mtta =
    Absorption.mean_time_to_absorption g ~initial:[| 1.; 0.; 0. |]
      ~targets:[ 2 ]
  in
  check_close ~tol:1e-12 "MTTA" ((1. /. b0) +. (1. /. b1)) mtta

let test_absorption_competing_risks () =
  (* From 0: to 1 at rate a, to 2 at rate b; both absorbing. Hitting
     probability of {1} is a/(a+b). *)
  let a = 2. and b = 3. in
  let g = Generator.of_triplets ~states:3 [ (0, 1, a); (0, 2, b) ] in
  let result = Absorption.analyze g ~targets:[ 1 ] in
  check_close ~tol:1e-12 "split probability" (a /. (a +. b))
    result.Absorption.hit_probability.(0);
  (* Absorption in 1 is not certain, so the conditional expected time is
     reported as infinity by convention. *)
  Alcotest.(check bool) "time infinite" true
    (result.Absorption.expected_time.(0) = infinity)

let test_absorption_cyclic_chain () =
  (* Irreducible chain, any state reaches any target: finite times. *)
  let g =
    Generator.of_triplets ~states:3
      [ (0, 1, 1.); (1, 2, 1.); (2, 0, 1.); (1, 0, 0.5) ]
  in
  let result = Absorption.analyze g ~targets:[ 2 ] in
  Array.iteri
    (fun i p ->
      check_close (Printf.sprintf "prob %d" i) 1. p;
      Alcotest.(check bool) "finite time" true
        (Float.is_finite result.Absorption.expected_time.(i)))
    result.Absorption.hit_probability

let test_absorption_unreachable_component () =
  (* Two disconnected components: from the far component the target has
     probability 0 and infinite hitting time; the near component solves
     normally. *)
  let g =
    Generator.of_triplets ~states:4
      [ (0, 1, 1.); (1, 0, 1.); (2, 3, 1.); (3, 2, 1.) ]
  in
  let result = Absorption.analyze g ~targets:[ 0 ] in
  check_close "reachable prob" 1. result.Absorption.hit_probability.(1);
  check_close ~tol:1e-12 "reachable time" 1.
    result.Absorption.expected_time.(1);
  check_close "unreachable prob" 0. result.Absorption.hit_probability.(2);
  Alcotest.(check bool) "unreachable time" true
    (result.Absorption.expected_time.(3) = infinity)

let test_absorption_validation () =
  let g = Generator.of_triplets ~states:2 [ (0, 1, 1.) ] in
  (match Absorption.analyze g ~targets:[] with
  | _ -> Alcotest.fail "empty targets"
  | exception Invalid_argument _ -> ());
  match Absorption.analyze g ~targets:[ 5 ] with
  | _ -> Alcotest.fail "range"
  | exception Invalid_argument _ -> ()

let test_absorption_multiprocessor_mttf () =
  (* Mean time until the multiprocessor first drops below 1 working
     processor, starting from full: finite and positive, decreasing when
     the failure rate grows. *)
  let module Mp = Mrm_models.Multiprocessor in
  let mttf failure =
    let p = { Mp.default with Mp.processors = 3; failure } in
    let model = Mp.model p in
    Absorption.mean_time_to_absorption
      (model : Model.t).Model.generator
      ~initial:(model : Model.t).Model.initial
      ~targets:[ Mp.up_index p 0 ]
  in
  let slow = mttf 0.1 and fast = mttf 0.5 in
  Alcotest.(check bool) "finite" true (Float.is_finite slow && slow > 0.);
  Alcotest.(check bool) "monotone in failure rate" true (fast < slow)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "extensions"
    [
      ( "impulse",
        [
          Alcotest.test_case "Poisson jump oracle" `Quick
            test_impulse_poisson_oracle;
          Alcotest.test_case "matches extended ODE" `Quick
            test_impulse_matches_ode;
          Alcotest.test_case "matches simulation" `Slow
            test_impulse_matches_simulation;
          Alcotest.test_case "mean behaviour" `Quick
            test_impulse_mean_linearity;
          Alcotest.test_case "unit impulses count jumps" `Quick
            test_impulse_jump_count_via_unit_impulses;
          Alcotest.test_case "validation" `Quick test_impulse_validation;
          Alcotest.test_case "error bound (generalized)" `Quick
            test_impulse_error_bound_conservative;
          Alcotest.test_case "variance" `Quick test_impulse_variance;
          Alcotest.test_case "golden hex floats" `Quick
            test_impulse_golden_hex;
          Alcotest.test_case "2-domain pool bitwise" `Quick
            test_impulse_pool_bitwise;
          Alcotest.test_case "no impulses = plain solve" `Quick
            test_impulse_none_is_plain;
          Alcotest.test_case "non-finite t rejected" `Quick
            test_impulse_non_finite_time;
          Alcotest.test_case "long-run rate" `Quick test_impulse_reward_rate;
          Alcotest.test_case "mrm2 moments" `Quick test_impulse_cli_moments;
          Alcotest.test_case "mrm2 refusals" `Quick test_impulse_cli_refusals;
          Alcotest.test_case "impulse lines validated" `Quick
            test_impulse_lines_validated;
        ] );
      ( "model files",
        [
          Alcotest.test_case "malformed file exits 2" `Quick
            test_cli_malformed_files;
          Alcotest.test_case "out-of-domain built-in exits 2" `Quick
            test_cli_builtin_out_of_domain;
        ] );
      ( "transform_distribution",
        [
          Alcotest.test_case "single state = normal" `Quick
            test_gilpelaez_single_state_normal;
          Alcotest.test_case "characteristic function properties" `Quick
            test_gilpelaez_characteristic_function_properties;
          Alcotest.test_case "matches simulation" `Slow
            test_gilpelaez_matches_pde_and_simulation;
          Alcotest.test_case "invalid time" `Quick test_gilpelaez_invalid;
        ] );
      ( "expm",
        [
          Alcotest.test_case "zero and diagonal" `Quick
            test_expm_zero_and_diagonal;
          Alcotest.test_case "nilpotent" `Quick test_expm_nilpotent;
          Alcotest.test_case "rotation" `Quick test_expm_rotation;
          Alcotest.test_case "large norm (scaling path)" `Quick
            test_expm_large_norm_scaling;
          Alcotest.test_case "matches uniformization" `Quick
            test_expm_vs_uniformization;
          Alcotest.test_case "expm_action" `Quick test_expm_action;
          Alcotest.test_case "invalid input" `Quick test_expm_invalid;
        ] );
      ( "absorption",
        [
          Alcotest.test_case "two-state" `Quick test_absorption_two_state;
          Alcotest.test_case "pure-birth MTTA" `Quick
            test_absorption_birth_death_mtta;
          Alcotest.test_case "competing risks" `Quick
            test_absorption_competing_risks;
          Alcotest.test_case "cyclic chain" `Quick
            test_absorption_cyclic_chain;
          Alcotest.test_case "unreachable component" `Quick
            test_absorption_unreachable_component;
          Alcotest.test_case "validation" `Quick test_absorption_validation;
          Alcotest.test_case "multiprocessor MTTF" `Quick
            test_absorption_multiprocessor_mttf;
        ] );
    ]

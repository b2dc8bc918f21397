(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 7) and times the kernels behind them with Bechamel.

   Usage:
     dune exec bench/main.exe              # all experiments + micro-benches
     dune exec bench/main.exe -- fig3 fig4 # just the named experiments
     MRM2_FULL=1 dune exec bench/main.exe -- fig8   # paper-scale Table 2

   Experiments (see DESIGN.md section 3):
     fig1   sample realization of a second-order MRM        (Figure 1)
     table1 small-model parameters and structure            (Table 1, Figure 2)
     fig3   mean of the accumulated reward vs t             (Figure 3)
     fig4   2nd and 3rd moments vs t                        (Figure 4)
     fig5   distribution bounds, sigma^2 = 0                (Figure 5)
     fig6   distribution bounds, sigma^2 = 1                (Figure 6)
     fig7   distribution bounds, sigma^2 = 10               (Figure 7)
     agree  randomization vs ODE vs simulation cross-check  (Section 7 claim)
     fig8   large-model moments and iteration counts        (Table 2, Figure 8)
     cr     MMBM stationary density via cyclic reduction    (DESIGN section 12)
     micro  Bechamel micro-benchmarks of all kernels *)

module Model = Mrm_core.Model
module Randomization = Mrm_core.Randomization
module Moments_ode = Mrm_core.Moments_ode
module Simulate = Mrm_core.Simulate
module Moment_bounds = Mrm_core.Moment_bounds
module Steady = Mrm_core.Steady
module Mmbm = Mrm_mmbm.Mmbm
module Onoff = Mrm_models.Onoff
module Table = Mrm_util.Table
module Vec = Mrm_linalg.Vec

let sigmas = [ 0.; 1.; 10. ]
let small_model ~sigma2 = Onoff.model (Onoff.table1 ~sigma2)

let unconditional (model : Model.t) vectors order =
  Vec.dot model.Model.initial vectors.(order)

let wall_clock f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

(* Reproduced figures are also written as SVG + CSV under figures/. *)
let figures_dir = "figures"

(* Machine-readable perf records, one BENCH_<experiment>.json next to
   the figure outputs: wall-clock, iteration counts, model size and the
   domain count used, so perf regressions diff as JSON instead of
   scraping stdout. *)
let emit_bench ~name fields =
  if not (Sys.file_exists figures_dir) then Unix.mkdir figures_dir 0o755;
  let path = Filename.concat figures_dir ("BENCH_" ^ name ^ ".json") in
  (* Solver observability snapshot (Mrm_obs.Metrics) rides along with
     the timings; the dispatch loop resets the registry per experiment,
     so the counters cover exactly this experiment's solves. *)
  let json =
    Mrm_util.Json.(
      to_string
        (Obj
           (("experiment", Str name)
           :: (fields @ [ ("metrics", Mrm_obs.Metrics.to_json ()) ]))))
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc json;
      output_char oc '\n');
  Printf.printf "[written: %s]\n" path

let num x = Mrm_util.Json.Num x
let num_list xs = Mrm_util.Json.List (List.map num xs)

let emit_figure ~name ~title ~x_label ~y_label series csv_header csv_rows =
  if not (Sys.file_exists figures_dir) then Unix.mkdir figures_dir 0o755;
  let svg =
    Mrm_util.Svg_plot.render ~title ~x_label ~y_label series
  in
  Mrm_util.Svg_plot.write_file
    ~path:(Filename.concat figures_dir (name ^ ".svg"))
    svg;
  Mrm_util.Svg_plot.write_file
    ~path:(Filename.concat figures_dir (name ^ ".csv"))
    (Mrm_util.Svg_plot.csv ~header:csv_header csv_rows);
  Printf.printf "[written: %s/%s.svg, %s/%s.csv]\n\n" figures_dir name
    figures_dir name

(* ------------------------------------------------------------------ *)
(* Figure 1: a sample realization                                       *)

let fig1 () =
  print_endline
    "== Figure 1: sample realization of a second-order MRM ==\n\
     3-state model; state 2 has the largest drift AND variance, so the\n\
     reward can decrease during a sojourn there even though r_2 = 3.\n";
  let generator =
    Mrm_ctmc.Generator.of_triplets ~states:3
      [ (0, 1, 2.0); (1, 0, 1.0); (1, 2, 1.5); (2, 1, 2.0); (2, 0, 0.5) ]
  in
  let model =
    Model.make ~generator ~rates:[| 0.; 1.; 3. |] ~variances:[| 0.2; 0.5; 2.0 |]
      ~initial:[| 1.; 0.; 0. |]
  in
  let rng = Mrm_util.Rng.create ~seed:2004L () in
  let path = Simulate.joint_path model rng ~t_max:2.0 ~grid:40 in
  let rows =
    Array.to_list
      (Array.map
         (fun p ->
           [
             Table.float_cell p.Simulate.time;
             string_of_int p.Simulate.state;
             Table.float_cell p.Simulate.reward;
           ])
         path)
  in
  print_string (Table.render ~header:[ "t"; "Z(t)"; "B(t)" ] rows);
  (* The qualitative claim of the figure: some within-sojourn decrease. *)
  let decreases = ref 0 in
  Array.iteri
    (fun k p ->
      if k > 0 && p.Simulate.reward < path.(k - 1).Simulate.reward then
        incr decreases)
    path;
  Printf.printf "grid steps with decreasing reward: %d of %d\n\n" !decreases
    (Array.length path - 1)

(* ------------------------------------------------------------------ *)
(* Table 1 / Figure 2: the model                                        *)

let table1 () =
  print_endline "== Table 1 / Figure 2: the small example ==";
  print_string
    (Table.render
       ~header:[ "parameter"; "value" ]
       [
         [ "Capacity of the channel C"; "32" ];
         [ "Number of sources N"; "32" ];
         [ "ON period parameter alpha"; "4" ];
         [ "OFF period parameter beta"; "3" ];
         [ "Transmission rate r"; "1" ];
         [ "Variance sigma^2"; "0, 1, 10" ];
       ]);
  List.iter
    (fun sigma2 ->
      let m = small_model ~sigma2 in
      let q =
        Mrm_ctmc.Generator.uniformization_rate (m : Model.t).Model.generator
      in
      Printf.printf
        "sigma^2 = %-4g states = %d  q = %g  r_i = 32 - i, sigma_i^2 = %g i\n"
        sigma2 (Model.dim m) q sigma2)
    sigmas;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figure 3: mean accumulated reward                                    *)

let times_fig34 = Array.init 9 (fun k -> 0.25 *. float_of_int k)

let fig3 () =
  let stationary_rate = Steady.reward_rate (small_model ~sigma2:0.) in
  let data =
    Array.to_list
      (Array.map
         (fun t ->
           let means =
             List.map
               (fun sigma2 -> Randomization.mean (small_model ~sigma2) ~t)
               sigmas
           in
           (t, means @ [ stationary_rate *. t ]))
         times_fig34)
  in
  print_string
    (Table.render_series
       ~title:
         "Figure 3: mean accumulated reward (transient, all sources OFF at \
          t=0; last column = stationary start)"
       ~x_label:"t"
       ~columns:
         [ "s2=0"; "s2=1"; "s2=10"; "stationary" ]
       data);
  print_endline
    "(expected shape: the three transient curves coincide -- the mean is\n\
     independent of the variance -- and exceed the stationary line)";
  let pick k = List.map (fun (t, ys) -> (t, List.nth ys k)) data in
  emit_figure ~name:"fig3" ~title:"Mean of the accumulated reward"
    ~x_label:"t" ~y_label:"E B(t)"
    [
      { Mrm_util.Svg_plot.label = "s2=0"; points = pick 0; style = `Line };
      { label = "s2=1"; points = pick 1; style = `Points };
      { label = "s2=10"; points = pick 2; style = `Points };
      { label = "stationary"; points = pick 3; style = `Dashed };
    ]
    [ "t"; "m1_s0"; "m1_s1"; "m1_s10"; "stationary" ]
    (List.map (fun (t, ys) -> t :: ys) data)

(* ------------------------------------------------------------------ *)
(* Figure 4: second and third moments                                   *)

let fig4 () =
  let data =
    Array.to_list
      (Array.map
         (fun t ->
           let per_sigma =
             List.concat_map
               (fun sigma2 ->
                 let r =
                   Randomization.moments (small_model ~sigma2) ~t ~order:3
                 in
                 let m = small_model ~sigma2 in
                 [ unconditional m r.moments 2; unconditional m r.moments 3 ])
               sigmas
           in
           (t, per_sigma))
         times_fig34)
  in
  print_string
    (Table.render_series
       ~title:"Figure 4: 2nd and 3rd moments of the accumulated reward"
       ~x_label:"t"
       ~columns:
         [
           "m2(s2=0)"; "m3(s2=0)"; "m2(s2=1)"; "m3(s2=1)"; "m2(s2=10)";
           "m3(s2=10)";
         ]
       data);
  print_endline
    "(expected shape: higher sigma^2 gives strictly larger m2 and m3 at\n\
     every t > 0)";
  let pick k = List.map (fun (t, ys) -> (t, List.nth ys k)) data in
  emit_figure ~name:"fig4"
    ~title:"2nd and 3rd moments of the accumulated reward" ~x_label:"t"
    ~y_label:"E B(t)^n"
    [
      { Mrm_util.Svg_plot.label = "m2 s2=0"; points = pick 0; style = `Line };
      { label = "m3 s2=0"; points = pick 1; style = `Dashed };
      { label = "m2 s2=1"; points = pick 2; style = `Line };
      { label = "m3 s2=1"; points = pick 3; style = `Dashed };
      { label = "m2 s2=10"; points = pick 4; style = `Line };
      { label = "m3 s2=10"; points = pick 5; style = `Dashed };
    ]
    [ "t"; "m2_s0"; "m3_s0"; "m2_s1"; "m3_s1"; "m2_s10"; "m3_s10" ]
    (List.map (fun (t, ys) -> t :: ys) data)

(* ------------------------------------------------------------------ *)
(* Figures 5-7: distribution bounds at t = 0.5 from 23 moments          *)

let bounds_figure ~index ~sigma2 () =
  let t = 0.5 and order = 23 in
  let m = small_model ~sigma2 in
  let result = Randomization.moments m ~t ~order in
  let moments =
    Array.init (order + 1) (fun n -> unconditional m result.moments n)
  in
  let bounds = Moment_bounds.prepare moments in
  Printf.printf
    "== Figure %d: bounds for the distribution of B(0.5), sigma^2 = %g ==\n\
     (23 moments computed; %d usable after binary64 conditioning, %d Gauss \
     nodes)\n"
    index sigma2
    (Moment_bounds.moments_used bounds)
    (Moment_bounds.quadrature_size bounds);
  let mean = moments.(1) in
  let std = sqrt (moments.(2) -. (mean *. mean)) in
  let points =
    Array.init 13 (fun k -> mean +. ((float_of_int k -. 6.) /. 2. *. std))
  in
  let evaluated =
    Array.to_list (Array.map (Moment_bounds.cdf_bounds bounds) points)
  in
  let rows =
    List.map
      (fun b ->
        List.map Table.float_cell
          [ b.Moment_bounds.point; b.Moment_bounds.lower;
            b.Moment_bounds.upper ])
      evaluated
  in
  print_string (Table.render ~header:[ "x"; "lower"; "upper" ] rows);
  Printf.printf "mean = %.4f  std = %.4f\n" mean std;
  let curve select =
    List.map (fun b -> (b.Moment_bounds.point, select b)) evaluated
  in
  emit_figure
    ~name:(Printf.sprintf "fig%d" index)
    ~title:
      (Printf.sprintf "Bounds for the distribution of B(0.5), sigma^2 = %g"
         sigma2)
    ~x_label:"x" ~y_label:"F(x)"
    [
      {
        Mrm_util.Svg_plot.label = "lower";
        points = curve (fun b -> b.Moment_bounds.lower);
        style = `Line;
      };
      {
        label = "upper";
        points = curve (fun b -> b.Moment_bounds.upper);
        style = `Line;
      };
    ]
    [ "x"; "lower"; "upper" ]
    (List.map
       (fun b ->
         [ b.Moment_bounds.point; b.Moment_bounds.lower;
           b.Moment_bounds.upper ])
       evaluated)

let fig5 = bounds_figure ~index:5 ~sigma2:0.
let fig6 = bounds_figure ~index:6 ~sigma2:1.
let fig7 = bounds_figure ~index:7 ~sigma2:10.

(* ------------------------------------------------------------------ *)
(* Cross-validation: the Section-7 claim that randomization, the ODE
   solver and simulation agree, with randomization fastest.             *)

let agree () =
  print_endline
    "== Cross-validation (Section 7): randomization vs ODE vs simulation ==";
  let m = small_model ~sigma2:10. in
  let t = 1.0 and order = 3 in
  let rand, rand_time =
    wall_clock (fun () -> Randomization.moments m ~t ~order)
  in
  let ode, ode_time = wall_clock (fun () -> Moments_ode.moments m ~t ~order) in
  let replicas = 100_000 in
  let sim, sim_time =
    wall_clock (fun () ->
        Simulate.estimate_moments m
          (Mrm_util.Rng.create ~seed:42L ())
          ~t ~max_order:order ~replicas)
  in
  let rows =
    List.map
      (fun n ->
        let s = sim.(n - 1) in
        [
          string_of_int n;
          Table.float_cell (unconditional m rand.Randomization.moments n);
          Table.float_cell (unconditional m ode n);
          Printf.sprintf "%s [%s, %s]" (Table.float_cell s.Simulate.value)
            (Table.float_cell s.Simulate.ci_low)
            (Table.float_cell s.Simulate.ci_high);
        ])
      [ 1; 2; 3 ]
  in
  print_string
    (Table.render
       ~header:[ "n"; "randomization"; "ODE (Heun)"; "simulation (95% CI)" ]
       rows);
  Printf.printf
    "wall clock: randomization %.4fs | ODE %.4fs | simulation (%d replicas) \
     %.4fs\n"
    rand_time ode_time replicas sim_time;
  emit_bench ~name:"agree"
    [
      ("states", num (float_of_int (Model.dim m)));
      ("order", num (float_of_int order));
      ("t", num t);
      ("iterations", num (float_of_int rand.Randomization.diagnostics.iterations));
      ("replicas", num (float_of_int replicas));
      ("jobs", num 1.);
      ("randomization_seconds", num rand_time);
      ("ode_seconds", num ode_time);
      ("simulation_seconds", num sim_time);
    ];
  print_endline
    "(expected shape: all three agree; randomization is the fastest)\n"

(* ------------------------------------------------------------------ *)
(* Table 2 / Figure 8: the large model                                  *)

(* The "model name" line of /proc/cpuinfo, for the bench record. *)
let cpu_model () =
  let field line =
    match String.index_opt line ':' with
    | Some k when String.trim (String.sub line 0 k) = "model name" ->
        let rest = String.sub line (k + 1) (String.length line - k - 1) in
        Some (String.trim rest)
    | _ -> None
  in
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | text ->
      Option.value ~default:"unknown"
        (List.find_map field (String.split_on_char '\n' text))
  | exception Sys_error _ -> "unknown"

let fig8 () =
  let full = Sys.getenv_opt "MRM2_FULL" = Some "1" in
  let params =
    if full then Onoff.table2 else Onoff.scaled_table2 ~sources:10_000
  in
  Printf.printf
    "== Table 2 / Figure 8: large model (N = C = %d, sigma^2 = 10%s) ==\n"
    params.Onoff.sources
    (if full then ", paper scale" else "; MRM2_FULL=1 for N = 200,000");
  let model = Onoff.model params in
  let q =
    Mrm_ctmc.Generator.uniformization_rate (model : Model.t).Model.generator
  in
  Printf.printf "states = %d, q = %g (paper: q = 800,000 at full scale)\n"
    (Model.dim model) q;
  let times = [| 0.01; 0.02; 0.03; 0.04; 0.05 |] in
  (* Table 2 the way a user runs it: the five points in one shared
     sweep (one moments_at_times call, max G iterations). *)
  let sweep ?pool () =
    wall_clock (fun () ->
        Randomization.moments_at_times ~eps:1e-9 ?pool model ~times ~order:3)
  in
  let measured, seq_seconds = sweep () in
  let iterations =
    Array.map (fun r -> r.Randomization.diagnostics.iterations) measured
  in
  let g = Array.fold_left max 0 iterations in
  let states = Model.dim model in
  let ns_per_state_iter =
    seq_seconds *. 1e9 /. (float_of_int states *. float_of_int g)
  in
  (* Parallel leg: the same sweep on a domain pool (MRM2_JOBS or every
     core), reported against the sequential one and checked bit for
     bit. On a single-core box the speedup hovers around 1. *)
  let jobs = Mrm_engine.Pool.default_jobs () in
  let parallel =
    if jobs <= 1 then None
    else
      Some (Mrm_engine.Pool.with_pool ~jobs (fun pool -> sweep ~pool ()))
  in
  let rows =
    Array.to_list
      (Array.mapi
         (fun k result ->
           let m n = unconditional model result.Randomization.moments n in
           [
             Table.float_cell times.(k);
             Table.float_cell (m 1);
             Table.float_cell (m 2);
             Table.float_cell (m 3);
             string_of_int iterations.(k);
             Table.float_cell (q *. times.(k));
           ])
         measured)
  in
  print_string
    (Table.render ~header:[ "t"; "m1"; "m2"; "m3"; "G"; "qt" ] rows);
  Printf.printf
    "one shared sweep: %.2fs for G = %d iterations over %d states (%.1f ns \
     per state-iteration)\n"
    seq_seconds g states ns_per_state_iter;
  let series n =
    Array.to_list
      (Array.mapi
         (fun k result ->
           (times.(k), unconditional model result.Randomization.moments n))
         measured)
  in
  emit_figure ~name:"fig8"
    ~title:"Moments of the accumulated reward, large example" ~x_label:"t"
    ~y_label:"E B(t)^n (log-ish scales differ per curve)"
    [
      { Mrm_util.Svg_plot.label = "m1"; points = series 1; style = `Line };
      { label = "m2"; points = series 2; style = `Dashed };
      { label = "m3"; points = series 3; style = `Points };
    ]
    [ "t"; "m1"; "m2"; "m3"; "G" ]
    (Array.to_list
       (Array.mapi
          (fun k result ->
            let m n = unconditional model result.Randomization.moments n in
            [ times.(k); m 1; m 2; m 3; float_of_int iterations.(k) ])
          measured));
  let parallel_fields =
    match parallel with
    | None ->
        (* A fig8 record without a parallel leg is not a perf record of
           the parallel sweep at all — make skipping loud, and fatal
           where a committed BENCH_fig8.json could silently regress to
           a jobs = 1 run (CI, or an explicit request). *)
        prerr_endline
          "=========================================================";
        prerr_endline
          "WARNING: fig8 parallel leg SKIPPED (jobs = 1).";
        prerr_endline
          "The emitted BENCH_fig8.json has no speedup/parity fields.";
        prerr_endline
          "Set MRM2_JOBS >= 2 (on a multi-core box) to measure it.";
        prerr_endline
          "=========================================================";
        if
          Sys.getenv_opt "CI" <> None
          || Sys.getenv_opt "MRM2_REQUIRE_PARALLEL" = Some "1"
        then begin
          prerr_endline
            "fig8: refusing to emit a sequential-only record here \
             (CI/MRM2_REQUIRE_PARALLEL); exiting 2.";
          exit 2
        end;
        []
    | Some (par_measured, par_seconds) ->
        let max_rel_diff = ref 0. and bit_identical = ref true in
        Array.iteri
          (fun k seq_result ->
            let par_result = par_measured.(k) in
            for n = 0 to 3 do
              let a = unconditional model seq_result.Randomization.moments n in
              let b = unconditional model par_result.Randomization.moments n in
              max_rel_diff :=
                Float.max !max_rel_diff
                  (abs_float (a -. b) /. (1. +. abs_float b));
              Array.iteri
                (fun i x ->
                  if
                    Int64.bits_of_float x
                    <> Int64.bits_of_float
                         par_result.Randomization.moments.(n).(i)
                  then bit_identical := false)
                seq_result.Randomization.moments.(n)
            done)
          measured;
        let speedup = seq_seconds /. Float.max par_seconds 1e-9 in
        Printf.printf
          "parallel leg (jobs = %d): %.2fs vs %.2fs sequential (speedup \
           %.2fx); max relative difference %.2e, bit-identical: %b\n"
          jobs par_seconds seq_seconds speedup !max_rel_diff !bit_identical;
        [
          ("parallel_seconds", num par_seconds);
          ("speedup", num speedup);
          ("max_rel_diff", num !max_rel_diff);
          ("bit_identical", Mrm_util.Json.Bool !bit_identical);
        ]
  in
  let structure =
    Mrm_engine.Kernel.structure_kind
      (Mrm_engine.Kernel.detect
         (Mrm_ctmc.Generator.uniformized model.Model.generator ~rate:q))
  in
  emit_bench ~name:"fig8"
    ([
       ("states", num (float_of_int states));
       ("order", num 3.);
       ("eps", num 1e-9);
       ("q", num q);
       ("structure", Mrm_util.Json.Str structure);
       ("sweep", Mrm_util.Json.Str "moments_at_times");
       ("jobs", num (float_of_int jobs));
       ("nproc", num (float_of_int (Mrm_engine.Pool.recommended_jobs ())));
       ("cpu_model", Mrm_util.Json.Str (cpu_model ()));
       ("times", num_list (Array.to_list times));
       ( "iterations",
         num_list (Array.to_list (Array.map float_of_int iterations)) );
       ("sequential_seconds", num seq_seconds);
       ("ns_per_state_iter", num ns_per_state_iter);
     ]
    @ parallel_fields);
  Printf.printf
    "per-iteration flops ~ (3 + 1 + 1) x %d x 4 (three moments), as in the \
     paper's complexity count.\n"
    states;
  if full then
    print_endline
      "paper reference: G = 41,588 at t = 0.05 with eps = 1e-9 (our G is\n\
       larger by ~2n because of the corrected Theorem-4 tail index -- see\n\
       DESIGN.md).";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Distribution-method comparison (beyond the paper: the eq.-(2)
   transform route made practical via Gil-Pelaez inversion).            *)

let dist () =
  print_endline
    "== Distribution methods on the Table-1 model (sigma^2 = 10, t = 0.5) ==";
  let m = small_model ~sigma2:10. in
  let t = 0.5 in
  let result = Randomization.moments m ~t ~order:23 in
  let moments = Array.init 24 (fun n -> unconditional m result.moments n) in
  let mean = moments.(1) in
  let std = sqrt (moments.(2) -. (mean *. mean)) in
  let points =
    Array.init 9 (fun k -> mean +. ((float_of_int k -. 4.) /. 1.5 *. std))
  in
  let bounds, bounds_time =
    wall_clock (fun () ->
        let b = Moment_bounds.prepare moments in
        Array.map (Moment_bounds.cdf_bounds b) points)
  in
  let gil_pelaez, gp_time =
    wall_clock (fun () ->
        fst (Mrm_core.Transform_distribution.cdf_grid m ~t points))
  in
  let empirical, sim_time =
    wall_clock (fun () ->
        let rng = Mrm_util.Rng.create ~seed:11L () in
        let xs = Simulate.sample m rng ~t ~replicas:100_000 in
        Array.map (fun x -> Mrm_util.Stats.empirical_cdf xs x) points)
  in
  let rows =
    Array.to_list
      (Array.mapi
         (fun k x ->
           [
             Table.float_cell x;
             Table.float_cell bounds.(k).Moment_bounds.lower;
             Table.float_cell bounds.(k).Moment_bounds.upper;
             Table.float_cell gil_pelaez.(k);
             Table.float_cell empirical.(k);
           ])
         points)
  in
  print_string
    (Table.render
       ~header:[ "x"; "bound-low"; "bound-up"; "Gil-Pelaez"; "simulation" ]
       rows);
  Printf.printf
    "wall clock: bounds %.3fs | Gil-Pelaez %.3fs | simulation %.3fs\n"
    bounds_time gp_time sim_time;
  print_endline
    "(expected shape: Gil-Pelaez and simulation agree pointwise and lie\n\
     inside the moment-bound envelope)\n"

(* ------------------------------------------------------------------ *)
(* Section 4 contrast: second-order fluid model (bounded at 0) vs
   second-order reward model (unbounded). Same Q, R, S; the boundary
   condition changes everything — the paper's argument for why the
   reward analysis is the simpler problem.                              *)

let fluid () =
  print_endline
    "== Section-4 contrast: fluid queue vs unbounded reward (same Q,R,S) ==";
  let generator =
    Mrm_ctmc.Generator.of_triplets ~states:2 [ (0, 1, 1.); (1, 0, 2.) ]
  in
  let rates = [| 1.5; -6. |] and variances = [| 0.5; 1. |] in
  let reward_model =
    Model.make ~generator ~rates ~variances ~initial:[| 1.; 0. |]
  in
  let r, fluid_time = wall_clock (fun () -> Mmbm.solve reward_model) in
  Printf.printf
    "fluid queue: mean drift %.3f, stationary mean level %.4f, tail decay \
     %.4f (solved in %.4fs by cyclic reduction)\n"
    r.Mmbm.reward_rate r.Mmbm.mean_level (Mmbm.decay_rate r) fluid_time;
  let rows =
    List.map
      (fun x ->
        [
          Table.float_cell x;
          Table.float_cell (1. -. Vec.sum (Mmbm.cdf r x));
        ])
      [ 0.5; 1.; 2.; 4.; 8. ]
  in
  print_string (Table.render ~header:[ "x"; "P(level > x)" ] rows);
  (* The unbounded reward twin drifts to -infinity instead of sitting at
     a stationary level. *)
  let reward_rows =
    List.map
      (fun t ->
        [
          Table.float_cell t;
          Table.float_cell (Randomization.mean reward_model ~t);
          Table.float_cell
            (sqrt (Randomization.variance reward_model ~t));
        ])
      [ 1.; 4.; 16.; 64. ]
  in
  print_string
    (Table.render ~header:[ "t"; "E B(t)"; "std B(t)" ] reward_rows);
  print_endline
    "(expected shape: the reflected fluid level is stationary; the\n\
     unbounded reward drifts linearly to -infinity with sqrt-t spread --\n\
     same coefficients, different boundary behaviour)\n"

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out.                 *)

let ablation_eps () =
  print_endline
    "== Ablation: precision eps vs truncation point G and runtime ==\n\
     (Theorem 4 with the corrected tail index; sigma^2 = 10, t = 2)";
  let m = small_model ~sigma2:10. in
  let rows =
    List.map
      (fun eps ->
        let result, elapsed =
          wall_clock (fun () -> Randomization.moments ~eps m ~t:2. ~order:3)
        in
        [
          Printf.sprintf "%.0e" eps;
          string_of_int result.Randomization.diagnostics.iterations;
          Printf.sprintf "%.1f"
            (result.Randomization.diagnostics.log_error_bound /. log 10.);
          Table.float_cell (unconditional m result.Randomization.moments 3);
          Printf.sprintf "%.4f" (elapsed *. 1000.);
        ])
      [ 1e-3; 1e-6; 1e-9; 1e-12 ]
  in
  print_string
    (Table.render
       ~header:[ "eps"; "G"; "log10 bound"; "m3"; "ms" ]
       rows);
  print_endline
    "(expected shape: G grows slowly (sub-linearly) as eps shrinks; m3\n\
     stabilizes to all shown digits)\n"

let ablation_moment_count () =
  print_endline
    "== Ablation: number of moments vs bound tightness (Figure 6 setup) ==";
  let m = small_model ~sigma2:1. in
  let t = 0.5 in
  let result = Randomization.moments m ~t ~order:23 in
  let all_moments =
    Array.init 24 (fun n -> unconditional m result.moments n)
  in
  let mean = all_moments.(1) in
  let rows =
    List.map
      (fun count ->
        let b = Moment_bounds.prepare (Array.sub all_moments 0 count) in
        let at_mean = Moment_bounds.cdf_bounds b mean in
        [
          string_of_int count;
          string_of_int (Moment_bounds.quadrature_size b);
          Table.float_cell at_mean.Moment_bounds.lower;
          Table.float_cell at_mean.Moment_bounds.upper;
          Table.float_cell
            (at_mean.Moment_bounds.upper -. at_mean.Moment_bounds.lower);
        ])
      [ 5; 9; 13; 17; 21; 24 ]
  in
  print_string
    (Table.render
       ~header:[ "moments"; "nodes"; "F low"; "F up"; "gap at mean" ]
       rows);
  print_endline
    "(expected shape: the envelope tightens monotonically with the moment\n\
     count -- the paper's rationale for computing 23 moments)\n"

let ablation_ode_methods () =
  print_endline
    "== Ablation: ODE stepper vs error against randomization (order 2) ==";
  let m = small_model ~sigma2:10. in
  let t = 1.0 in
  let reference = Randomization.moment ~eps:1e-13 m ~t ~order:2 in
  let rows =
    List.concat_map
      (fun (name, method_) ->
        List.map
          (fun steps ->
            let value = Moments_ode.moment ~method_ ~steps m ~t ~order:2 in
            [
              name;
              string_of_int steps;
              Table.float_cell value;
              Printf.sprintf "%.2e" (abs_float (value -. reference));
            ])
          [ 512; 2048; 8192 ])
      [
        ("euler", Mrm_ode.Ode.Euler);
        ("heun", Mrm_ode.Ode.Heun);
        ("rk4", Mrm_ode.Ode.Rk4);
      ]
  in
  print_string
    (Table.render ~header:[ "method"; "steps"; "m2"; "abs error" ] rows);
  Printf.printf "randomization reference: %.10g\n" reference;
  print_endline
    "(expected shape: error drops ~2x/4x/16x per step doubling for\n\
     Euler/Heun/RK4; randomization needs no such sweep)\n"

let ablation_sweep () =
  print_endline
    "== Ablation: shared-sweep vs per-point randomization (Figure 3/4 grid) ==";
  let m = small_model ~sigma2:10. in
  let times = Array.init 9 (fun k -> 0.25 *. float_of_int k) in
  let shared, shared_time =
    wall_clock (fun () -> Randomization.moments_at_times m ~times ~order:3)
  in
  let pointwise, pointwise_time =
    wall_clock (fun () ->
        Array.map (fun t -> Randomization.moments m ~t ~order:3) times)
  in
  let worst = ref 0. in
  Array.iteri
    (fun k r ->
      for n = 0 to 3 do
        let a = unconditional m r.Randomization.moments n in
        let b = unconditional m pointwise.(k).Randomization.moments n in
        worst := Float.max !worst (abs_float (a -. b) /. (1. +. abs_float b))
      done)
    shared;
  Printf.printf
    "9 time points, order 3: shared sweep %.4fs vs pointwise %.4fs \
     (speedup %.1fx); max relative difference %.2e\n"
    shared_time pointwise_time
    (pointwise_time /. Float.max shared_time 1e-9)
    !worst;
  print_endline
    "(the U^(n)(k) recursion is time-independent — one pass to max G \
     serves\nevery time point; the per-point road is what the paper's \
     pseudo-code does)\n"

let ablation_impulse () =
  print_endline
    "== Extension: impulse rewards (restriction the paper relaxes) ==\n\
     Machine-repair model with a lump inspection cost per repair completion.";
  let p = Mrm_models.Machine_repair.default in
  let base = Mrm_models.Machine_repair.model p in
  let generator = (base : Model.t).Model.generator in
  let states = Mrm_ctmc.Generator.dim generator in
  let impulses = ref [] in
  for i = 1 to states - 1 do
    (* Repair transitions i -> i-1 carry a unit impulse. *)
    impulses := (i, i - 1, 1.0) :: !impulses
  done;
  let model = Mrm_core.Impulse.make base !impulses in
  let rows =
    List.map
      (fun t ->
        let with_impulse = Mrm_core.Impulse.mean model ~t in
        let base_only = Randomization.mean base ~t in
        [
          Table.float_cell t;
          Table.float_cell base_only;
          Table.float_cell with_impulse;
          Table.float_cell (with_impulse -. base_only);
        ])
      [ 1.; 2.; 4.; 8. ]
  in
  print_string
    (Table.render
       ~header:[ "t"; "rate reward"; "+ impulses"; "mean repairs" ]
       rows);
  print_endline
    "(the impulse column minus the rate column counts expected repair\n\
     completions -- validated against a transient-integral oracle in the\n\
     test suite)\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure kernel.    *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  print_endline "== Bechamel micro-benchmarks (ns per run, OLS estimate) ==";
  let model10 = small_model ~sigma2:10. in
  let model0 = small_model ~sigma2:0. in
  let bounds_input =
    let order = 23 in
    let r = Randomization.moments model10 ~t:0.5 ~order in
    Array.init (order + 1) (fun n ->
        unconditional model10 r.Randomization.moments n)
  in
  let path_model =
    let generator =
      Mrm_ctmc.Generator.of_triplets ~states:3
        [ (0, 1, 2.0); (1, 0, 1.0); (1, 2, 1.5); (2, 1, 2.0); (2, 0, 0.5) ]
    in
    Model.make ~generator ~rates:[| 0.; 1.; 3. |]
      ~variances:[| 0.2; 0.5; 2.0 |] ~initial:[| 1.; 0.; 0. |]
  in
  let scaled = Onoff.model (Onoff.scaled_table2 ~sources:2_000) in
  let rng = Mrm_util.Rng.create ~seed:7L () in
  let tests =
    [
      (* Figure 1: path sampling. *)
      Test.make ~name:"fig1/joint-path-3state"
        (Staged.stage (fun () ->
             ignore (Simulate.joint_path path_model rng ~t_max:2. ~grid:100)));
      (* Figure 3: first moment of the small model. *)
      Test.make ~name:"fig3/mean-sigma10-t2"
        (Staged.stage (fun () ->
             ignore (Randomization.moments model10 ~t:2. ~order:1)));
      (* Figure 4: third moment of the small model. *)
      Test.make ~name:"fig4/moments3-sigma10-t2"
        (Staged.stage (fun () ->
             ignore (Randomization.moments model10 ~t:2. ~order:3)));
      (* The paper's cost claim: first-order vs second-order, same model. *)
      Test.make ~name:"cost/first-order-moments3"
        (Staged.stage (fun () ->
             ignore (Randomization.moments model0 ~t:2. ~order:3)));
      (* Figures 5-7: moment-bound evaluation. *)
      Test.make ~name:"fig5-7/bounds-23-moments"
        (Staged.stage (fun () ->
             let b = Moment_bounds.prepare bounds_input in
             for k = 0 to 12 do
               ignore
                 (Moment_bounds.cdf_bounds b (10. +. float_of_int k))
             done));
      (* Cross-validation comparators (agree). *)
      Test.make ~name:"agree/ode-heun-moments2"
        (Staged.stage (fun () ->
             ignore (Moments_ode.moments model10 ~t:1. ~order:2)));
      Test.make ~name:"agree/simulate-500-replicas"
        (Staged.stage (fun () ->
             ignore (Simulate.sample model10 rng ~t:1. ~replicas:500)));
      (* Table 2 / Figure 8: one sparse randomization run at reduced N. *)
      Test.make ~name:"fig8/randomization-N2000-t0.01"
        (Staged.stage (fun () ->
             ignore (Randomization.moments scaled ~t:0.01 ~order:3)));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"mrm2" tests)
  in
  let analyzed = Analyze.all ols Instance.monotonic_clock raw in
  let merged = Analyze.merge ols instances [ analyzed ] in
  let clock_label = Measure.label Instance.monotonic_clock in
  let per_test = Hashtbl.find merged clock_label in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some (value :: _) -> value
        | _ -> Float.nan
      in
      rows := (name, estimate) :: !rows)
    per_test;
  let sorted = List.sort compare !rows in
  print_string
    (Table.render
       ~header:[ "kernel"; "ns/run"; "ms/run" ]
       (List.map
          (fun (name, ns) ->
            [ name; Printf.sprintf "%.0f" ns; Printf.sprintf "%.3f" (ns /. 1e6) ])
          sorted));
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Stationary MMBM density via componentwise-accurate cyclic reduction
   (DESIGN section 12): iteration counts, residual trajectory and wall
   time across model sizes, cross-checked against the steady reward
   rate computed independently by GTH on the modulating chain.          *)

let cr () =
  print_endline "=== cr: MMBM stationary density via cyclic reduction ===";
  let sizes = [ 4; 8; 16; 32; 64 ] in
  let records =
    List.map
      (fun sources ->
        let model =
          Onoff.model
            { (Onoff.table1 ~sigma2:1.) with
              sources;
              capacity = float_of_int sources;
            }
        in
        let rstar = Steady.reward_rate model in
        (* serve faster than the mean arrival rate so the drained drift
           is negative and the backlog is positive recurrent *)
        let drain = rstar +. 2. in
        let trajectory = ref [] in
        let r, seconds =
          wall_clock (fun () ->
              Mrm_mmbm.Mmbm.solve ~drain ~regularize:1e-3 ~validate:true
                ~on_iterate:(fun _ down -> trajectory := down :: !trajectory)
                model)
        in
        let rate_err =
          abs_float (r.Mrm_mmbm.Mmbm.reward_rate -. rstar)
          /. (1. +. abs_float rstar)
        in
        Printf.printf
          "n = %3d: %2d CR iterations, residual %.2e, %.4fs, mean level \
           %.6g, reward-rate err vs GTH %.2e\n"
          (sources + 1) r.Mrm_mmbm.Mmbm.iterations r.Mrm_mmbm.Mmbm.residual
          seconds r.Mrm_mmbm.Mmbm.mean_level rate_err;
        (sources + 1, r, seconds, List.rev !trajectory, rate_err))
      sizes
  in
  let largest_trajectory =
    match List.rev records with
    | (_, _, _, trajectory, _) :: _ -> trajectory
    | [] -> []
  in
  emit_bench ~name:"cr"
    [
      ( "states",
        num_list (List.map (fun (n, _, _, _, _) -> float_of_int n) records) );
      ("drift_shift", num 2.);
      ("regularize", num 1e-3);
      ( "iterations",
        num_list
          (List.map
             (fun (_, r, _, _, _) ->
               float_of_int r.Mrm_mmbm.Mmbm.iterations)
             records) );
      ( "residuals",
        num_list
          (List.map (fun (_, r, _, _, _) -> r.Mrm_mmbm.Mmbm.residual) records)
      );
      ( "tau",
        num_list (List.map (fun (_, r, _, _, _) -> r.Mrm_mmbm.Mmbm.tau) records)
      );
      ("seconds", num_list (List.map (fun (_, _, s, _, _) -> s) records));
      ( "reward_rate_rel_err",
        num_list (List.map (fun (_, _, _, _, e) -> e) records) );
      ("largest_residual_trajectory", num_list largest_trajectory);
    ];
  print_newline ()

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig1", fig1); ("table1", table1); ("fig3", fig3); ("fig4", fig4);
    ("fig5", fig5); ("fig6", fig6); ("fig7", fig7); ("agree", agree);
    ("fig8", fig8); ("dist", dist); ("fluid", fluid); ("cr", cr);
    ("ablation-eps", ablation_eps);
    ("ablation-moments", ablation_moment_count);
    ("ablation-ode", ablation_ode_methods);
    ("ablation-impulse", ablation_impulse); ("ablation-sweep", ablation_sweep);
    ("micro", micro);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
          Mrm_obs.Metrics.reset ();
          f ()
      | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" name
            (String.concat ", " (List.map fst experiments));
          exit 1)
    requested

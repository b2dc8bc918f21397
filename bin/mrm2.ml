(* Command-line front end for the second-order MRM solvers.

   Subcommands:
     moments     - raw moments of the accumulated reward at time t
     batch       - many moment jobs at once (JSONL in/out, deduplicated,
                   parallel across a domain pool)
     serve       - resident solver service (JSONL over a Unix/TCP socket,
                   LRU result cache, bounded queue, graceful drain)
     call        - client for a running serve (stream jobs, print results)
     route       - consistent-hash front-end over serve replicas
                   (failover, shedding)
     loadgen     - closed-loop load generator against serve or route
     stationary  - invariant density of the regulated reward level (MMBM
                   cyclic reduction; --ctmc for the modulating chain only)
     bounds      - moment-based bounds on P(B(t) <= x)
     distribution- CDF of the accumulated reward (transform inversion)
     simulate    - Monte-Carlo estimates with confidence intervals
     path        - a discretized joint sample path (t, state, B(t))
     mtta        - mean time to absorption into a target state set
     fluid       - stationary second-order fluid queue (ON-OFF source)
     info        - model summary (states, rates, uniformization constants)
     lint        - static verification of a model file (MRM0xx diagnostics)

   Built-in models (Mrm_models.Builtin): onoff (the paper's Section-7
   multiplexer), repair (machine repairman), multi (fault-tolerant
   multiprocessor). *)

open Cmdliner
module Check = Mrm_check.Check

(* ------------------------------------------------------------------ *)
(* Model selection                                                     *)

let model_arg =
  let names = Mrm_models.Builtin.names in
  Arg.(
    value
    & opt (enum (List.combine names names)) "onoff"
    & info [ "model" ] ~docv:"NAME"
        ~doc:"Built-in model: $(b,onoff), $(b,repair) or $(b,multi).")

let sigma2_arg =
  Arg.(
    value
    & opt float 1.0
    & info [ "sigma2" ] ~docv:"V"
        ~doc:"Per-source rate variance of the onoff model (paper uses 0, 1, 10).")

let size_arg =
  Arg.(
    value
    & opt int 32
    & info [ "size" ] ~docv:"N"
        ~doc:
          "Model size: sources (onoff), machines (repair) or processors \
           (multi).")

let file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "file" ] ~docv:"PATH"
        ~doc:
          "Load the model from a file in the Model_io text format instead \
           of using a built-in (overrides --model/--sigma2/--size).")

let source_arg =
  let source file name sigma2 size =
    match file with
    | Some path -> Mrm_models.Builtin.File path
    | None -> Mrm_models.Builtin.Named { name; sigma2; size }
  in
  Term.(const source $ file_arg $ model_arg $ sigma2_arg $ size_arg)

(* A request out of its domain is refused before anything is solved: exit
   2 and one stderr line "mrm2 CMD: ..." per failed rule, naming the
   value. A rule is the request rules of Mrm_check.Check ([diagnosed]),
   which mrm2 lint and the batch/serve wire share, or a command's own
   ([rule]). *)
let with_rules ~cmd rules f =
  match List.concat rules with
  | [] -> f ()
  | failures ->
      List.iter (Printf.eprintf "mrm2 %s: %s\n" cmd) failures;
      2

let rule ok fmt =
  Printf.ksprintf (fun message -> if ok then [] else [ message ]) fmt

let diagnosed = List.map (Format.asprintf "%a" Mrm_check.Diagnostics.pp)

(* The horizon's rules: MRM060's, and t <> 0 for [~positive] ([bounds],
   [distribution] and [path] describe B over a positive horizon). *)
let horizon ?(positive = false) t =
  diagnosed (Check.config_errors ~times:[| t |] ())
  @ rule
      (not (positive && Float.equal t 0.))
      "--time %g must be > 0 (B(0) is the point mass at 0)" t

let finite_points points =
  List.concat_map
    (fun x -> rule (Float.is_finite x) "--points: point %g must be finite" x)
    points

(* Refuses the failed flag [rules], then runs [f] on the model of
   [source] with the impulse rewards its file declares. A source that
   does not load exits 2 with its message on stderr: a file's leads with
   its path, a built-in's ([--size 0]) with "mrm2". Without
   [~impulses:true] a file that declares impulse rewards is refused, as
   mrm2 batch refuses it, rather than solved without them. A command
   that runs randomization to [horizon] also refuses a built model whose
   solver constants fail their rules. *)
let with_model ~cmd ?(impulses = false) ?horizon ?(rules = []) source f =
  with_rules ~cmd rules @@ fun () ->
  let refused fmt = Printf.ksprintf (fun m -> prerr_endline m; 2) fmt in
  match (Mrm_models.Builtin.load source, source) with
  | Error message, File _ -> refused "%s" message
  | Error message, Named _ -> refused "mrm2: %s" message
  | Ok { impulses = _ :: _; _ }, File path when not impulses ->
      refused "%s declares impulse rewards, unsupported in mrm2 %s (use \
               mrm2 moments)" path cmd
  | Ok ({ model; _ } as parsed), _ ->
      let constants t =
        Check.constant_errors ~t ~rates:model.rates ~variances:model.variances
          ~q:(Mrm_ctmc.Generator.uniformization_rate model.generator)
      in
      with_rules ~cmd
        [ diagnosed (Option.fold ~none:[] ~some:constants horizon) ]
        (fun () -> f parsed)

let t_arg =
  Arg.(
    value & opt float 1.0
    & info [ "time"; "t" ] ~docv:"T" ~doc:"Accumulation horizon $(docv).")

let eps_arg =
  Arg.(
    value & opt float 1e-9
    & info [ "eps" ] ~docv:"EPS"
        ~doc:"Truncation-error bound of the randomization method.")

let seed_arg =
  Arg.(
    value & opt int64 1L
    & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed for simulation commands.")

(* Solver parallelism, from --jobs or else [MRM2_JOBS] (cmdliner reads
   both). [mrm2 moments] and [mrm2 lint] stay sequential unless asked;
   [mrm2 batch] and [mrm2 serve] default to every core. *)
let jobs_doc =
  "Worker domains for the parallel engine ($(b,1) = sequential; at \
   least 1). Defaults to the $(b,MRM2_JOBS) environment variable when \
   set."

let jobs_arg ~default =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"J" ~doc:jobs_doc ~env:(Cmd.Env.info "MRM2_JOBS"))
  |> Term.app (Term.const (fun jobs -> Option.value jobs ~default:(default ())))

let jobs_rule jobs = rule (jobs >= 1) "--jobs %d must be >= 1" jobs

(* Run [f] with [Some pool] when more than one domain was requested —
   the solvers treat [None] and a 1-job pool identically, but [None]
   skips pool setup entirely. *)
let with_optional_pool ~jobs f =
  if jobs <= 1 then f None
  else Mrm_engine.Pool.with_pool ~jobs (fun pool -> f (Some pool))

(* ------------------------------------------------------------------ *)
(* Observability flags, shared by the solver subcommands. --trace picks
   the span sink for this run (overriding MRM2_TRACE); --metrics prints
   the Mrm_obs.Metrics report to stderr after the command body. *)

let trace_arg =
  Arg.(
    value
    & opt ~vopt:(Some "stderr") (some string) None
    & info [ "trace" ] ~docv:"SINK"
        ~doc:
          "Emit solver spans: $(b,stderr) (the default when $(docv) is \
           omitted) for human-readable lines, any other value for a JSONL \
           trace file at that path. Overrides the $(b,MRM2_TRACE) \
           environment variable, which is honoured otherwise.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the solver metrics report (counters and gauges: \
           truncation point, Poisson terms, pool jobs, ...) to standard \
           error when the command finishes.")

(* Evaluates to [run_with_obs : (unit -> int) -> int]: applies the sink
   choice, runs the command body, then reports/flushes. *)
let obs_term =
  let setup trace metrics body =
    (match trace with
    | None -> ()
    | Some spec -> Mrm_obs.Trace.set_sink (Mrm_obs.Trace.sink_of_spec spec));
    let code = body () in
    if metrics then
      Format.eprintf "%a@?" Mrm_obs.Metrics.pp_report ();
    Mrm_obs.Trace.flush ();
    code
  in
  Term.(const setup $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* moments                                                             *)

let moments_cmd =
  let order =
    Arg.(
      value & opt int 3
      & info [ "order" ] ~docv:"N" ~doc:"Highest moment order.")
  in
  let run source t order eps jobs obs =
    obs @@ fun () ->
    with_model ~cmd:"moments" ~impulses:true ~horizon:t source
      ~rules:
        [
          diagnosed (Check.config_errors ~times:[| t |] ~order ~eps ());
          jobs_rule jobs;
        ]
    @@ fun { Mrm_core.Model_io.model; impulses } ->
    let r =
      with_optional_pool ~jobs (fun pool ->
          Mrm_core.Impulse.(moments ~eps ?pool (make model impulses) ~t ~order))
    in
    Printf.printf
      "# randomization%s: q = %g, d = %g, G = %d, log10 error bound = %.2f\n"
      (if impulses = [] then "" else "+impulses")
      r.diagnostics.q r.diagnostics.d r.diagnostics.iterations
      (r.diagnostics.log_error_bound /. log 10.);
    let pi = (model : Mrm_core.Model.t).initial in
    Array.iteri
      (fun n v -> Printf.printf "E[B^%d] = %.12g\n" n (Mrm_linalg.Vec.dot pi v))
      r.moments;
    0
  in
  let term =
    Term.(
      const run $ source_arg $ t_arg $ order $ eps_arg
      $ jobs_arg ~default:(Fun.const 1) $ obs_term)
  in
  Cmd.v
    (Cmd.info "moments" ~doc:"Moments of the accumulated reward at time t")
    term

(* ------------------------------------------------------------------ *)
(* bounds                                                              *)

let bounds_cmd =
  let points =
    Arg.(
      value
      & opt (list float) []
      & info [ "points" ] ~docv:"X1,X2,..."
          ~doc:"Evaluation points (default: mean + k/2 std, k = -4..4).")
  in
  let moment_count =
    Arg.(
      value & opt int 23
      & info [ "moments" ] ~docv:"K"
          ~doc:"Number of moments to compute (the paper's figures use 23).")
  in
  let run source t moment_count points obs =
    obs @@ fun () ->
    with_model ~cmd:"bounds" ~horizon:t source
      ~rules:
        [
          horizon ~positive:true t;
          finite_points points;
          rule (moment_count >= 2)
            "--moments %d must be >= 2 (the bounds need m0, m1 and m2)"
            moment_count;
        ]
    @@ fun { Mrm_core.Model_io.model; _ } ->
    let pi = (model : Mrm_core.Model.t).initial in
    let r = Mrm_core.Randomization.moments model ~t ~order:moment_count in
    let moments =
      Array.init (moment_count + 1) (fun n ->
          Mrm_linalg.Vec.dot pi r.moments.(n))
    in
    let bounds = Mrm_core.Moment_bounds.prepare moments in
    Printf.printf "# using %d moments (%d Gauss nodes)\n"
      (Mrm_core.Moment_bounds.moments_used bounds)
      (Mrm_core.Moment_bounds.quadrature_size bounds);
    let points =
      if points <> [] then points
      else begin
        let mean = moments.(1) in
        let std = sqrt (Float.max 0. (moments.(2) -. (mean *. mean))) in
        List.init 9 (fun k -> mean +. (float_of_int (k - 4) /. 2. *. std))
      end
    in
    List.iter
      (fun x ->
        let b = Mrm_core.Moment_bounds.cdf_bounds bounds x in
        Printf.printf "x = %-12g %.6f <= F(x) <= %.6f\n" x b.lower b.upper)
      points;
    0
  in
  let term =
    Term.(
      const run $ source_arg $ t_arg $ moment_count $ points $ obs_term)
  in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Moment-based bounds on the reward distribution")
    term

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)

let simulate_cmd =
  let replicas =
    Arg.(
      value & opt int 100_000
      & info [ "replicas" ] ~docv:"R" ~doc:"Number of i.i.d. samples.")
  in
  let order =
    Arg.(
      value & opt int 3
      & info [ "order" ] ~docv:"N" ~doc:"Highest moment order to estimate.")
  in
  let run source t replicas order seed =
    with_model ~cmd:"simulate" source
      ~rules:
        [
          horizon t;
          rule (replicas >= 1) "--replicas %d must be >= 1" replicas;
          rule (order >= 1) "--order %d must be >= 1" order;
        ]
    @@ fun { Mrm_core.Model_io.model; _ } ->
    let rng = Mrm_util.Rng.create ~seed () in
    let estimates =
      Mrm_core.Simulate.estimate_moments model rng ~t ~max_order:order
        ~replicas
    in
    Array.iter
      (fun e ->
        Printf.printf "E[B^%d] ~ %.8g   95%% CI [%.8g, %.8g]\n"
          e.Mrm_core.Simulate.order e.value e.ci_low e.ci_high)
      estimates;
    0
  in
  let term =
    Term.(
      const run $ source_arg $ t_arg $ replicas $ order $ seed_arg)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Monte-Carlo moment estimates with CIs")
    term

(* ------------------------------------------------------------------ *)
(* path                                                                *)

let path_cmd =
  let grid =
    Arg.(
      value & opt int 200
      & info [ "grid" ] ~docv:"K" ~doc:"Number of grid intervals.")
  in
  let run source t grid seed =
    with_model ~cmd:"path" source
      ~rules:
        [
          horizon ~positive:true t;
          rule (grid >= 1) "--grid %d must be >= 1" grid;
        ]
    @@ fun { Mrm_core.Model_io.model; _ } ->
    let rng = Mrm_util.Rng.create ~seed () in
    let path = Mrm_core.Simulate.joint_path model rng ~t_max:t ~grid in
    print_endline "# t state B(t)";
    Array.iter
      (fun p ->
        Printf.printf "%.6f %d %.8g\n" p.Mrm_core.Simulate.time p.state
          p.reward)
      path;
    0
  in
  let term =
    Term.(
      const run $ source_arg $ t_arg $ grid $ seed_arg)
  in
  Cmd.v (Cmd.info "path" ~doc:"Sample a joint (state, reward) path") term

(* ------------------------------------------------------------------ *)
(* distribution                                                        *)

let distribution_cmd =
  let points =
    Arg.(
      value
      & opt (list float) []
      & info [ "points" ] ~docv:"X1,X2,..."
          ~doc:"Evaluation points (default: mean + k/2 std, k = -4..4).")
  in
  let run source t points =
    with_model ~cmd:"distribution" ~horizon:t source
      ~rules:[ horizon ~positive:true t; finite_points points ]
    @@ fun { Mrm_core.Model_io.model; _ } ->
    let points =
      if points <> [] then Array.of_list points
      else begin
        let r = Mrm_core.Randomization.moments model ~t ~order:2 in
        let pi = (model : Mrm_core.Model.t).initial in
        let mean = Mrm_linalg.Vec.dot pi r.moments.(1) in
        let std =
          sqrt
            (Float.max 0.
               (Mrm_linalg.Vec.dot pi r.moments.(2) -. (mean *. mean)))
        in
        Array.init 9 (fun k -> mean +. (float_of_int (k - 4) /. 2. *. std))
      end
    in
    let values, grid =
      Mrm_core.Transform_distribution.cdf_grid model ~t points
    in
    Printf.printf "# Gil-Pelaez inversion: %d frequencies, step %g\n"
      grid.Mrm_core.Transform_distribution.count
      grid.Mrm_core.Transform_distribution.step;
    Array.iteri
      (fun k x -> Printf.printf "P(B <= %-12g) = %.6f\n" x values.(k))
      points;
    0
  in
  let term =
    Term.(const run $ source_arg $ t_arg $ points)
  in
  Cmd.v
    (Cmd.info "distribution"
       ~doc:"CDF of the accumulated reward (transform-domain inversion)")
    term

(* ------------------------------------------------------------------ *)
(* mtta                                                                *)

let mtta_cmd =
  let targets =
    Arg.(
      required
      & opt (some (list int)) None
      & info [ "targets" ] ~docv:"S1,S2,..."
          ~doc:"Target state indices (e.g. the all-failed state).")
  in
  let run source targets =
    with_model ~cmd:"mtta" ~impulses:true source
      ~rules:[ rule (targets <> []) "--targets: give at least one state" ]
    @@ fun { Mrm_core.Model_io.model; _ } ->
    let states = Mrm_core.Model.dim model in
    with_rules ~cmd:"mtta"
      (List.map
         (fun s ->
           rule (s >= 0 && s < states) "--targets: state %d is not in 0..%d" s
             (states - 1))
         targets)
    @@ fun () ->
    let mtta =
      Mrm_ctmc.Absorption.mean_time_to_absorption model.generator
        ~initial:model.initial ~targets
    in
    Printf.printf "mean time to reach {%s} = %g\n"
      (String.concat ", " (List.map string_of_int targets))
      mtta;
    0
  in
  let term = Term.(const run $ source_arg $ targets) in
  Cmd.v
    (Cmd.info "mtta" ~doc:"Mean time to absorption into a target state set")
    term

(* ------------------------------------------------------------------ *)
(* fluid                                                               *)

let fluid_cmd =
  let capacity =
    Arg.(
      value & opt float 5.
      & info [ "capacity" ] ~docv:"C" ~doc:"Drain rate of the buffer.")
  in
  let peak =
    Arg.(
      value & opt float 10.
      & info [ "peak" ] ~docv:"P" ~doc:"Peak input rate while ON.")
  in
  let sigma2 =
    Arg.(
      value & opt float 2.
      & info [ "fluid-sigma2" ] ~docv:"V"
          ~doc:"Brownian variance of the input while ON.")
  in
  let run capacity peak sigma2 =
    let module Mmbm = Mrm_mmbm.Mmbm in
    with_rules ~cmd:"fluid"
      [
        rule (Float.is_finite capacity) "--capacity %g must be finite" capacity;
        rule (Float.is_finite peak) "--peak %g must be finite" peak;
        rule
          (Float.is_finite sigma2 && sigma2 >= 0.)
          "--fluid-sigma2 %g must be finite and >= 0" sigma2;
      ]
    @@ fun () ->
    let generator =
      Mrm_ctmc.Generator.of_triplets ~states:2 [ (0, 1, 0.5); (1, 0, 1.0) ]
    in
    let queue =
      Mrm_core.Model.make ~generator
        ~rates:[| -.capacity; peak -. capacity |]
        ~variances:[| Float.max 1e-6 (sigma2 /. 10.); sigma2 |]
        ~initial:[| 1.; 0. |]
    in
    match Mmbm.solve queue with
    | exception Mmbm.Error d ->
        Format.eprintf "mrm2 fluid: %a@." Mrm_check.Diagnostics.pp d;
        1
    | r ->
        Printf.printf
          "ON-OFF fluid queue: drift %.4f, mean level %.6f, decay rate %.6f\n"
          r.reward_rate r.mean_level (Mmbm.decay_rate r);
        List.iter
          (fun x ->
            Printf.printf "P(level > %-8g) = %.8f\n" x
              (1. -. Mrm_linalg.Vec.sum (Mmbm.cdf r x)))
          [ 0.; 0.5; 1.; 2.; 4.; 8.; 16. ];
        0
  in
  let term = Term.(const run $ capacity $ peak $ sigma2) in
  Cmd.v
    (Cmd.info "fluid"
       ~doc:"Stationary second-order fluid queue for an ON-OFF source")
    term

(* ------------------------------------------------------------------ *)
(* lint                                                                *)

type lint_format = Human | Sexp | Json | Github

let lint_format_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("human", Human); ("sexp", Sexp); ("json", Json); ("github", Github) ])
        Human
    & info [ "format" ] ~docv:"F"
        ~doc:
          "Report rendering: $(b,human), $(b,sexp), $(b,json) or \
           $(b,github) (GitHub Actions $(b,::error) annotations for CI).")

let lint_cmd =
  let module Diagnostics = Mrm_check.Diagnostics in
  let module Model_io = Mrm_core.Model_io in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"MODEL" ~doc:"Model file in the Model_io text format.")
  in
  let order =
    Arg.(
      value & opt int 3
      & info [ "order" ] ~docv:"N"
          ~doc:"Moment order the solve would use (conditioning checks).")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Exit non-zero on warnings, not just errors.")
  in
  let stationary =
    Arg.(
      value & flag
      & info [ "stationary" ]
          ~doc:
            "Also check stationary (MMBM) applicability: zero-variance \
             states, nonnegative mean drift (MRM062-MRM064, warnings).")
  in
  let print_report ~file format report =
    match format with
    | Human -> Format.printf "%a" Diagnostics.pp_report report
    | Sexp -> print_endline (Diagnostics.report_to_sexp report)
    | Json -> print_endline (Diagnostics.report_to_json report)
    | Github ->
        if report <> [] then
          print_endline (Diagnostics.report_to_github ~file report)
  in
  let exit_code strict report =
    if Diagnostics.has_errors report then 1
    else if strict && Diagnostics.count Diagnostics.Warning report > 0 then 1
    else 0
  in
  let run path t order eps format strict stationary jobs =
    with_rules ~cmd:"lint" [ jobs_rule jobs ] @@ fun () ->
    match Model_io.load_raw path with
    | Error e ->
        let context =
          List.concat
            [
              [ ("file", path) ];
              (match e.Model_io.line with
              | Some l -> [ ("line", string_of_int l) ]
              | None -> []);
              (match e.Model_io.field with
              | Some f -> [ ("field", f) ]
              | None -> []);
            ]
        in
        let report =
          [
            Diagnostics.error ~code:"MRM090" ~context
              (Model_io.error_message e);
          ]
        in
        print_report ~file:path format report;
        1
    | Ok raw ->
        let rates, variances, initial = Model_io.raw_vectors raw in
        let data =
          Check.of_triplets ~states:raw.Model_io.declared_states
            ~transitions:raw.Model_io.raw_transitions ~rates ~variances
            ~initial
        in
        let config = { Check.t; order; eps; q = None; d = None; jobs } in
        let report = Check.check ~config data in
        let report =
          if stationary then report @ Check.check_stationary data else report
        in
        print_report ~file:path format report;
        exit_code strict report
  in
  let term =
    Term.(
      const run $ file $ t_arg $ order $ eps_arg $ lint_format_arg $ strict
      $ stationary $ jobs_arg ~default:(Fun.const 1))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically verify a model file: generator validity, reward \
          sanity, reachability, uniformization invariants and \
          conditioning, without solving anything")
    term

(* ------------------------------------------------------------------ *)
(* stationary                                                          *)

type stationary_format = Shuman | Ssexp | Sjson

let stationary_cmd =
  let module Mmbm = Mrm_mmbm.Mmbm in
  let module Diagnostics = Mrm_check.Diagnostics in
  let module Json = Mrm_util.Json in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("human", Shuman); ("sexp", Ssexp); ("json", Sjson) ]) Shuman
      & info [ "format" ] ~docv:"F"
          ~doc:"Output rendering: $(b,human), $(b,sexp) or $(b,json).")
  in
  let drain =
    Arg.(
      value & opt float 0.
      & info [ "drain" ] ~docv:"C"
          ~doc:
            "Constant service rate subtracted from every reward rate; the \
             level is then the backlog of a queue drained at $(docv). The \
             drained mean drift must be negative (MRM063 names the \
             threshold otherwise).")
  in
  let regularize =
    Arg.(
      value
      & opt (some float) None
      & info [ "regularize" ] ~docv:"V"
          ~doc:
            "Floor every state variance at $(docv) (zero-variance states \
             make the level diffusion degenerate, MRM062). Applying the \
             floor is reported as an MRM067 warning. The phase marginal \
             and reward rate do not depend on the variances, so a \
             generous floor (1e-3) is safe for those outputs and keeps \
             the shift parameter tau well conditioned.")
  in
  let ctmc =
    Arg.(
      value & flag
      & info [ "ctmc" ]
          ~doc:
            "Only the modulating CTMC: GTH stationary distribution and \
             steady reward rate, subtraction-free end to end. No \
             variances needed — works for first-order models too.")
  in
  let validate =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Cross-check the phase marginal against the CTMC stationary \
             distribution (they must agree analytically). Disagreement \
             beyond 1e-8 adds an MRM068 warning and exits 1.")
  in
  let points =
    Arg.(
      value
      & opt (list float) []
      & info [ "points" ] ~docv:"X1,X2,..."
          ~doc:"Print the stationary density and cdf at these levels.")
  in
  let max_iter =
    Arg.(
      value & opt int 200
      & info [ "max-iter" ] ~docv:"K"
          ~doc:"Cyclic-reduction iteration cap (MRM065 when exhausted).")
  in
  let cr_eps =
    Arg.(
      value & opt float 1e-14
      & info [ "eps" ] ~docv:"EPS"
          ~doc:
            "CR stopping threshold on the relative down-coupling block \
             norm.")
  in
  let nums a = Json.List (Array.to_list (Array.map (fun v -> Json.Num v) a)) in
  let print_ctmc format (model : Mrm_core.Model.t) =
    let pi = Mrm_ctmc.Stationary.gth model.generator in
    let rate = Mrm_linalg.Vec.dot pi model.rates in
    (match format with
    | Shuman ->
        Array.iteri (fun i p -> Printf.printf "pi[%d] = %.12g\n" i p) pi;
        Printf.printf "reward rate = %.12g\n" rate
    | Ssexp ->
        let b = Buffer.create 256 in
        Buffer.add_string b "(ctmc-stationary (pi";
        Array.iter (fun p -> Buffer.add_string b (Printf.sprintf " %.17g" p)) pi;
        Buffer.add_string b (Printf.sprintf ") (reward_rate %.17g))" rate);
        print_endline (Buffer.contents b)
    | Sjson ->
        print_endline
          (Json.to_string
             (Json.Obj [ ("pi", nums pi); ("reward_rate", Json.Num rate) ])));
    0
  in
  let print_result format points (r : Mmbm.result) =
    (match format with
    | Shuman ->
        Printf.printf "# stationary: tau = %g, cr iterations = %d, residual = %.3g\n"
          r.tau r.iterations r.residual;
        Array.iteri
          (fun i p ->
            Printf.printf "p[%d] = %.12g (atom %.12g)\n" i p r.atoms.(i))
          r.marginal;
        Printf.printf "mean level = %.12g\n" r.mean_level;
        Printf.printf "reward rate = %.12g\n" r.reward_rate;
        List.iter
          (fun x ->
            let d = Mmbm.density r x and c = Mmbm.cdf r x in
            Printf.printf "x = %-12g density = %.12g cdf = %.12g\n" x
              (Mrm_linalg.Vec.sum d) (Mrm_linalg.Vec.sum c))
          points;
        List.iter
          (fun w -> Format.printf "%a@." Diagnostics.pp w)
          r.warnings
    | Ssexp ->
        let b = Buffer.create 512 in
        let vec name a =
          Buffer.add_string b (Printf.sprintf " (%s" name);
          Array.iter (fun v -> Buffer.add_string b (Printf.sprintf " %.17g" v)) a;
          Buffer.add_string b ")"
        in
        Buffer.add_string b
          (Printf.sprintf "(stationary (tau %.17g) (iterations %d) (residual %.3g)"
             r.tau r.iterations r.residual);
        vec "marginal" r.marginal;
        vec "atoms" r.atoms;
        Buffer.add_string b
          (Printf.sprintf " (mean_level %.17g) (reward_rate %.17g)"
             r.mean_level r.reward_rate);
        List.iter
          (fun x ->
            vec (Printf.sprintf "density %.17g" x) (Mmbm.density r x);
            vec (Printf.sprintf "cdf %.17g" x) (Mmbm.cdf r x))
          points;
        if r.warnings <> [] then begin
          Buffer.add_string b " (warnings";
          List.iter
            (fun w -> Buffer.add_string b (" " ^ Diagnostics.to_sexp w))
            r.warnings;
          Buffer.add_string b ")"
        end;
        Buffer.add_string b ")";
        print_endline (Buffer.contents b)
    | Sjson ->
        let point x =
          Json.Obj
            [
              ("x", Json.Num x);
              ("density", nums (Mmbm.density r x));
              ("cdf", nums (Mmbm.cdf r x));
            ]
        in
        print_endline
          (Json.to_string
             (Json.Obj
                [
                  ("marginal", nums r.marginal);
                  ("atoms", nums r.atoms);
                  ("mean_level", Json.Num r.mean_level);
                  ("reward_rate", Json.Num r.reward_rate);
                  ("tau", Json.Num r.tau);
                  ("iterations", Json.Num (float_of_int r.iterations));
                  ("residual", Json.Num r.residual);
                  ("regularized", Json.Num (float_of_int r.regularized));
                  ("points", Json.List (List.map point points));
                  ( "warnings",
                    Json.parse_exn (Diagnostics.report_to_json r.warnings) );
                ])));
    if List.exists (fun (w : Diagnostics.t) -> w.code = "MRM068") r.warnings
    then 1
    else 0
  in
  let run source drain regularize cr_eps max_iter ctmc validate points format
      obs =
    obs @@ fun () ->
    with_model ~cmd:"stationary" source
      ~rules:
        [
          diagnosed (Check.config_errors ~eps:cr_eps ~drain ?regularize ());
          rule (max_iter >= 1) "--max-iter %d must be >= 1" max_iter;
          finite_points points;
        ]
    @@ fun { Mrm_core.Model_io.model; _ } ->
    if ctmc then print_ctmc format model
    else
      match
        Mmbm.solve ~drain ?regularize ~eps:cr_eps ~max_iterations:max_iter
          ~validate model
      with
      | exception Mmbm.Error d ->
          Format.eprintf "mrm2 stationary: %a@." Mrm_check.Diagnostics.pp d;
          1
      | r -> print_result format points r
  in
  let term =
    Term.(
      const run $ source_arg $ drain $ regularize $ cr_eps $ max_iter $ ctmc
      $ validate $ points $ format_arg $ obs_term)
  in
  Cmd.v
    (Cmd.info "stationary"
       ~doc:
         "Stationary density of the accumulated-reward level (regulated \
          MMBM) by componentwise-accurate Cyclic Reduction: phase \
          marginal, mean level, steady reward rate and the \
          matrix-exponential density $(b,nu e^(Hx)). With $(b,--ctmc), \
          just the modulating chain's GTH stationary vector. Also \
          available as the $(b,stationary) job kind of $(b,mrm2 batch) / \
          $(b,mrm2 serve).")
    term

(* ------------------------------------------------------------------ *)
(* batch                                                               *)

let batch_cmd =
  let module Batch = Mrm_batch.Batch in
  let module Json = Mrm_util.Json in
  let file_or_stdin =
    let parse s =
      if s = "-" || Sys.file_exists s then Ok s
      else Error (`Msg (Printf.sprintf "no '%s' file or directory" s))
    in
    Arg.conv ~docv:"JOBS" (parse, Format.pp_print_string)
  in
  let input =
    Arg.(
      value
      & pos 0 (some file_or_stdin) None
      & info [] ~docv:"JOBS"
          ~doc:
            "JSONL job file, one spec per line ($(b,-) or no argument: read \
             standard input). See $(b,mrm2 batch --help) for the spec \
             fields.")
  in
  let run input eps jobs obs =
    obs @@ fun () ->
    with_rules ~cmd:"batch" [ jobs_rule jobs ] @@ fun () ->
    (* Stream the input: each line is parsed and validated as it is
       read, so a huge job file never sits in memory as raw text, and
       ids/diagnostics are numbered by the *original* input line (blank
       lines advance the counter without producing a job). *)
    let parse_lines ic =
      let jobs_rev = ref [] and bad_rev = ref [] and lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           let trimmed = String.trim line in
           if trimmed <> "" then begin
             let default_id = Printf.sprintf "job-%d" !lineno in
             let refuse id e =
               bad_rev :=
                 Printf.sprintf "line %d (%s): %s" !lineno id e :: !bad_rev
             in
             match Json.parse trimmed with
             | Error e -> refuse default_id e
             | Ok json -> (
                 match Batch.job_of_json ~default_id ~default_eps:eps json with
                 | Error e ->
                     refuse (Mrm_server.Protocol.id_of_json ~default_id json) e
                 | Ok job -> jobs_rev := job :: !jobs_rev)
           end
         done
       with End_of_file -> ());
      (List.rev !jobs_rev, List.rev !bad_rev)
    in
    let good, bad =
      match input with
      | None | Some "-" -> parse_lines stdin
      | Some path ->
          let ic = open_in path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> parse_lines ic)
    in
    match bad with
    | _ :: _ ->
        List.iter (Printf.eprintf "mrm2 batch: %s\n") bad;
        1
    | [] ->
        let jobs_array = Array.of_list good in
        let t0 = Unix.gettimeofday () in
        let outcomes =
          with_optional_pool ~jobs (fun pool ->
              Batch.run ?pool jobs_array)
        in
        let elapsed = Unix.gettimeofday () -. t0 in
        Array.iter
          (fun o -> print_endline (Json.to_string (Batch.outcome_to_json o)))
          outcomes;
        let count p =
          Array.fold_left (fun n o -> if p o then n + 1 else n) 0 outcomes
        in
        let unique = count (fun o -> Option.is_none o.Batch.duplicate_of) in
        let failed = count (fun o -> Result.is_error o.Batch.result) in
        Printf.eprintf
          "# batch: %d jobs (%d unique, %d reused), jobs = %d, %.3fs \
           wall-clock%s\n"
          (Array.length outcomes) unique
          (Array.length outcomes - unique)
          jobs elapsed
          (if failed = 0 then ""
           else Printf.sprintf ", %d FAILED" failed);
        if failed = 0 then 0 else 1
  in
  let term =
    Term.(
      const run $ input $ eps_arg
      $ jobs_arg ~default:Mrm_engine.Pool.recommended_jobs $ obs_term)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Solve a batch of jobs (JSONL in, JSONL out). Each input line \
          is an object with a model source ($(b,file), or $(b,model) \
          with $(b,sigma2)/$(b,size)), $(b,times) or $(b,t), and optional \
          $(b,id), $(b,order), $(b,eps) and $(b,kind) ($(b,moments), the \
          default, solved by randomization, or $(b,stationary) with \
          optional $(b,drain)/$(b,regularize) — no times needed); a \
          $(b,method) other than $(b,randomization) is refused. Structurally \
          identical jobs are solved once; duplicates reference the \
          representative in $(b,duplicate_of). Runs on every core by \
          default (override with $(b,--jobs) / $(b,MRM2_JOBS)).")
    term

(* ------------------------------------------------------------------ *)
(* serve / call                                                        *)

let parse_host_port spec =
  match String.rindex_opt spec ':' with
  | None -> Error (`Msg (Printf.sprintf "expected HOST:PORT, got %S" spec))
  | Some i -> (
      let host = String.sub spec 0 i in
      let port = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 -> Ok (host, p)
      | _ -> Error (`Msg (Printf.sprintf "bad port in %S" spec)))

let host_port_conv =
  Arg.conv ~docv:"HOST:PORT"
    ( parse_host_port,
      fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p )

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path of the solver service.")

(* Resolve the service endpoint from --socket / the TCP flag; exactly
   one must be given. *)
let endpoint_of ~tcp_flag socket tcp =
  match (socket, tcp) with
  | Some _, Some _ ->
      Error
        (Printf.sprintf "give either --socket or --%s, not both" tcp_flag)
  | Some path, None -> Ok (`Unix path)
  | None, Some (host, port) -> Ok (`Tcp (host, port))
  | None, None ->
      Error
        (Printf.sprintf "missing service endpoint (--socket or --%s)"
           tcp_flag)

let serve_cmd =
  let module Server = Mrm_server.Server in
  let listen =
    Arg.(
      value
      & opt (some host_port_conv) None
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:
            "Listen on TCP instead of a Unix socket (port $(b,0) picks a \
             free port, printed on startup).")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Cache misses that may wait while another one is solved (at \
             least 1); a miss beyond them is rejected with a structured \
             $(b,SRV002) error (backpressure). Cache hits never wait.")
  in
  let cache_entries =
    Arg.(
      value & opt int 256
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:"Result-cache entry cap (LRU eviction beyond it).")
  in
  let cache_mb =
    Arg.(
      value & opt int 64
      & info [ "cache-mb" ] ~docv:"MB"
          ~doc:"Result-cache size cap in MiB of stored response bytes.")
  in
  let run socket listen queue cache_entries cache_mb eps jobs obs =
    obs @@ fun () ->
    with_rules ~cmd:"serve" [ jobs_rule jobs ] @@ fun () ->
    match endpoint_of ~tcp_flag:"listen" socket listen with
    | Error msg ->
        Printf.eprintf "mrm2 serve: %s\n" msg;
        2
    | Ok endpoint ->
        let config =
          {
            (Server.default_config endpoint) with
            Server.queue_capacity = queue;
            cache_entries;
            cache_bytes = cache_mb * 1024 * 1024;
            pool_jobs = jobs;
            default_eps = eps;
          }
        in
        (* The "listening" line is printed only once the socket is bound
           and accepting — the serve-smoke driver polls for it. *)
        let on_ready = function
          | Unix.ADDR_UNIX path ->
              Printf.eprintf "mrm2 serve: listening on %s\n%!" path
          | Unix.ADDR_INET (addr, port) ->
              Printf.eprintf "mrm2 serve: listening on %s:%d\n%!"
                (Unix.string_of_inet_addr addr)
                port
        in
        match Server.run ~on_ready config with
        | code ->
            Printf.eprintf "mrm2 serve: drained, exiting\n%!";
            code
        | exception Invalid_argument msg ->
            Printf.eprintf "mrm2 serve: %s\n" msg;
            2
        | exception Unix.Unix_error (Unix.EADDRINUSE, _, what) ->
            Printf.eprintf
              "mrm2 serve: %s is in use by a live listener (or is not a \
               socket) — refusing to clobber it\n"
              (if what = "" then "the address" else what);
            1
  in
  let term =
    Term.(
      const run $ socket_arg $ listen $ queue $ cache_entries $ cache_mb
      $ eps_arg
      $ jobs_arg ~default:Mrm_engine.Pool.recommended_jobs
      $ obs_term)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident solver service: accept concurrent JSONL \
          connections on a Unix socket ($(b,--socket)) or TCP address \
          ($(b,--listen)), answer repeat jobs from an LRU result cache \
          keyed by the structural job digest, solve misses one at a time \
          and push back with structured errors when too many wait, honour \
          per-request $(b,deadline_s) budgets, and drain gracefully on \
          SIGTERM/SIGINT (in-flight solves finish, responses flush, exit \
          0).")
    term

let call_cmd =
  let module Client = Mrm_server.Client in
  let connect =
    Arg.(
      value
      & opt (some host_port_conv) None
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:"Connect to a TCP service instead of a Unix socket.")
  in
  let input =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"JOBS"
          ~doc:
            "JSONL job file, one spec per line ($(b,-) or no argument: \
             read standard input). Same fields as $(b,mrm2 batch), plus \
             optional $(b,deadline_s).")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Reconnect up to $(docv) consecutive times on a refused \
             connect or a connection cut mid-session, with capped \
             exponential backoff and jitter, resuming from the first \
             unanswered request.")
  in
  let timeout =
    Arg.(
      value & opt float 0.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-exchange send/receive budget; an expired wait counts \
             as a disconnect (and is retried under $(b,--retries)). \
             $(b,0) waits forever.")
  in
  let run socket connect retries timeout input =
    match endpoint_of ~tcp_flag:"connect" socket connect with
    | Error msg ->
        Printf.eprintf "mrm2 call: %s\n" msg;
        2
    | Ok endpoint -> (
        let on_retry ~attempt ~delay what =
          Printf.eprintf "mrm2 call: retry %d in %.2fs (%s)\n%!" attempt
            delay what
        in
        let session ic =
          Client.call ~retries ~timeout ~on_retry endpoint ~input:ic
            ~on_response:print_endline
        in
        let result =
          match input with
          | None | Some "-" -> begin
              match session stdin with
              | summary -> Ok summary
              | exception e -> Error e
            end
          | Some path -> begin
              match open_in path with
              | exception Sys_error msg -> Error (Sys_error msg)
              | ic ->
                  Fun.protect
                    ~finally:(fun () -> close_in ic)
                    (fun () ->
                      match session ic with
                      | summary -> Ok summary
                      | exception e -> Error e)
            end
        in
        match result with
        | Ok { Client.sent; errors; srv_errors; cache_hits; retries } ->
            Printf.eprintf
              "# call: %d request(s), %d cached, %d error(s), %d service \
               error(s), %d retry(ies)\n"
              sent cache_hits errors srv_errors retries;
            if srv_errors > 0 then 4 else if errors > 0 then 1 else 0
        | Error (Client.Disconnected what) ->
            Printf.eprintf "mrm2 call: server disconnected (%s)\n" what;
            3
        | Error (Unix.Unix_error (err, _, _)) ->
            Printf.eprintf "mrm2 call: cannot reach service: %s\n"
              (Unix.error_message err);
            3
        | Error (Sys_error msg) ->
            Printf.eprintf "mrm2 call: %s\n" msg;
            2
        | Error e -> raise e)
  in
  let term =
    Term.(const run $ socket_arg $ connect $ retries $ timeout $ input)
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:
         "Send a JSONL job stream to a running $(b,mrm2 serve) (or \
          $(b,mrm2 route)) and print the responses, one JSON object per \
          line, in request order. Transient transport failures are \
          retried under $(b,--retries) with capped exponential backoff \
          and jitter. Exits 0 when every response is $(b,status: ok), 1 \
          on solver errors, 3 when the service is unreachable (after \
          retries), 4 when any response is a structured $(b,SRV00x) \
          service error.")
    term

(* ------------------------------------------------------------------ *)
(* route / loadgen — the distributed serving tier                      *)

(* A backend/target address is either HOST:PORT (TCP) or a Unix socket
   path; the raw spec string doubles as the stable ring identity. *)
let addr_conv =
  let parse spec =
    if spec = "" then Error (`Msg "empty address")
    else
      match parse_host_port spec with
      | Ok (host, port) -> Ok (spec, `Tcp (host, port))
      | Error _ -> Ok (spec, `Unix spec)
  in
  let print ppf (spec, _) = Format.pp_print_string ppf spec in
  Arg.conv ~docv:"ADDR" (parse, print)

let route_cmd =
  let module Router = Mrm_cluster.Router in
  let listen =
    Arg.(
      value
      & opt (some host_port_conv) None
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:
            "Listen on TCP instead of a Unix socket (port $(b,0) picks a \
             free port, printed on startup).")
  in
  let backends =
    Arg.(
      non_empty & opt_all addr_conv []
      & info [ "backend" ] ~docv:"ADDR"
          ~doc:
            "A replica $(b,mrm2 serve) to route to: $(b,HOST:PORT) or a \
             Unix socket path. Repeatable; the address string is the \
             replica's identity on the hash ring, so keep it stable \
             across restarts to keep cache placement stable.")
  in
  let vnodes =
    Arg.(
      value & opt int 64
      & info [ "vnodes" ] ~docv:"V"
          ~doc:"Virtual nodes per backend on the consistent-hash ring.")
  in
  let probe_interval =
    Arg.(
      value & opt float 1.0
      & info [ "probe-interval" ] ~docv:"SECONDS"
          ~doc:"Seconds between health-probe rounds.")
  in
  let probe_timeout =
    Arg.(
      value & opt float 1.0
      & info [ "probe-timeout" ] ~docv:"SECONDS"
          ~doc:"Connect/read budget of a single health probe.")
  in
  let readmit_after =
    Arg.(
      value & opt int 2
      & info [ "readmit-after" ] ~docv:"N"
          ~doc:
            "Consecutive healthy probes before a downed replica rejoins \
             the ring.")
  in
  let max_inflight =
    Arg.(
      value & opt int 32
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Per-replica in-flight cap; requests beyond it are shed with \
             the structured $(b,SRV002) error instead of queueing.")
  in
  let max_attempts =
    Arg.(
      value & opt int 3
      & info [ "max-attempts" ] ~docv:"N"
          ~doc:
            "Forward attempts per request (failover hops) before \
             answering $(b,SRV006).")
  in
  let io_timeout =
    Arg.(
      value & opt float 30.
      & info [ "io-timeout" ] ~docv:"SECONDS"
          ~doc:"Per-forward send/receive budget against a backend.")
  in
  let run socket listen backends vnodes probe_interval probe_timeout
      readmit_after max_inflight max_attempts io_timeout eps obs =
    obs @@ fun () ->
    match endpoint_of ~tcp_flag:"listen" socket listen with
    | Error msg ->
        Printf.eprintf "mrm2 route: %s\n" msg;
        2
    | Ok listen_endpoint -> (
        let config =
          {
            (Router.default_config ~listen:listen_endpoint
               ~backends:(List.map (fun (spec, ep) -> (spec, ep)) backends))
            with
            Router.vnodes;
            probe_interval;
            probe_timeout;
            readmit_after;
            max_inflight;
            max_attempts;
            io_timeout;
            default_eps = eps;
          }
        in
        let on_ready = function
          | Unix.ADDR_UNIX path ->
              Printf.eprintf "mrm2 route: listening on %s (%d backends)\n%!"
                path (List.length backends)
          | Unix.ADDR_INET (addr, port) ->
              Printf.eprintf
                "mrm2 route: listening on %s:%d (%d backends)\n%!"
                (Unix.string_of_inet_addr addr)
                port (List.length backends)
        in
        match Router.run ~on_ready config with
        | code ->
            Printf.eprintf "mrm2 route: drained, exiting\n%!";
            code
        | exception Invalid_argument msg ->
            Printf.eprintf "mrm2 route: %s\n" msg;
            2
        | exception Unix.Unix_error (Unix.EADDRINUSE, _, what) ->
            Printf.eprintf
              "mrm2 route: %s is in use by a live listener (or is not a \
               socket) — refusing to clobber it\n"
              (if what = "" then "the address" else what);
            1)
  in
  let term =
    Term.(
      const run $ socket_arg $ listen $ backends $ vnodes $ probe_interval
      $ probe_timeout $ readmit_after $ max_inflight $ max_attempts
      $ io_timeout $ eps_arg $ obs_term)
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Run the cluster routing front-end over replica $(b,mrm2 serve) \
          backends: requests are placed by consistent hashing on the \
          structural job digest (so the per-replica result caches \
          compose into one sharded cache), failed or draining replicas \
          are failed over to ring successors and re-admitted after \
          consecutive healthy probes, and per-replica overload is shed \
          with structured $(b,SRV002) errors. Clients connect exactly as \
          they would to a single server; $(b,'{\"cluster\":\"stats\"}') \
          answers with router-side counters.")
    term

let loadgen_cmd =
  let module Loadgen = Mrm_cluster.Loadgen in
  let connect =
    Arg.(
      value
      & opt (some host_port_conv) None
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:"Target a TCP service instead of a Unix socket.")
  in
  let requests =
    Arg.(
      value & opt int 1000
      & info [ "requests" ] ~docv:"N"
          ~doc:"Total requests across all workers.")
  in
  let workers =
    Arg.(
      value & opt int 8
      & info [ "workers" ] ~docv:"W"
          ~doc:"Concurrent closed-loop client sessions.")
  in
  let keys =
    Arg.(
      value & opt int 50
      & info [ "keys" ] ~docv:"K"
          ~doc:"Distinct job specs in the workload's key pool.")
  in
  let skew =
    Arg.(
      value & opt float 1.0
      & info [ "skew" ] ~docv:"S"
          ~doc:
            "Key-popularity skew: key $(b,k) is drawn with weight \
             $(b,1/(k+1)^S); $(b,0) is uniform, larger is hotter.")
  in
  let size =
    Arg.(
      value & opt int 6
      & info [ "size" ] ~docv:"N"
          ~doc:"Model size ($(b,onoff) built-in) of every job.")
  in
  let order =
    Arg.(
      value & opt int 3
      & info [ "order" ] ~docv:"R" ~doc:"Highest moment order per job.")
  in
  let timeout =
    Arg.(
      value & opt float 60.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-exchange send/receive budget of each worker.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Also write the benchmark record to $(docv); it is always \
             printed to standard output.")
  in
  let run socket connect requests workers keys skew size order seed timeout
      out obs =
    obs @@ fun () ->
    match endpoint_of ~tcp_flag:"connect" socket connect with
    | Error msg ->
        Printf.eprintf "mrm2 loadgen: %s\n" msg;
        2
    | Ok endpoint -> (
        let config =
          {
            (Loadgen.default_config endpoint) with
            Loadgen.requests;
            workers;
            keys;
            skew;
            size;
            order;
            seed;
            io_timeout = timeout;
          }
        in
        match Loadgen.run config with
        | exception Invalid_argument msg ->
            Printf.eprintf "mrm2 loadgen: %s\n" msg;
            2
        | report ->
            let rendered = Mrm_util.Json.to_string report in
            print_endline rendered;
            (match out with
            | None -> ()
            | Some path ->
                let oc = open_out path in
                Fun.protect
                  ~finally:(fun () -> close_out oc)
                  (fun () ->
                    output_string oc rendered;
                    output_char oc '\n'));
            let field name =
              match
                Option.bind
                  (Mrm_util.Json.member name report)
                  Mrm_util.Json.to_float
              with
              | Some v -> v
              | None -> 0.
            in
            if field "ok" > 0. && field "dropped" <= 0. then 0 else 1)
  in
  let term =
    Term.(
      const run $ socket_arg $ connect $ requests $ workers $ keys $ skew
      $ size $ order $ seed_arg $ timeout $ out $ obs_term)
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Replay thousands of concurrent $(b,mrm2 call)-style closed-loop \
          sessions against a running $(b,mrm2 route) (or a single \
          $(b,mrm2 serve)) with configurable key skew, and print a \
          benchmark record: throughput, ok-latency percentiles \
          (p50/p95/p99), cache hit rate, shed rate — plus the router's \
          failover counters when the target is a router. Exits 0 when \
          every request was answered, 1 when any was dropped.")
    term

(* ------------------------------------------------------------------ *)
(* info                                                                *)

let info_cmd =
  let run source =
    with_model ~cmd:"info" ~impulses:true source
    @@ fun { Mrm_core.Model_io.model; impulses } ->
    Format.printf "%a@." Mrm_core.Model.pp model;
    let q =
      Mrm_ctmc.Generator.uniformization_rate
        (model : Mrm_core.Model.t).generator
    in
    Printf.printf "uniformization rate q = %g\n" q;
    Printf.printf "steady-state reward rate = %.8g\n"
      Mrm_core.Impulse.(reward_rate (make model impulses));
    0
  in
  let term = Term.(const run $ source_arg) in
  Cmd.v (Cmd.info "info" ~doc:"Print a model summary") term

let () =
  let doc = "second-order Markov reward model analysis (DSN 2004 methods)" in
  let root = Cmd.group (Cmd.info "mrm2" ~doc)
      [ moments_cmd; batch_cmd; serve_cmd; call_cmd; route_cmd;
        loadgen_cmd; bounds_cmd; distribution_cmd; simulate_cmd; path_cmd;
        mtta_cmd; fluid_cmd; stationary_cmd; info_cmd; lint_cmd ]
  in
  exit (Cmd.eval' root)

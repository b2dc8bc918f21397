(* lint-src: the source-level analyzer (Mrm_analysis) over this
   repository's own OCaml code. A developer check, kept out of the mrm2
   binary so that the product links neither mrm_analysis nor
   compiler-libs.

     dune exec lint/lint_src.exe -- --strict --baseline lint/src_baseline.txt

   Exit codes: 0 clean (or only baselined findings), 1 fresh errors
   (also fresh warnings with --strict), 2 a bad path, baseline or rule
   code or --update-baseline without --baseline, 124 a command-line
   error. *)

open Cmdliner
module Lint = Mrm_analysis.Lint
module Baseline = Mrm_analysis.Baseline
module Absint = Mrm_analysis.Absint
module Diagnostics = Mrm_check.Diagnostics

type format = Human | Sexp | Json | Github

let format_arg =
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

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"J"
        ~doc:
          "Worker domains for the per-file rules ($(b,1) = sequential). \
           Defaults to the $(b,MRM2_JOBS) environment variable when set."
        ~env:(Cmd.Env.info "MRM2_JOBS"))

let paths =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"PATHS"
        ~doc:
          "Files or directories to analyze (default: $(b,lib bin bench lint \
           test), relative to the current directory).")

let baseline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "Baseline file waiving pre-existing findings (format: CODE FILE \
           COUNT per line). Missing file = empty baseline.")

let update_arg =
  Arg.(
    value & flag
    & info [ "update-baseline" ]
        ~doc:
          "Rewrite the $(b,--baseline) file to waive exactly the current \
           findings, then exit 0.")

let strict =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Exit non-zero on fresh warnings, not just fresh errors \
           (baselined findings never fail).")

let blocking_arg =
  Arg.(
    value & opt_all string []
    & info [ "blocking" ] ~docv:"NAME"
        ~doc:
          "Treat calls to $(docv) (module-qualified, e.g. $(b,Db.query)) \
           as blocking for SRC011, in addition to the built-in frontier. \
           Repeatable.")

let fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "absint-fuel" ] ~docv:"STEPS"
        ~doc:
          "Per-function step budget for the abstract-interpretation pass \
           (SRC020-SRC024; default 100000). Exhaustion aborts the function \
           without a finding and is counted in the $(b,--strict) summary.")

let list_rules_arg =
  Arg.(
    value & flag
    & info [ "list-rules" ]
        ~doc:
          "Print the rule registry (code, severity, one-line description) \
           and exit.")

let explain_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "explain" ] ~docv:"CODE"
        ~doc:
          "Print one rule's full documentation — severity, explanation, \
           minimal firing example — and exit.")

let print_rules () =
  List.iter
    (fun (code, sev, line) ->
      Printf.printf "%s  %-7s  %s\n" code (Diagnostics.severity_label sev) line)
    Lint.rule_table;
  0

let explain code =
  match
    ( List.find_opt (fun (c, _, _) -> c = code) Lint.rule_table,
      List.find_opt (fun (c, _, _) -> c = code) Lint.rule_docs )
  with
  | Some (_, sev, line), Some (_, doc, example) ->
      Printf.printf "%s (%s) — %s\n\n%s\n\nexample (fires):\n  %s\n" code
        (Diagnostics.severity_label sev)
        line doc example;
      0
  | _ ->
      Printf.eprintf "lint-src: unknown rule %s (try --list-rules)\n" code;
      2

let analyze paths baseline_path update strict format jobs blocking fuel =
  let t0 = Unix.gettimeofday () in
  let files = Lint.discover paths in
  (* The lexer's global state makes parsing sequential; the per-file
     rules are pure parsetree functions, so they fan out across the
     pool. The whole-program passes (lockcheck, abstract interpretation)
     stay on the caller. *)
  let parsed = Lint.parse_files files in
  let per_file =
    if jobs > 1 then
      Mrm_engine.Pool.with_pool ~jobs (fun pool ->
          Mrm_engine.Pool.map_array pool Lint.analyze_parsed
            (Array.of_list parsed))
      |> Array.to_list |> List.concat
    else List.concat_map Lint.analyze_parsed parsed
  in
  let t_syn = Unix.gettimeofday () in
  let inter = Lint.interprocedural ~extra_blocking:blocking parsed in
  let t_lock = Unix.gettimeofday () in
  let ai_findings, ai_stats = Lint.absint ?fuel parsed in
  let t_ai = Unix.gettimeofday () in
  let findings =
    List.sort Lint.compare_finding (per_file @ inter @ ai_findings)
  in
  let site_count status =
    List.length
      (List.filter
         (fun (s : Absint.kernel_site) -> s.Absint.ks_status = status)
         ai_stats.Absint.st_sites)
  in
  let elapsed = t_ai -. t0 in
  if update then begin
    match baseline_path with
    | None ->
        prerr_endline "lint-src: --update-baseline needs --baseline";
        2
    | Some path ->
        let previous =
          if Sys.file_exists path then
            match Baseline.load path with Ok b -> b | Error _ -> []
          else []
        in
        let { Baseline.fresh; waived; stale } =
          Baseline.apply previous findings
        in
        Baseline.save path (Baseline.of_findings findings);
        Printf.printf "baseline: %d finding(s) across %d file(s) -> %s\n"
          (List.length findings)
          (List.length
             (List.sort_uniq compare
                (List.map (fun f -> f.Lint.file) findings)))
          path;
        Printf.printf
          "baseline delta: %d newly waived, %d carried over, %d stale \
           allowance(s) dropped\n"
          (List.length fresh) (List.length waived) (List.length stale);
        0
  end
  else begin
    let baseline =
      match baseline_path with
      | Some path when Sys.file_exists path -> begin
          match Baseline.load path with
          | Ok b -> b
          | Error msg ->
              Printf.eprintf "lint-src: bad baseline %s: %s\n" path msg;
              exit 2
        end
      | _ -> Baseline.empty
    in
    let { Baseline.fresh; waived; stale } = Baseline.apply baseline findings in
    let report = List.map Lint.to_diagnostic fresh in
    (match format with
    | Human ->
        Format.printf "%a" Diagnostics.pp_report report;
        if waived <> [] then
          Format.printf "%d baselined finding(s) waived@." (List.length waived);
        List.iter
          (fun (e : Baseline.entry) ->
            Format.printf
              "note: stale baseline allowance %s %s %d (finding gone — \
               regenerate with --update-baseline)@."
              e.code e.file e.count)
          stale;
        if strict then begin
          Format.printf
            "lint-src: %d file(s) in %.2fs (%d job(s); syntactic %.2fs, \
             lockcheck %.2fs, absint %.2fs)@."
            (List.length files) elapsed jobs (t_syn -. t0) (t_lock -. t_syn)
            (t_ai -. t_lock);
          Format.printf
            "lint-src: kernel sites: %d proven, %d flagged, %d unknown (%d \
             function(s) analyzed, %d fuel-exhausted)@."
            (site_count Absint.Proven)
            (site_count Absint.Flagged)
            (site_count Absint.Unknown)
            ai_stats.Absint.st_functions ai_stats.Absint.st_fuel_exhausted;
          let by_rule =
            List.fold_left
              (fun acc (f : Lint.finding) ->
                match List.assoc_opt f.Lint.code acc with
                | Some n ->
                    (f.Lint.code, n + 1) :: List.remove_assoc f.Lint.code acc
                | None -> (f.Lint.code, 1) :: acc)
              [] findings
            |> List.sort compare
          in
          if by_rule <> [] then
            Format.printf "lint-src: findings by rule:%s@."
              (String.concat ""
                 (List.map (fun (c, n) -> Printf.sprintf " %s x%d" c n) by_rule))
        end
    | Sexp -> print_endline (Diagnostics.report_to_sexp report)
    | Json -> print_endline (Diagnostics.report_to_json report)
    | Github ->
        if report <> [] then print_endline (Diagnostics.report_to_github report));
    if Diagnostics.has_errors report then 1
    else if strict && Diagnostics.count Diagnostics.Warning report > 0 then 1
    else 0
  end

let run paths baseline_path update strict format jobs blocking fuel list_rules
    explain_code =
  if list_rules then print_rules ()
  else
    match explain_code with
    | Some code -> explain code
    | None -> (
        let paths =
          match paths with
          | [] -> [ "lib"; "bin"; "bench"; "lint"; "test" ]
          | ps -> ps
        in
        match List.filter (fun p -> not (Sys.file_exists p)) paths with
        | _ :: _ as missing ->
            Printf.eprintf "lint-src: no such path: %s\n"
              (String.concat ", " missing);
            2
        | [] ->
            analyze paths baseline_path update strict format jobs blocking
              fuel)

let () =
  let term =
    Term.(
      const run $ paths $ baseline_arg $ update_arg $ strict $ format_arg
      $ jobs_arg $ blocking_arg $ fuel_arg $ list_rules_arg $ explain_arg)
  in
  let info =
    Cmd.info "lint-src"
      ~doc:
        "Statically analyze the project's own OCaml sources (SRC0xx \
         diagnostics): float equality, polymorphic comparison in hot paths, \
         unsafe escapes, exception swallowing, non-atomic shared writes in \
         parallel jobs, stray terminal output, and the interprocedural \
         concurrency rules (lock leaks, blocking under a lock, lock-order \
         cycles, unguarded shared state, condition discipline), plus an \
         abstract-interpretation pass that proves kernel write ranges and \
         flags numeric hazards (division by possible zero, out-of-bounds \
         indices, NaN comparisons, escaping probabilities). Deliberate \
         exceptions are waived with (* mrm:ignore SRC001 -- reason *) \
         comments or a checked-in baseline."
  in
  exit (Cmd.eval' (Cmd.v info term))

(* The perf ledger (README.md in this directory).

     ledger run --workload W --seed N --seconds S --trace 0|1
                [--mrm2 EXE] [--record FILE]
     ledger compare [--benchmark BENCHMARK.json] BASE NEW
     ledger smoke --mrm2 EXE --benchmark BENCHMARK.json
     ledger reference > bench/ledger/reference.json

   `run` measures one workload and prints each metric with its unit,
   then, as its last line, {"correct", "attempted", "failed", "metrics"};
   a failed output check makes it exit 1. It runs pinned to one CPU, and
   so do the mrm2 processes it starts (Host.pin). --trace 1 reports the
   per-layer metrics instead of the end-to-end ones and writes the
   ledger's spans to .ledger/trace/. --record appends the full record,
   with host facts, to FILE. *)

module Json = Mrm_util.Json

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("ledger: " ^ m); exit 2) fmt

(* "--flag value" pairs and positional arguments. *)
let parse_args args =
  let rec go flags pos = function
    | [] -> (List.rev flags, List.rev pos)
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((String.sub flag 2 (String.length flag - 2), value) :: flags) pos rest
    | [ flag ] when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        die "%s needs a value" flag
    | arg :: rest -> go flags (arg :: pos) rest
  in
  go [] [] args

let flag flags name ~default =
  Option.value ~default (List.assoc_opt name flags)

let int_flag flags name ~default =
  match int_of_string_opt (flag flags name ~default:(string_of_int default)) with
  | Some v -> v
  | None -> die "--%s expects an integer" name

let absolute path =
  if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (name, value, unit_) ->
         (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit_) ]))
       metrics)

(* One measurement in this process: the outcome, or the exception text
   when the workload could not run at all. *)
let measure (cfg : Workload.config) spans name =
  Mrm_obs.Trace.set_sink Mrm_obs.Trace.Null;
  Fun.protect ~finally:Cluster.stop_all (fun () ->
      match Workload.run cfg spans name with
      | outcome -> Ok outcome
      | exception (Failure msg | Invalid_argument msg | Sys_error msg) -> Error msg
      | exception Unix.Unix_error (e, fn, arg) ->
          Error (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e)))

let run_cmd flags =
  let workload = flag flags "workload" ~default:"" in
  if not (List.mem workload Workload.names) then
    die "--workload must be one of %s" (String.concat ", " Workload.names);
  let seed = int_flag flags "seed" ~default:1 in
  let seconds = int_flag flags "seconds" ~default:20 in
  let traced =
    match flag flags "trace" ~default:"0" with
    | "0" -> false
    | "1" -> true
    | _ -> die "--trace expects 0 or 1"
  in
  let mrm2 = absolute (flag flags "mrm2" ~default:"_build/default/bin/mrm2.exe") in
  if not (Sys.file_exists mrm2) then die "no mrm2 executable at %s" mrm2;
  let record = Option.map absolute (List.assoc_opt "record" flags) in
  let cfg =
    { Workload.seed; seconds = float_of_int seconds; traced; mrm2; smoke = false }
  in
  let spans = Spans.create ~enabled:traced in
  let cpu = Host.pin () in
  match measure cfg spans workload with
  | Error msg ->
      prerr_endline ("ledger: " ^ workload ^ " failed: " ^ msg);
      1
  | Ok o ->
      let correct = o.Workload.problems = [] in
      List.iter (fun p -> prerr_endline ("ledger: check failed: " ^ p)) o.Workload.problems;
      List.iter
        (fun (name, value, unit_) -> Printf.printf "%-34s %14.6g %s\n" name value unit_)
        o.Workload.metrics;
      if traced then begin
        let dir = Filename.concat Cluster.scratch "trace" in
        Cluster.mkdir_p dir;
        let path = Filename.concat dir (Printf.sprintf "%s-seed%d.jsonl" workload seed) in
        Spans.write spans path;
        Printf.printf "%d spans written to %s\n" (Spans.count spans) path
      end;
      let result =
        [
          ("correct", Json.Bool correct);
          ("attempted", Json.Num (float_of_int o.Workload.attempted));
          ("failed", Json.Num (float_of_int o.Workload.failed));
          ("metrics", metrics_json o.Workload.metrics);
        ]
      in
      Option.iter
        (fun path ->
          let full =
            Json.Obj
              ([ ("workload", Json.Str workload); ("seed", Json.Num (float_of_int seed));
                 ("seconds", Json.Num (float_of_int seconds)); ("trace", Json.Bool traced) ]
              @ result
              @ [
                  ( "fail_ratio",
                    Json.Num
                      (float_of_int o.Workload.failed
                      /. float_of_int (max 1 o.Workload.attempted)) );
                  ("info", Json.Obj o.Workload.info);
                  ( "host",
                    Host.facts ~connections:(Workload.connections_of workload) ~cpu ~seed );
                ])
          in
          Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 path (fun oc ->
              output_string oc (Json.to_string full);
              output_char oc '\n'))
        record;
      print_endline (Json.to_string (Json.Obj result));
      if correct then 0 else 1

(* ------------------------------------------------------------------ *)
(* smoke: the tier-1 test *)

let smoke flags =
  let mrm2 = absolute (flag flags "mrm2" ~default:"") in
  let gated, per_layer = Compare.benchmark (flag flags "benchmark" ~default:"BENCHMARK.json") in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let expect_metrics label (o : Workload.outcome) wanted =
    List.iter
      (fun (name, unit_) ->
        match List.find_opt (fun (n, _, _) -> n = name) o.Workload.metrics with
        | None -> fail "%s: metric %s not emitted" label name
        | Some (_, v, u) ->
            if u <> unit_ then fail "%s: %s has unit %s, not %s" label name u unit_;
            if Float.is_nan v then fail "%s: %s is nan" label name)
      wanted
  in
  let g o = List.assoc_opt "G" o.Workload.info in
  List.iter
    (fun workload ->
      let go ~seed ~traced =
        let cfg =
          { Workload.seed; seconds = 0.3; traced; mrm2; smoke = true }
        in
        let label = Printf.sprintf "%s seed %d%s" workload seed (if traced then " traced" else "") in
        let result, seconds =
          Spans.time (fun () -> measure cfg (Spans.create ~enabled:traced) workload)
        in
        Printf.printf "%s: %.2f s\n%!" label seconds;
        match result with
        | Error msg ->
            fail "%s: %s" label msg;
            None
        | Ok o ->
            List.iter (fun p -> fail "%s: %s" label p) o.Workload.problems;
            if o.Workload.attempted < 1 then fail "%s: nothing attempted" label;
            Some (label, o)
      in
      let a = go ~seed:1 ~traced:false and b = go ~seed:2 ~traced:false in
      let t = go ~seed:1 ~traced:true in
      Option.iter
        (fun (label, o) ->
          expect_metrics label o
            (List.map (fun (x : Compare.gated) -> (x.Compare.name, x.Compare.unit_)) gated))
        a;
      Option.iter (fun (label, o) -> expect_metrics label o per_layer) t;
      match (a, b) with
      | Some (_, oa), Some (_, ob) ->
          if g oa = None || g oa <> g ob then
            fail "%s: per-family G differs between seeds 1 and 2" workload
      | _ -> ())
    Workload.names;
  (* compare: a set against itself passes, and a p50 worse by twice its
     bound fails *)
  let record p50 =
    {
      Compare.workload = "w";
      traced = false;
      attempted = 10;
      failed = 0;
      metrics =
        List.map
          (fun (g : Compare.gated) ->
            (g.Compare.name, if g.Compare.name = "p50_ms" then p50 else 1.))
          gated;
    }
  in
  let p50s = [ 10.; 10.1; 9.9; 10.05; 9.95 ] in
  let base = List.map record p50s in
  let p50_bound =
    List.fold_left
      (fun acc (g : Compare.gated) -> if g.Compare.name = "p50_ms" then g.Compare.bound else acc)
      0. gated
  in
  let slower = List.map (fun p -> record ((1. +. (2. *. p50_bound)) *. p)) p50s in
  let worse rows = List.exists (fun (r : Compare.row) -> r.Compare.verdict = Compare.Worse) rows in
  if worse (Compare.rows gated ~base ~next:base) then fail "compare: a self-compare reports worse";
  if not (worse (Compare.rows gated ~base ~next:slower)) then
    fail "compare: a p50 worse by twice its bound is not flagged";
  match List.rev !failures with
  | [] ->
      print_endline "ledger smoke: all checks passed";
      0
  | fs ->
      List.iter (fun f -> prerr_endline ("ledger smoke: " ^ f)) fs;
      1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* An interrupted run still drains the processes it started. *)
  let interrupted = Sys.Signal_handle (fun _ -> exit 3) in
  Sys.set_signal Sys.sigterm interrupted;
  Sys.set_signal Sys.sigint interrupted;
  at_exit Cluster.stop_all;
  let code =
    match List.tl (Array.to_list Sys.argv) with
    | "run" :: args -> run_cmd (fst (parse_args args))
    | "compare" :: args -> (
        match parse_args args with
        | flags, [ base; next ] ->
            Compare.main
              ~benchmark_path:(flag flags "benchmark" ~default:"BENCHMARK.json")
              ~base ~next
        | _ -> die "usage: ledger compare [--benchmark FILE] BASE NEW")
    | "smoke" :: args -> smoke (fst (parse_args args))
    | [ "reference" ] ->
        print_endline (Json.to_string (Workload.reference_json ()));
        0
    | _ -> die "usage: ledger run|compare|smoke|reference ... (see README.md)"
  in
  exit code

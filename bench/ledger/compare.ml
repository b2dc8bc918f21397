(* `ledger compare BASE NEW`: the regression gate. BASE and NEW are run
   records (JSONL files, or directories of them); each gated metric's
   bound comes from BENCHMARK.json. Per (metric, workload) it prints both
   sides' median and quartiles and a verdict:
   - unresolved: a side's quartile spread is wider than the bound, and
     not every NEW run beats every BASE run (then: better);
   - worse: the NEW median is worse than the BASE median by more than
     the bound;
   - better: it is better by more than BASE's own spread;
   - same: otherwise.
   It fails on any worse verdict and on a higher fail ratio. *)

module Json = Mrm_util.Json

type record = {
  workload : string;
  traced : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

type gated = { name : string; unit_ : string; lower_is_better : bool; bound : float }

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let field name json = Json.member name json

let str name json = Option.bind (field name json) Json.to_str
let number name json = Option.bind (field name json) Json.to_float

let record_of_json json =
  let metrics =
    match field "metrics" json with
    | Some (Json.Obj fields) ->
        List.filter_map
          (fun (name, m) -> Option.map (fun v -> (name, v)) (number "value" m))
          fields
    | _ -> []
  in
  match (str "workload" json, number "attempted" json, number "failed" json) with
  | Some workload, Some attempted, Some failed ->
      Some
        {
          workload;
          traced = Option.value ~default:false (Option.bind (field "trace" json) Json.to_bool);
          attempted = int_of_float attempted;
          failed = int_of_float failed;
          metrics;
        }
  | _ -> None

let records_of_file path =
  String.split_on_char '\n' (Host.read_file path)
  |> List.filter_map (fun line ->
         if String.trim line = "" then None
         else
           match Json.parse line with
           | Ok json -> record_of_json json
           | Error e -> failwith (Printf.sprintf "%s: %s" path e))

let load path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
    |> List.concat_map (fun f -> records_of_file (Filename.concat path f))
  else records_of_file path

(* The end_to_end and per_layer entries of BENCHMARK.json. *)
let benchmark path =
  let json = Json.parse_exn (Host.read_file path) in
  let entries key =
    Option.value ~default:[] (Option.bind (field key json) Json.to_list)
  in
  let gated =
    List.filter_map
      (fun e ->
        match (str "name" e, str "unit" e, str "better" e, number "bound" e) with
        | Some name, Some unit_, Some better, Some bound ->
            Some { name; unit_; lower_is_better = better = "lower"; bound }
        | _ -> None)
      (entries "end_to_end")
  in
  let per_layer =
    List.filter_map
      (fun e ->
        match (str "name" e, str "unit" e) with
        | Some name, Some unit_ -> Some (name, unit_)
        | _ -> None)
      (entries "per_layer")
  in
  (gated, per_layer)

let verdict g ~base ~next =
  let _, m0, _ = Stats.quartiles base and _, m1, _ = Stats.quartiles next in
  (* positive when NEW is worse *)
  let sign = if g.lower_is_better then 1. else -1. in
  let change = sign *. (m1 -. m0) /. Float.max 1e-300 (Float.abs m0) in
  let beats a b = if g.lower_is_better then a < b else a > b in
  let all_better =
    Array.for_all (fun n -> Array.for_all (fun b -> beats n b) base) next
  in
  if Float.max (Stats.spread base) (Stats.spread next) > g.bound then
    if all_better then Better else Unresolved
  else if change > g.bound then Worse
  else if -.change > Stats.spread base then Better
  else Same

let untraced records workload =
  List.filter (fun r -> (not r.traced) && r.workload = workload) records

let values records name =
  Array.of_list (List.filter_map (fun r -> List.assoc_opt name r.metrics) records)

let fail_ratio records =
  let attempted = List.fold_left (fun acc r -> acc + r.attempted) 0 records in
  let failed = List.fold_left (fun acc r -> acc + r.failed) 0 records in
  float_of_int failed /. float_of_int (max 1 attempted)

type row = {
  workload : string;
  metric : gated;
  base : float array;
  next : float array;
  verdict : verdict;
}

let rows gated ~base ~next =
  let workloads =
    List.sort_uniq String.compare
      (List.map (fun (r : record) -> r.workload) (base @ next))
  in
  List.concat_map
    (fun workload ->
      List.filter_map
        (fun g ->
          let b = values (untraced base workload) g.name in
          let n = values (untraced next workload) g.name in
          if Array.length b = 0 || Array.length n = 0 then None
          else Some { workload; metric = g; base = b; next = n; verdict = verdict g ~base:b ~next:n })
        gated)
    workloads

(* Workloads whose fail ratio rose: (workload, base ratio, new ratio). *)
let failing ~base ~next =
  List.filter_map
    (fun workload ->
      let b = fail_ratio (untraced base workload) and n = fail_ratio (untraced next workload) in
      if n > b then Some (workload, b, n) else None)
    (List.sort_uniq String.compare (List.map (fun (r : record) -> r.workload) next))

let print_rows rows =
  let q xs =
    let q1, q2, q3 = Stats.quartiles xs in
    Printf.sprintf "%.4g [%.4g, %.4g] n=%d" q2 q1 q3 (Array.length xs)
  in
  Printf.printf "%-11s %-17s %-8s %-34s %-34s %8s  %s\n" "workload" "metric" "bound"
    "base median [q1, q3]" "new median [q1, q3]" "change" "verdict";
  List.iter
    (fun r ->
      let _, m0, _ = Stats.quartiles r.base and _, m1, _ = Stats.quartiles r.next in
      Printf.printf "%-11s %-17s %-8s %-34s %-34s %+7.1f%%  %s\n" r.workload
        (r.metric.name ^ " " ^ r.metric.unit_)
        (Printf.sprintf "%.0f%%" (100. *. r.metric.bound))
        (q r.base) (q r.next)
        (100. *. (m1 -. m0) /. Float.max 1e-300 (Float.abs m0))
        (verdict_name r.verdict))
    rows

let main ~benchmark_path ~base ~next =
  let gated, _ = benchmark benchmark_path in
  let base = load base and next = load next in
  let rows = rows gated ~base ~next in
  print_rows rows;
  let worse = List.filter (fun r -> r.verdict = Worse) rows in
  let failing = failing ~base ~next in
  List.iter
    (fun (w, b, n) -> Printf.printf "%s: fail ratio rose from %g to %g\n" w b n)
    failing;
  if worse = [] && failing = [] then 0 else 1

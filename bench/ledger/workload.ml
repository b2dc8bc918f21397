(* The four workloads. Each builds its inputs from the seed, measures
   for the run's length, checks every output it can afford to, and
   returns the end-to-end metrics (untraced) or the per-layer metrics
   (traced). The seed decides which keys are used and in what order,
   never what a job costs. *)

module Json = Mrm_util.Json
module Rng = Mrm_util.Rng
module Vec = Mrm_linalg.Vec
module Model = Mrm_core.Model
module R = Mrm_core.Randomization
module Moment_bounds = Mrm_core.Moment_bounds
module Onoff = Mrm_models.Onoff
module Batch = Mrm_batch.Batch
module Loadgen = Mrm_cluster.Loadgen

type config = {
  seed : int;
  seconds : float;
  traced : bool;
  mrm2 : string;  (** the mrm2 executable *)
  smoke : bool;  (** tiny sizes, for the tier-1 test *)
}

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** failed output checks; empty when correct *)
  metrics : Probes.metric list;
  info : (string * Json.t) list;
}

let names = [ "ramp"; "bounds"; "serve-hot"; "serve-cold" ]


let ms s = 1000. *. s
let num x = Json.Num x
let int_num k = Json.Num (float_of_int k)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int_below rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let unconditional (model : Model.t) vectors =
  Array.map (fun v -> Vec.dot model.Model.initial v) vectors

(* The tail is not among these: on the same code the p99 of ten runs
   spread by 0.2-0.35 of its median on bounds, ramp and serve-cold,
   beyond any bound the gate allows, so it is a traced-run metric. *)
let end_to_end ~setups ~jobs ~ok ~elapsed ~rss_kb =
  [
    ("setup_s", Stats.median setups, "s");
    ("p50_ms", ms (Stats.median jobs), "ms");
    ("throughput_per_s", float_of_int ok /. Float.max 1e-9 elapsed, "jobs/s");
    ("peak_rss_mb", float_of_int rss_kb /. 1024., "MB");
  ]

(* The metrics a traced run adds from its own jobs: the tail of the
   untraced ones, and p50 of the traced jobs over p50 of the untraced
   ones, minus one. *)
let traced_jobs ~traced ~plain =
  if Array.length traced = 0 || Array.length plain = 0 then
    failwith "trace overhead: a traced run needs traced and untraced jobs";
  [
    ("latency.p99_ms", ms (Stats.percentile plain 0.99), "ms");
    ("trace.overhead_frac", (Stats.median traced /. Stats.median plain) -. 1., "fraction");
  ]

(* Set-up is repeated and its median reported, so a few slow starts do
   not move the metric. [compact] starts each repetition from a
   compacted heap, so garbage from earlier ones cannot raise the peak
   resident set. *)
let setup_reps cfg = if cfg.smoke then 1 else 11

let timed_setups cfg ~compact f =
  Array.init (setup_reps cfg) (fun _ ->
      if compact then Gc.compact ();
      snd (Spans.time f))

(* ------------------------------------------------------------------ *)
(* ramp: the Table-2 model's shared five-point sweep *)

let ramp_times = [| 0.01; 0.02; 0.03; 0.04; 0.05 |]
let ramp_order = 3
let ramp_eps = 1e-9
(* 6,001 states: a solve of about 0.3 s, so a run times some sixty, and
   a working set of about 1.5 MB, inside the 2 MiB L2 of the machine the
   results come from. At 40,001 states a solve took 9-10 s, a run held
   two, and their median moved by a quarter between runs; at 12,001
   states (3 MB, in the L3 other tenants share) one run in ten solved
   60% slower than the rest. *)
let ramp_sources ~smoke = if smoke then 400 else 6_000
let ramp_model ~sources = Onoff.model (Onoff.scaled_table2 ~sources)

let ramp_case ~sources =
  {
    Probes.label = "ramp";
    model = ramp_model ~sources;
    times = ramp_times;
    order = ramp_order;
    eps = ramp_eps;
  }

(* Unconditional moments m0..m3 at each ramp time, as hex floats, for
   each size the ledger runs; `ledger reference` regenerates the file. *)
let reference_json () =
  let size sources =
    let case = ramp_case ~sources in
    let results = Probes.solve case in
    ( string_of_int sources,
      Json.List
        (Array.to_list
           (Array.mapi
              (fun k t ->
                Json.Obj
                  [
                    ("t", Json.Str (Printf.sprintf "%h" t));
                    ( "moments",
                      Json.List
                        (Array.to_list
                           (Array.map
                              (fun m -> Json.Str (Printf.sprintf "%h" m))
                              (unconditional case.Probes.model
                                 results.(k).R.moments))) );
                  ])
              ramp_times)) )
  in
  Json.Obj
    [
      ("eps", num ramp_eps);
      ("order", int_num ramp_order);
      ("ramp", Json.Obj [ size (ramp_sources ~smoke:true); size (ramp_sources ~smoke:false) ]);
    ]

let reference ~sources =
  let hex j = Option.bind (Json.to_str j) float_of_string_opt in
  let entries =
    Option.bind (Json.member "ramp" (Json.parse_exn Reference_data.json))
      (Json.member (string_of_int sources))
  in
  match Option.bind entries Json.to_list with
  | None -> failwith (Printf.sprintf "reference.json has no ramp size %d" sources)
  | Some items ->
      List.map
        (fun item ->
          let t = Option.bind (Json.member "t" item) hex in
          let ms =
            Option.bind (Json.member "moments" item) Json.to_list
            |> Option.map (List.filter_map hex)
          in
          match (t, ms) with
          | Some t, Some ms -> (t, Array.of_list ms)
          | _ -> failwith "reference.json: malformed ramp entry")
        items

let check_ramp ~model ~reference ~times results =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun k t ->
            let r = results.(k) in
            let got = unconditional model r.R.moments in
            let want =
              match List.find_opt (fun (t', _) -> Float.equal t t') reference with
              | Some (_, want) -> want
              | None -> [||]
            in
            let mismatch =
              Array.length want <> Array.length got
              || Array.exists2
                   (fun a b ->
                     Float.abs (a -. b) > 1e-12 *. Float.max (Float.abs a) (Float.abs b))
                   got want
            in
            (if mismatch then
               [ Printf.sprintf "ramp t=%g: moments differ from reference.json" t ]
             else [])
            @
            if r.R.diagnostics.R.log_error_bound > log ramp_eps then
              [ Printf.sprintf "ramp t=%g: eq. 11 bound above eps" t ]
            else [])
          times))

let ramp cfg spans =
  let sources = ramp_sources ~smoke:cfg.smoke in
  let setups = timed_setups cfg ~compact:true (fun () -> ignore (ramp_model ~sources)) in
  let reference = reference ~sources in
  let times = shuffle (Rng.create ~seed:(Int64.of_int cfg.seed) ()) (Array.copy ramp_times) in
  let case = { (ramp_case ~sources) with Probes.times } in
  (* Start another solve only when it should end inside the run; a
     traced run needs one traced and one untraced solve. Each solve is
     checked as soon as it ends and only its diagnostics are kept, so
     the peak resident set does not grow with the number of solves. *)
  let min_solves = if cfg.traced then 2 else 1 in
  let started = Unix.gettimeofday () in
  let rec loop i acc =
    let elapsed = Unix.gettimeofday () -. started in
    let last = match acc with (_, _, s, _) :: _ -> s | [] -> 0. in
    if i >= min_solves && elapsed +. last > cfg.seconds then List.rev acc
    else begin
      let traced = cfg.traced && i land 1 = 1 in
      Gc.compact ();
      let results, seconds =
        if traced then
          Spans.span spans "ledger.solve" (fun _ -> Probes.solve case)
        else Spans.time (fun () -> Probes.solve case)
      in
      let check = check_ramp ~model:case.Probes.model ~reference ~times results in
      let diagnostics = Array.map (fun r -> { r with R.moments = [||] }) results in
      loop (i + 1) ((traced, diagnostics, seconds, check) :: acc)
    end
  in
  let solves = loop 0 [] in
  let elapsed = Unix.gettimeofday () -. started in
  let checks = List.map (fun (_, _, _, check) -> check) solves in
  let problems = List.concat checks in
  let seconds which = Array.of_list (List.filter_map which solves) in
  let all = seconds (fun (_, _, s, _) -> Some s) in
  let first_results = match solves with (_, r, _, _) :: _ -> r | [] -> [||] in
  let info =
    [
      ("solves", int_num (List.length solves));
      ( "G",
        Json.Obj
          (List.sort compare
             (Array.to_list
                (Array.mapi
                   (fun k t ->
                     ( Printf.sprintf "t=%g" t,
                       int_num first_results.(k).R.diagnostics.R.iterations ))
                   times))) );
    ]
  in
  let metrics, more_problems, more_info =
    if not cfg.traced then
      ( end_to_end ~setups ~jobs:all ~ok:(List.length solves) ~elapsed
          ~rss_kb:(Host.vm_hwm_kb 0),
        [],
        [] )
    else
      let traced = seconds (fun (t, _, s, _) -> if t then Some s else None) in
      let plain = seconds (fun (t, _, s, _) -> if t then None else Some s) in
      let m, p, i =
        Probes.solver spans case
          ~measured:(Some (first_results, Stats.median plain))
          ~smoke:cfg.smoke
      in
      (traced_jobs ~traced ~plain @ m, p, i)
  in
  {
    attempted = List.length solves;
    failed = List.length (List.filter (fun c -> c <> []) checks);
    problems = problems @ more_problems;
    metrics;
    info = info @ more_info;
  }

(* ------------------------------------------------------------------ *)
(* bounds: the Figures 5-7 pipeline *)

let bounds_sigmas = [| 0.; 1.; 10. |]
let bounds_t = 0.5
let bounds_order = 23
let bounds_eps = 1e-9

(* Moments surviving the binary64 positive-definiteness reduction: the
   sigma^2 = 0 sequence loses ten of its 23. *)
let bounds_used = [| 13; 23; 23 |]

let bounds_models () =
  Array.map (fun sigma2 -> Onoff.model (Onoff.table1 ~sigma2)) bounds_sigmas

(* The 13 evaluation points: the mean +- 3 standard deviations in half
   steps. *)
let bounds_points moments =
  let mean = moments.(1) in
  let std = sqrt (Float.max 0. (moments.(2) -. (mean *. mean))) in
  Array.init 13 (fun k -> mean +. ((float_of_int k -. 6.) /. 2. *. std))

type pass_result = {
  sigma : int;
  solve : R.result;
  prepared : Moment_bounds.t;
  cdf : Moment_bounds.bound array;
}

(* One pass: every variance in the seed's order. In a traced pass each
   library call runs in a span under the pass's span. *)
let bounds_pass ~spans ~traced ~models rng =
  let call parent name f =
    if traced then fst (Spans.span spans ~parent name (fun _ -> f ())) else f ()
  in
  let run parent =
    Array.map
      (fun s ->
        let model = models.(s) in
        let solve =
          call parent "randomization.moments" (fun () ->
              R.moments ~eps:bounds_eps model ~t:bounds_t ~order:bounds_order)
        in
        let moments = unconditional model solve.R.moments in
        let prepared =
          call parent "moment_bounds.prepare" (fun () -> Moment_bounds.prepare moments)
        in
        let points = shuffle rng (bounds_points moments) in
        let cdf =
          call parent "moment_bounds.cdf_bounds" (fun () ->
              Array.map (Moment_bounds.cdf_bounds prepared) points)
        in
        { sigma = s; solve; prepared; cdf })
      (shuffle rng [| 0; 1; 2 |])
  in
  if traced then Spans.span spans "ledger.pass" run
  else Spans.time (fun () -> run 0)

let check_pass results =
  List.concat_map
    (fun r ->
      let label = Printf.sprintf "bounds sigma2=%g" bounds_sigmas.(r.sigma) in
      let sorted = Array.copy r.cdf in
      Array.sort
        (fun a b -> Float.compare a.Moment_bounds.point b.Moment_bounds.point)
        sorted;
      let bad_range =
        Array.exists
          (fun b ->
            not
              (0. <= b.Moment_bounds.lower
              && b.Moment_bounds.lower <= b.Moment_bounds.upper
              && b.Moment_bounds.upper <= 1.))
          sorted
      in
      let monotone = ref true in
      for k = 1 to Array.length sorted - 1 do
        let prev = sorted.(k - 1) and cur = sorted.(k) in
        if cur.Moment_bounds.lower < prev.Moment_bounds.lower -. 1e-12
           || cur.Moment_bounds.upper < prev.Moment_bounds.upper -. 1e-12
        then monotone := false
      done;
      let used = Moment_bounds.moments_used r.prepared in
      (if bad_range then [ label ^ ": a bound is outside 0 <= lower <= upper <= 1" ] else [])
      @ (if not !monotone then [ label ^ ": bounds are not monotone in x" ] else [])
      @ (if used <> bounds_used.(r.sigma) then
           [ Printf.sprintf "%s: %d moments used, expected %d" label used
               bounds_used.(r.sigma) ]
         else [])
      @
      if r.solve.R.diagnostics.R.log_error_bound > log bounds_eps then
        [ label ^ ": eq. 11 bound above eps" ]
      else [])
    (Array.to_list results)

let bounds cfg spans =
  let rng = Rng.create ~seed:(Int64.of_int cfg.seed) () in
  (* Set-up builds the three models and runs one pass on them; the first
     repetition also pays the first-touch costs a long-lived caller pays
     once, and the median leaves it out. *)
  let setups =
    timed_setups cfg ~compact:false (fun () ->
        ignore (bounds_pass ~spans ~traced:false ~models:(bounds_models ()) rng))
  in
  let models = bounds_models () in
  let plain = Stats.samples () and traced_s = Stats.samples () in
  let problems = ref [] and bad = ref 0 and passes = ref 0 in
  let g = Array.make 3 0 in
  let started = Unix.gettimeofday () in
  while !passes < 2 || Unix.gettimeofday () -. started < cfg.seconds do
    let traced = cfg.traced && !passes land 1 = 1 in
    let results, seconds = bounds_pass ~spans ~traced ~models rng in
    incr passes;
    Stats.add (if traced then traced_s else plain) seconds;
    Array.iter (fun r -> g.(r.sigma) <- r.solve.R.diagnostics.R.iterations) results;
    match check_pass results with
    | [] -> ()
    | p ->
        incr bad;
        if !problems = [] then problems := p
  done;
  let elapsed = Unix.gettimeofday () -. started in
  let info =
    [
      ("passes", int_num !passes);
      ( "G",
        Json.Obj
          (Array.to_list
             (Array.mapi (fun s sigma -> (Printf.sprintf "sigma2=%g" sigma, int_num g.(s)))
                bounds_sigmas)) );
    ]
  in
  let metrics, more_problems, more_info =
    if not cfg.traced then
      ( end_to_end ~setups ~jobs:(Stats.values plain) ~ok:(!passes - !bad) ~elapsed
          ~rss_kb:(Host.vm_hwm_kb 0),
        [],
        [] )
    else
      let case =
        {
          Probes.label = "bounds";
          model = models.(2);
          times = [| bounds_t |];
          order = bounds_order;
          eps = bounds_eps;
        }
      in
      let m, p, i = Probes.solver spans case ~measured:None ~smoke:cfg.smoke in
      (traced_jobs ~traced:(Stats.values traced_s) ~plain:(Stats.values plain) @ m, p, i)
  in
  {
    attempted = !passes;
    failed = !bad;
    problems = !problems @ more_problems;
    metrics;
    info = info @ more_info;
  }

(* ------------------------------------------------------------------ *)
(* Serving keys *)

(* serve-hot: the loadgen key pool, 50 onoff (size 6) jobs on a
   variance x horizon grid, drawn with Zipf skew 1. *)
let hot_keys = 50

let hot_lines =
  let cfg = { (Loadgen.default_config Cluster.router) with Loadgen.size = 6; order = 3 } in
  Array.init hot_keys (Loadgen.job_line cfg)

(* Key draws, precomputed so the load loop only indexes. *)
let hot_sequence ~seed =
  let rng = Rng.create ~seed:(Int64.of_int seed) () in
  let draw = Loadgen.key_sampler ~keys:hot_keys ~skew:1.0 rng in
  Array.init (1 lsl 19) (fun _ -> draw ())

(* serve-cold: three model families, each solve 20-45 ms. *)
type family = {
  fname : string;
  model : string;
  size : int;
  sigma2 : float option;
  horizon : float;
}

(* Each horizon sits high in its binade, so a step of one ulp is at most
   1.2e-16 of it and the 8000 steps below stay within 1e-12. *)
let families =
  [|
    { fname = "onoff401"; model = "onoff"; size = 400; sigma2 = Some 1.; horizon = 1.95 };
    { fname = "multi401"; model = "multi"; size = 200; sigma2 = None; horizon = 124. };
    { fname = "repair301"; model = "repair"; size = 300; sigma2 = None; horizon = 62. };
  |]

let max_steps = 8000

let cold_line f ~id ~t =
  Json.to_string
    (Json.Obj
       ([ ("id", Json.Str id); ("model", Json.Str f.model); ("size", int_num f.size) ]
       @ (match f.sigma2 with Some s -> [ ("sigma2", num s) ] | None -> [])
       @ [ ("t", num t); ("order", int_num 3) ]))

(* Request [i] belongs to block [i / 3], which sends one job of each
   family in a seeded order, so every prefix of the stream mixes the
   families evenly. A family's job in block [b] has the horizon moved up
   by [base + b] ulps: unique keys, and a relative change of at most
   1e-12, which leaves G unchanged. *)
type cold_keys = { perms : int array array; bases : int array }

let cold_keys ~seed =
  let rng = Rng.create ~seed:(Int64.of_int seed) () in
  let bases = Array.map (fun _ -> Rng.int_below rng 1000) families in
  let blocks = max_steps - 1000 in
  { perms = Array.init blocks (fun _ -> shuffle rng [| 0; 1; 2 |]); bases }

let cold_request keys i =
  let b = i / 3 in
  if b >= Array.length keys.perms then failwith "serve-cold: key space exhausted";
  let fi = keys.perms.(b).(i mod 3) in
  let f = families.(fi) in
  let ulp = Float.succ f.horizon -. f.horizon in
  let t = f.horizon +. (float_of_int (keys.bases.(fi) + b) *. ulp) in
  (fi, cold_line f ~id:(Printf.sprintf "c%d" i) ~t)

(* Warm-up keys sit one ulp below each family's horizon, outside the
   measured key space. *)
let cold_warm_lines =
  Array.to_list
    (Array.map
       (fun f -> cold_line f ~id:("warm-" ^ f.fname) ~t:(Float.pred f.horizon))
       families)

let family_case f = Probes.case_of_line f.fname (cold_line f ~id:"case" ~t:f.horizon)

(* ------------------------------------------------------------------ *)
(* Serving workloads *)

(* The reference answer: the same request line through Batch.run in
   this process. *)
let expected_outcome line = (Batch.run [| Probes.parse_job line |]).(0)

let points_of_outcome o =
  Option.map Json.to_string (Json.member "points" (Batch.outcome_to_json o))

let points_of_reply reply =
  match Json.parse reply with
  | Ok json -> Option.map Json.to_string (Json.member "points" json)
  | Error _ -> None

let first_g (o : Batch.outcome) =
  match o.Batch.result with
  | Ok (Batch.Points p) when Array.length p > 0 ->
      Option.value ~default:0 p.(0).Batch.iterations
  | Ok _ | Error _ -> 0

(* Tally of replies. serve-hot keeps each distinct reply once, with its
   key and count; serve-cold keeps every 8th request. *)
type tally = {
  distinct : (string, int * int) Hashtbl.t;
  mutable kept : (int * string * string) list;
  mutable cached : int;
  mutable ok : int;
}

let tally () = { distinct = Hashtbl.create 128; kept = []; cached = 0; ok = 0 }

type serving = Hot | Cold

(* serve-cold replicas keep 32 results instead of 256, so after the
   first few dozen solves each insert evicts: a cache far smaller than
   the key space is what makes traffic cold. *)
let cache_entries = function Hot -> 256 | Cold -> 32

let serve cfg spans kind =
  let hot_seq = match kind with Hot -> hot_sequence ~seed:cfg.seed | Cold -> [||] in
  let keys = cold_keys ~seed:cfg.seed in
  let warm_lines =
    match kind with Hot -> Array.to_list hot_lines | Cold -> cold_warm_lines
  in
  (* Set-up: start the three processes, wait for them to listen, and
     send the warm-up requests through the router. Earlier repetitions
     are drained and discarded. *)
  let reps = setup_reps cfg in
  let rec set_up k acc =
    let (cluster, warm), seconds =
      Spans.time (fun () ->
          let cluster =
            Cluster.start ~mrm2:cfg.mrm2 ~cache_entries:(cache_entries kind)
          in
          let conn = Cluster.connect Cluster.router in
          let warm = List.map (fun l -> (l, Cluster.exchange conn l)) warm_lines in
          Mrm_cluster.Wire.close conn;
          (cluster, warm))
    in
    if k + 1 < reps then begin
      ignore (Cluster.shutdown cluster);
      set_up (k + 1) (seconds :: acc)
    end
    else (cluster, warm, Array.of_list (seconds :: acc))
  in
  let cluster, warm, setups = set_up 0 [] in
  let line_of i =
    match kind with
    | Hot -> hot_lines.(hot_seq.(i land (Array.length hot_seq - 1)))
    | Cold -> snd (cold_request keys i)
  in
  let on_reply t i line reply =
    let ok = Cluster.is_ok reply in
    if ok then begin
      t.ok <- t.ok + 1;
      if Cluster.is_cached reply then t.cached <- t.cached + 1
    end;
    (match kind with
    | Hot ->
        let key = hot_seq.(i land (Array.length hot_seq - 1)) in
        let _, n = Option.value ~default:(key, 0) (Hashtbl.find_opt t.distinct reply) in
        Hashtbl.replace t.distinct reply (key, n + 1)
    | Cold -> if i mod 8 = 0 then t.kept <- (i, line, reply) :: t.kept);
    ok
  in
  let session, elapsed =
    Cluster.closed_loop ~spans ~endpoint:Cluster.router ~seconds:cfg.seconds ~line_of
      ~state:(tally ()) ~on_reply
  in
  let sent = session.Cluster.sent in
  let transport_failed = session.Cluster.failed in
  let replies = session.Cluster.state in
  let ok = replies.ok and cached = replies.cached in
  let plain = Stats.values session.Cluster.plain in
  let traced = Stats.values session.Cluster.traced in
  let stats = if cfg.traced then Cluster.cluster_stats () else [] in
  let drained = Cluster.shutdown cluster in
  (* Checks, with the cluster gone: every reply against Batch.run. *)
  let expected = Hashtbl.create 64 in
  let expect line =
    match Hashtbl.find_opt expected line with
    | Some e -> e
    | None ->
        let o = expected_outcome line in
        let e = (points_of_outcome o, first_g o) in
        Hashtbl.add expected line e;
        e
  in
  let wrong = ref 0 and problems = ref [] in
  let problem p = if List.length !problems < 5 then problems := p :: !problems in
  let verify ~count line reply =
    if not (Cluster.is_ok reply) then problem ("error reply: " ^ reply)
    else if points_of_reply reply <> fst (expect line) then begin
      wrong := !wrong + count;
      problem ("points differ from Batch.run for " ^ line)
    end
  in
  List.iter (fun (line, reply) -> verify ~count:0 line reply) warm;
  let g_info =
    match kind with
    | Hot ->
        Hashtbl.iter
          (fun reply (key, count) ->
            if Cluster.is_ok reply then verify ~count hot_lines.(key) reply)
          replies.distinct;
        [ ("hot", int_num (Array.fold_left (fun acc l -> max acc (snd (expect l))) 0 hot_lines)) ]
    | Cold ->
        if cached > 0 then problem (Printf.sprintf "%d serve-cold replies came from a cache" cached);
        List.iter (fun (line, reply) -> if Cluster.is_cached reply then problem ("cached warm-up reply: " ^ line)) warm;
        let g = Array.make (Array.length families) [] in
        let note fi line =
          let gv = snd (expect line) in
          if not (List.mem gv g.(fi)) then g.(fi) <- gv :: g.(fi)
        in
        List.iteri (fun fi (line, _) -> note fi line) warm;
        List.iter
          (fun (i, line, reply) ->
            if Cluster.is_ok reply then begin
              verify ~count:1 line reply;
              note (fst (cold_request keys i)) line
            end)
          replies.kept;
        Array.to_list
          (Array.mapi
             (fun fi f ->
               match g.(fi) with
               | [ gv ] -> (f.fname, int_num gv)
               | gs ->
                   problem (Printf.sprintf "%s: G varies across keys" f.fname);
                   (f.fname, Json.List (List.map int_num gs)))
             families)
  in
  let info =
    [
      ("requests", int_num sent);
      ("ok", int_num ok);
      ("cached", int_num cached);
      ("window_s", num elapsed);
      ("setups_s", Json.List (Array.to_list (Array.map num setups)));
      ("G", Json.Obj g_info);
    ]
  in
  let metrics, more_problems, more_info =
    if not cfg.traced then
      ( end_to_end ~setups ~jobs:plain ~ok ~elapsed ~rss_kb:drained.Cluster.peak_rss_kb,
        [],
        [] )
    else
      let case =
        match kind with
        | Hot -> Probes.case_of_line "serve-hot key 0" hot_lines.(0)
        | Cold -> family_case families.(0)
      in
      let m, p, i = Probes.solver spans case ~measured:None ~smoke:cfg.smoke in
      ( traced_jobs ~traced ~plain
        @ ("server.cache_hit_ratio", float_of_int cached /. float_of_int (max 1 ok), "fraction")
          :: Probes.cluster_counts ~stats drained
        @ m,
        p,
        i )
  in
  {
    attempted = sent;
    failed = transport_failed + !wrong;
    problems = List.rev !problems @ more_problems;
    metrics;
    info = info @ more_info;
  }

(* ------------------------------------------------------------------ *)
(* Metrics every traced run reports whatever its workload *)

(* The wire probes run on a cluster of their own, so their exchanges
   stay out of a serving workload's counts. ramp and bounds send no
   requests: their cache, queue and router counts are this cluster's,
   after the 50 hot keys are sent twice. *)
let probe_cluster cfg spans =
  let cluster = Cluster.start ~mrm2:cfg.mrm2 ~cache_entries:(cache_entries Hot) in
  let conn = Cluster.connect Cluster.router in
  let cached = ref 0 and ok = ref 0 in
  let count reply =
    if Cluster.is_ok reply then incr ok;
    if Cluster.is_cached reply then incr cached
  in
  Array.iter (fun l -> count (Cluster.exchange conn l)) hot_lines;
  Array.iter (fun l -> count (Cluster.exchange conn l)) hot_lines;
  Mrm_cluster.Wire.close conn;
  let stats = Cluster.cluster_stats () in
  let wire = Probes.wire spans ~hot_line:hot_lines.(0) ~count:(if cfg.smoke then 50 else 2000) in
  let drained = Cluster.shutdown cluster in
  ( wire,
    ("server.cache_hit_ratio", float_of_int !cached /. float_of_int (max 1 !ok), "fraction")
    :: Probes.cluster_counts ~stats drained )

let common_layers cfg spans =
  let l3 = Option.value ~default:(32 * 1024 * 1024) (Host.cache_bytes 3) in
  (* Three arrays spanning four times the L3 together stream from
     memory; the tier-1 smoke keeps them small. *)
  let triad_bytes = if cfg.smoke then 8 * 1024 * 1024 else 4 * l3 in
  let triad =
    Probes.probe spans "roofline.triad" (fun () -> Probes.triad_gbps ~total_bytes:triad_bytes)
  in
  let csr =
    Probes.csr_kernel spans (family_case families.(1)).Probes.model ~order:3
  in
  let bounds_moments =
    let model = (bounds_models ()).(2) in
    unconditional model
      (R.moments ~eps:bounds_eps model ~t:bounds_t ~order:bounds_order).R.moments
  in
  let request_metrics, request_problems =
    Probes.request_path spans ~hot_line:hot_lines.(0)
      ~cold_line:(cold_line families.(0) ~id:"overhead" ~t:0.01)
      ~cache_entries:(cache_entries Cold) ~smoke:cfg.smoke
  in
  ( [ ("roofline.triad_gbps", triad, "GB/s"); ("kernel.csr_ns_per_row_vec", csr, "ns") ]
    @ Probes.moment_bounds spans bounds_moments ~points:(bounds_points bounds_moments)
    @ request_metrics,
    request_problems,
    [ ("l3_bytes", int_num l3); ("triad_bytes", int_num triad_bytes) ] )

let run cfg spans name =
  let outcome =
    match name with
    | "ramp" -> ramp cfg spans
    | "bounds" -> bounds cfg spans
    | "serve-hot" -> serve cfg spans Hot
    | "serve-cold" -> serve cfg spans Cold
    | other -> invalid_arg ("unknown workload " ^ other)
  in
  if not cfg.traced then outcome
  else begin
    let wire, counts = probe_cluster cfg spans in
    let counts = match name with "ramp" | "bounds" -> counts | _ -> [] in
    let metrics, problems, info = common_layers cfg spans in
    {
      outcome with
      metrics = outcome.metrics @ wire @ counts @ metrics;
      problems = outcome.problems @ problems;
      info = outcome.info @ info;
    }
  end

(* Load connections a workload holds: one lockstep session for the
   serving workloads (see Cluster.closed_loop), none in process. *)
let connections_of = function "serve-hot" | "serve-cold" -> 1 | _ -> 0

(* Per-layer probes for traced runs. Each one times calls into a single
   layer's public functions, from outside, on a workload's own inputs;
   the program gains no instrumentation for them. A probe's batches run
   inside one ledger span named after the layer call. *)

module Json = Mrm_util.Json
module Vec = Mrm_linalg.Vec
module Sparse = Mrm_linalg.Sparse
module Generator = Mrm_ctmc.Generator
module Poisson = Mrm_ctmc.Poisson
module Kernel = Mrm_engine.Kernel
module Pool = Mrm_engine.Pool
module Model = Mrm_core.Model
module R = Mrm_core.Randomization
module Moment_bounds = Mrm_core.Moment_bounds
module Batch = Mrm_batch.Batch
module Protocol = Mrm_server.Protocol
module Lru_cache = Mrm_server.Lru_cache

type metric = string * float * string

(* Seconds per call of [f]: calls are batched until a batch lasts at
   least [min_batch] seconds, and the median batch mean of [rounds]
   batches is returned. *)
let per_call ?(rounds = 7) ?(min_batch = 0.002) f =
  let batch n =
    snd
      (Spans.time (fun () ->
           for _ = 1 to n do
             f ()
           done))
  in
  let rec calibrate n =
    if n >= 1 lsl 24 || batch n >= min_batch then n else calibrate (2 * n)
  in
  let n = calibrate 1 in
  Stats.median
    (Array.init rounds (fun _ -> batch n /. float_of_int n))

let probe spans name f = fst (Spans.span spans ("probe." ^ name) (fun _ -> f ()))
let us s = 1e6 *. s

(* ------------------------------------------------------------------ *)
(* Memory bandwidth *)

(* STREAM triad a <- b + s c over three arrays of [total_bytes]
   together; GB/s counts the 24 bytes each element moves. *)
let triad_gbps ~total_bytes =
  let n = max 1024 (total_bytes / 24) in
  let a = Array.make n 0. in
  let b = Array.init n float_of_int in
  let c = Array.make n 1. in
  let pass () =
    for i = 0 to n - 1 do
      a.(i) <- b.(i) +. (3. *. c.(i))
    done
  in
  let seconds = per_call ~rounds:5 pass in
  24. *. float_of_int n /. Float.max 1e-12 seconds /. 1e9

(* ------------------------------------------------------------------ *)
(* The randomization solver and its kernel *)

(* A solve a workload performs: the model, its time points and order. *)
type case = {
  label : string;
  model : Model.t;
  times : float array;
  order : int;
  eps : float;
}

let parse_job line =
  match Batch.job_of_json ~default_id:"probe" (Json.parse_exn line) with
  | Ok job -> job
  | Error e -> failwith ("probe job: " ^ e)

(* The solve behind a serving request line. *)
let case_of_line label line =
  let job = parse_job line in
  {
    label;
    model = job.Batch.model;
    times = job.Batch.times;
    order = job.Batch.order;
    eps = job.Batch.eps;
  }

let solve ?pool case =
  R.moments_at_times ?pool ~eps:case.eps case.model ~times:case.times
    ~order:case.order

let uniformized (model : Model.t) =
  let gen = model.Model.generator in
  Generator.uniformized gen ~rate:(Generator.uniformization_rate gen)

let matrix_bytes_per_row structure q' =
  let rows = Sparse.rows q' in
  match Kernel.structure_kind structure with
  | "tridiagonal" -> 24.
  | _ ->
      (16. *. float_of_int (Sparse.nnz q') /. float_of_int (max 1 rows)) +. 8.

(* Seconds of one fused mat-vec over every row, on [order] vectors. *)
let matvec_seconds structure ~rows ~order =
  let xs =
    Array.init order (fun k ->
        Vec.init rows (fun i -> 1. +. (1e-6 *. float_of_int (i + k))))
  in
  let ys = Array.init order (fun _ -> Vec.zeros rows) in
  per_call (fun () -> Kernel.mv_fused structure xs ys ~lo:0 ~hi:rows)

let ns_per_row_vec seconds ~rows ~order =
  1e9 *. seconds /. float_of_int (max 1 (rows * order))

(* Accumulator blocks folded per iteration, on average: the (k, t) pairs
   with k <= G(t) and a non-zero Poisson weight, as the sweep selects
   them, over the sweep's G. *)
let mean_blocks case results ~g =
  let q = Generator.uniformization_rate case.model.Model.generator in
  let active = ref 0 in
  Array.iteri
    (fun j t ->
      let g_t = results.(j).R.diagnostics.R.iterations in
      for k = 1 to g_t do
        if Poisson.pmf ~lambda:(q *. t) k > 0. then incr active
      done)
    case.times;
  float_of_int !active /. float_of_int (max 1 g)

(* Bytes one state moves per iteration, computed from the structure, the
   order and the accumulator blocks (cache reuse ignored): the fused
   mat-vec (matrix, [order] reads and writes), the R' and S' terms
   (read-modify-write of the next vector plus two reads each), and each
   active accumulator block (read-modify-write plus one read). *)
let bytes_per_state_iter ~matrix_row ~order ~blocks =
  let o = float_of_int order in
  matrix_row +. (16. *. o) +. (32. *. o) +. (32. *. (o -. 1.))
  +. (24. *. o *. blocks)

(* Bytes the sweep keeps live: two order-vector buffers and the shared
   ones vector, the accumulator blocks, R', S' and the matrix. *)
let working_set_bytes ~rows ~matrix_row ~order ~blocks_allocated =
  (8 * rows * ((2 * order) + 1 + (blocks_allocated * (order + 1)) + 2))
  + int_of_float (matrix_row *. float_of_int rows)

(* The solver and kernel metrics of one workload solve. [measured] is
   the solve's results and sequential time when the workload itself
   timed it, which only a solve lasting seconds needs; such a solve is
   timed once on the 2-domain pool, a short one in calibrated batches. *)
let solver spans case ~measured ~smoke =
  let timed f =
    if Option.is_some measured then snd (Spans.time f)
    else
      per_call ~rounds:5 ~min_batch:(if smoke then 0.005 else 0.05) (fun () ->
          ignore (f ()))
  in
  let results, seq =
    match measured with
    | Some m -> m
    | None ->
        probe spans "randomization.moments_at_times" (fun () ->
            (solve case, timed (fun () -> solve case)))
  in
  let g =
    Array.fold_left (fun acc r -> max acc r.R.diagnostics.R.iterations) 0 results
  in
  let rows = Model.dim case.model in
  let pooled =
    probe spans "pool.moments_at_times" (fun () ->
        Host.with_all_cpus (fun () ->
            Pool.with_pool ~jobs:2 (fun pool -> timed (fun () -> solve ~pool case))))
  in
  let q' = uniformized case.model in
  let structure = Kernel.detect q' in
  let gen = case.model.Model.generator in
  let q = Generator.uniformization_rate gen in
  let setup =
    probe spans "randomization.setup" (fun () ->
        per_call ~rounds:5 (fun () ->
            let q' = Generator.uniformized gen ~rate:q in
            ignore (Kernel.detect q');
            Array.iteri
              (fun j t ->
                for k = 0 to results.(j).R.diagnostics.R.iterations do
                  ignore (Poisson.pmf ~lambda:(q *. t) k)
                done)
              case.times))
  in
  let mv =
    probe spans "kernel.mv_fused" (fun () ->
        matvec_seconds structure ~rows ~order:case.order)
  in
  let matrix_row = matrix_bytes_per_row structure q' in
  let blocks = mean_blocks case results ~g in
  let bytes = bytes_per_state_iter ~matrix_row ~order:case.order ~blocks in
  let ws =
    working_set_bytes ~rows ~matrix_row ~order:case.order
      ~blocks_allocated:(Array.length case.times)
  in
  let ws_gbps = probe spans "roofline.triad_ws" (fun () -> triad_gbps ~total_bytes:ws) in
  let state_iters = float_of_int g *. float_of_int rows in
  let ns_per_state_iter = 1e9 *. seq /. Float.max 1. state_iters in
  let log10_bound =
    Array.fold_left
      (fun acc r -> Float.max acc (r.R.diagnostics.R.log_error_bound /. log 10.))
      neg_infinity results
  in
  let metrics =
    [
      ("roofline.triad_ws_gbps", ws_gbps, "GB/s");
      ("kernel.tridiag_ns_per_row_vec", ns_per_row_vec mv ~rows ~order:case.order, "ns");
      ("kernel.bytes_per_state_iter", bytes, "B");
      ("kernel.roofline_frac",
        bytes /. Float.max 1e-12 ns_per_state_iter /. Float.max 1e-12 ws_gbps,
        "fraction");
      ("pool.speedup_2", seq /. Float.max 1e-12 pooled, "x");
      ("randomization.G", float_of_int g, "count");
      ("randomization.state_iters", state_iters, "count");
      ("randomization.ns_per_state_iter", ns_per_state_iter, "ns");
      ("randomization.setup_ms", 1000. *. setup, "ms");
      ("randomization.matvec_share",
        float_of_int g *. mv /. Float.max 1e-12 seq, "fraction");
      ("randomization.log10_error_bound", log10_bound, "log10");
    ]
  in
  let problems =
    (if Kernel.structure_kind structure <> "tridiagonal" then
       [ case.label ^ ": expected a tridiagonal structure" ]
     else [])
    @
    if log10_bound > log10 case.eps then
      [ Printf.sprintf "%s: eq. 11 bound 1e%.2f exceeds eps %g" case.label
          log10_bound case.eps ]
    else []
  in
  let info =
    [ ("working_set_bytes", Json.Num (float_of_int ws));
      ("mean_blocks", Json.Num blocks);
      ("structure", Json.Str (Kernel.structure_kind structure)) ]
  in
  (metrics, problems, info)

(* The benchmark's only CSR structure is serve-cold's multiprocessor
   family, so every traced run times the CSR kernel there. *)
let csr_kernel spans model ~order =
  let q' = uniformized model in
  let structure = Kernel.detect q' in
  let rows = Sparse.rows q' in
  probe spans "kernel.mv_fused" (fun () ->
      ns_per_row_vec (matvec_seconds structure ~rows ~order) ~rows ~order)

(* ------------------------------------------------------------------ *)
(* Moment bounds *)

let moment_bounds spans moments ~points =
  let prepared = Moment_bounds.prepare moments in
  let prepare =
    probe spans "moment_bounds.prepare" (fun () ->
        per_call (fun () -> ignore (Moment_bounds.prepare moments)))
  in
  let cdf =
    probe spans "moment_bounds.cdf_bounds" (fun () ->
        per_call (fun () ->
            Array.iter
              (fun x -> ignore (Moment_bounds.cdf_bounds prepared x))
              points))
  in
  [
    ("moment_bounds.prepare_us", us prepare, "us");
    ("moment_bounds.cdf_us", us cdf /. float_of_int (max 1 (Array.length points)), "us");
    ("moment_bounds.moments_used",
      float_of_int (Moment_bounds.moments_used prepared), "count");
  ]

(* ------------------------------------------------------------------ *)
(* Batch and replica request handling, in process *)

(* [hot_line] is a serve-hot request, [cold_line] a serve-cold one, and
   [cache_entries] a serve-cold replica's cache size. *)
let request_path spans ~hot_line ~cold_line ~cache_entries ~smoke =
  let json = Json.parse_exn hot_line in
  let job = parse_job hot_line in
  let outcome = (Batch.run [| job |]).(0) in
  let time name f = us (probe spans name (fun () -> per_call f)) in
  let job_of_json =
    time "batch.job_of_json" (fun () ->
        ignore (Batch.job_of_json ~default_id:"probe" json))
  in
  let digest = time "batch.digest" (fun () -> ignore (Batch.digest job)) in
  let outcome_to_json =
    time "batch.outcome_to_json" (fun () -> ignore (Batch.outcome_to_json outcome))
  in
  let parse_request =
    time "protocol.parse_request" (fun () ->
        ignore
          (Protocol.parse_request ~now:0. ~default_id:"probe" hot_line))
  in
  let validate = time "protocol.validate" (fun () -> ignore (Protocol.validate job)) in
  let response =
    time "protocol.response_of_outcome" (fun () ->
        ignore (Protocol.response_of_outcome ~cached:true outcome))
  in
  (* A full cache, as a serve-cold replica's is once it has run a while:
     lookups of stored keys hit, and every insert evicts. Keys are
     digest-shaped and cycle through 4096, so a key inserted again was
     evicted long before. *)
  let keys = Array.init 4096 (fun i -> Digest.to_hex (Digest.string (string_of_int i))) in
  let cache = Lru_cache.create ~max_entries:cache_entries ~weight:(fun _ -> 1) () in
  for i = 0 to cache_entries - 1 do
    Lru_cache.add cache keys.(i) outcome
  done;
  let cursor = ref 0 in
  let find =
    time "lru_cache.find_opt" (fun () ->
        cursor := (!cursor + 1) mod cache_entries;
        ignore (Lru_cache.find_opt cache keys.(!cursor)))
  in
  let next = ref cache_entries in
  let add =
    time "lru_cache.add" (fun () ->
        Lru_cache.add cache keys.(!next land 4095) outcome;
        next := !next + 1)
  in
  let evictions = (Lru_cache.stats cache).Lru_cache.evictions in
  (* Batch.run against the solve it wraps, interleaved so both see the
     same machine state; the median per-round difference is the
     overhead of dedup, digest and result assembly. [cold_line] has a
     serve-cold model and a short horizon, so the solve's own noise
     does not drown the difference. *)
  let cold = parse_job cold_line in
  let overhead =
    probe spans "batch.run" (fun () ->
        let batch () = ignore (Batch.run [| cold |]) in
        let bare () =
          ignore
            (R.moments_at_times ~eps:cold.Batch.eps cold.Batch.model
               ~times:cold.Batch.times ~order:cold.Batch.order)
        in
        Stats.median
          (Array.init (if smoke then 3 else 9) (fun _ ->
               per_call ~rounds:1 batch -. per_call ~rounds:1 bare)))
  in
  let metrics =
    [
      ("batch.job_of_json_us", job_of_json, "us");
      ("batch.digest_us", digest, "us");
      ("batch.outcome_to_json_us", outcome_to_json, "us");
      ("batch.run_overhead_us", us overhead, "us");
      ("server.parse_request_us", parse_request, "us");
      ("server.validate_us", validate, "us");
      ("server.cache_find_us", find, "us");
      ("server.cache_add_us", add, "us");
      ("server.response_us", response, "us");
    ]
  in
  let problems =
    if evictions < 1 then [ "lru probe: inserts into a full cache did not evict" ]
    else []
  in
  (metrics, problems)

(* ------------------------------------------------------------------ *)
(* Replica and router, over the wire *)

(* Median round trip of [line], already cached at the target, in
   microseconds; one span per exchange. *)
let rtt_us spans endpoint line ~count =
  let conn = Cluster.connect endpoint in
  Fun.protect
    ~finally:(fun () -> Mrm_cluster.Wire.close conn)
    (fun () ->
      ignore (Cluster.exchange conn line);
      let samples =
        Array.init count (fun _ ->
            let reply, elapsed =
              Spans.span spans "wire.exchange" (fun _ -> Cluster.exchange conn line)
            in
            if not (Cluster.is_cached reply) then
              failwith ("rtt probe: reply not served from the cache: " ^ reply);
            elapsed)
      in
      us (Stats.median samples))

let wire spans ~hot_line ~count =
  let direct = rtt_us spans (Cluster.replica 0) hot_line ~count in
  let routed = rtt_us spans Cluster.router hot_line ~count in
  [
    ("server.rtt_hit_us", direct, "us");
    ("cluster.rtt_hit_us", routed, "us");
    ("cluster.forward_us", routed -. direct, "us");
  ]

let stat stats name = Option.value ~default:0. (List.assoc_opt name stats)

(* Router counters (taken before the drain) and each replica's exit
   report (after it). *)
let cluster_counts ~stats (drained : Cluster.drained) =
  let per_replica name = Array.map (fun r -> stat r name) drained.Cluster.reports in
  let sum name = Array.fold_left ( +. ) 0. (per_replica name) in
  let requests = per_replica "server.requests" in
  let mean = Array.fold_left ( +. ) 0. requests /. float_of_int (max 1 (Array.length requests)) in
  let busiest = Array.fold_left Float.max 0. requests in
  [
    ("server.queue_peak", Array.fold_left Float.max 0. (per_replica "server.queue_peak"), "count");
    ("server.cache_evictions", sum "server.cache_evictions", "count");
    ("server.rejected", sum "server.rejected", "count");
    ("cluster.failovers", stat stats "cluster.failovers", "count");
    ("cluster.shed", stat stats "cluster.shed", "count");
    ("cluster.unavailable", stat stats "cluster.unavailable", "count");
    ("cluster.replica_skew", busiest /. Float.max 1. mean, "ratio");
  ]

(* Tests for the parallel execution engine: pool scheduling semantics
   (coverage, exceptions, re-entrancy, shutdown), nnz-balanced
   partitions, partitioned kernels against their sequential
   counterparts, the solver's ?pool argument (parallel must equal
   sequential bit for bit), and the batch front-end with its
   dedup/memoization and the mrm2 batch JSONL round trip. *)

module Pool = Mrm_engine.Pool
module Partition = Mrm_engine.Partition
module Kernel = Mrm_engine.Kernel
module Batch = Mrm_batch.Batch
module Json = Mrm_util.Json
module Sparse = Mrm_linalg.Sparse
module Vec = Mrm_linalg.Vec
module Model = Mrm_core.Model
module Randomization = Mrm_core.Randomization
module Generator = Mrm_ctmc.Generator
module Onoff = Mrm_models.Onoff

let job_counts = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Pool semantics                                                       *)

let test_pool_covers_all_tasks () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check int) "jobs" jobs (Pool.jobs pool);
          List.iter
            (fun n ->
              let hits = Array.make (max n 1) 0 in
              Pool.run pool n (fun i -> hits.(i) <- hits.(i) + 1);
              if n > 0 then
                Alcotest.(check (array int))
                  (Printf.sprintf "each of %d tasks ran once on %d jobs" n
                     jobs)
                  (Array.make n 1) (Array.sub hits 0 n))
            (* n = 0, n = 1, n < jobs, n = jobs, n >> jobs *)
            [ 0; 1; jobs - 1; jobs; 97 ]))
    job_counts

let test_pool_invalid_jobs () =
  Alcotest.check_raises "jobs = 0"
    (Invalid_argument "Pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:0 ()))

let test_pool_exception_propagates () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let ran = Array.make 8 false in
      let raised =
        try
          Pool.run pool 8 (fun i ->
              ran.(i) <- true;
              if i = 3 then failwith "task 3 exploded");
          false
        with Failure msg ->
          Alcotest.(check string) "message" "task 3 exploded" msg;
          true
      in
      Alcotest.(check bool) "exception re-raised" true raised;
      (* Every task still ran (no abandonment mid-batch)... *)
      Alcotest.(check (array bool)) "all tasks ran" (Array.make 8 true) ran;
      (* ...and the pool survives for the next batch. *)
      let total = Atomic.make 0 in
      Pool.run pool 10 (fun i -> ignore (Atomic.fetch_and_add total (i + 1)));
      Alcotest.(check int) "pool survives" 55 (Atomic.get total))

let test_pool_reentrant_run () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let hits = Atomic.make 0 in
      (* body calls run on the same pool: must degrade to sequential
         instead of deadlocking. *)
      Pool.run pool 4 (fun _ ->
          Pool.run pool 5 (fun _ -> ignore (Atomic.fetch_and_add hits 1)));
      Alcotest.(check int) "nested tasks all ran" 20 (Atomic.get hits))

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~jobs:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* A pool keeps working after shutdown, in-caller. *)
  let sum = ref 0 in
  Pool.run pool 5 (fun i -> sum := !sum + i);
  Alcotest.(check int) "run after shutdown" 10 !sum

let test_map_array () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let input = Array.init 17 (fun i -> i) in
      let out = Pool.map_array pool (fun x -> (x * x, string_of_int x)) input in
      Alcotest.(check int) "length" 17 (Array.length out);
      Array.iteri
        (fun i (sq, s) ->
          Alcotest.(check int) "square" (i * i) sq;
          Alcotest.(check string) "order preserved" (string_of_int i) s)
        out;
      Alcotest.(check int) "empty input" 0
        (Array.length (Pool.map_array pool (fun x -> x) [||])))

(* ------------------------------------------------------------------ *)
(* Partitions                                                           *)

let diagonal_matrix rows =
  Sparse.of_triplets ~rows ~cols:rows
    (List.init rows (fun i -> (i, i, 1. +. float_of_int i)))

let check_partition_covers name partition ~rows =
  let ranges = Partition.ranges partition in
  let expected = ref 0 in
  Array.iter
    (fun (lo, hi) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: contiguous at %d" name lo)
        true
        (lo = !expected && hi >= lo);
      expected := hi)
    ranges;
  Alcotest.(check int) (name ^ ": covers every row") rows !expected

let test_partition_uniform () =
  check_partition_covers "10/3" (Partition.uniform ~parts:3 ~rows:10) ~rows:10;
  check_partition_covers "3/10 (more parts than rows)"
    (Partition.uniform ~parts:10 ~rows:3)
    ~rows:3;
  check_partition_covers "0 rows" (Partition.uniform ~parts:4 ~rows:0) ~rows:0;
  (* [ranges] hands out a copy: editing it leaves the partition tiled *)
  let partition = Partition.uniform ~parts:2 ~rows:10 in
  (Partition.ranges partition).(0) <- (0, 8);
  Alcotest.(check (array (pair int int)))
    "ranges unchanged"
    [| (0, 5); (5, 10) |]
    (Partition.ranges partition)

let test_partition_by_nnz () =
  (* Skewed matrix: row 0 holds almost all entries; nnz balancing must
     not hand the remaining rows to the same range. *)
  let n = 64 in
  let triplets = ref [] in
  for j = 0 to n - 1 do
    triplets := (0, j, 1.) :: !triplets
  done;
  for i = 1 to n - 1 do
    triplets := (i, i, 1.) :: !triplets
  done;
  let m = Sparse.of_triplets ~rows:n ~cols:n !triplets in
  let partition = Partition.by_nnz ~parts:4 m in
  check_partition_covers "skewed" partition ~rows:n;
  let offsets = Sparse.row_offsets m in
  let heaviest =
    Array.fold_left
      (fun acc (lo, hi) -> max acc (offsets.(hi) - offsets.(lo)))
      0
      (Partition.ranges partition)
  in
  (* A perfect split carries nnz/4 + slack for one indivisible row. *)
  Alcotest.(check bool)
    (Printf.sprintf "nnz balanced (heaviest range %d of %d)" heaviest
       (Sparse.nnz m))
    true
    (heaviest <= (Sparse.nnz m / 4) + n)

(* Every constructor tiles [0, rows): [parts] contiguous ranges from 0
   to [rows], also when there are more parts (or pinned jobs) than
   rows. *)
let prop_partition_covers_random =
  QCheck2.Test.make ~count:100 ~name:"partitions cover any matrix"
    ~print:(fun (rows, parts, extra) ->
      Printf.sprintf "rows=%d parts=%d extra=%d" rows parts extra)
    QCheck2.Gen.(
      tup3 (int_range 1 30) (int_range 1 40) (int_range 0 40))
    (fun (rows, parts, extra) ->
      let triplets =
        List.init extra (fun k -> (k mod rows, (k * 7) mod rows, 1.))
      in
      let m = Sparse.of_triplets ~rows ~cols:rows triplets in
      let tiles partition =
        let ranges = Partition.ranges partition in
        let covered = ref 0 in
        Array.length ranges = parts
        && Array.for_all
             (fun (lo, hi) ->
               let ok = lo = !covered && hi >= lo in
               covered := hi;
               ok)
             ranges
        && !covered = rows
      in
      tiles (Partition.by_nnz ~parts m)
      && tiles (Partition.uniform ~parts ~rows)
      && tiles (Partition.pinned ~jobs:parts m))

(* [pinned] records its split's load ratio, parts * max part nnz /
   total nnz, as a running maximum in the partition.imbalance gauge. *)
let test_partition_imbalance_gauge () =
  let module Metrics = Mrm_obs.Metrics in
  let gauge = Metrics.gauge "partition.imbalance" in
  Metrics.reset ();
  (* row 0 holds 5 entries and rows 1-7 one each: 12 in all, split at
     3, 6 and 9 into 5 + 1 + 3 + 3 *)
  let skewed =
    Sparse.of_triplets ~rows:8 ~cols:8
      (List.init 5 (fun j -> (0, j, 1.))
      @ List.init 7 (fun i -> (i + 1, i + 1, 1.)))
  in
  let partition = Partition.pinned ~jobs:4 skewed in
  Alcotest.(check (array (pair int int)))
    "nnz split"
    [| (0, 1); (1, 2); (2, 5); (5, 8) |]
    (Partition.ranges partition);
  Alcotest.(check (float 0.)) "4 * 5 / 12" (float_of_int (4 * 5) /. 12.)
    (Metrics.gauge_value gauge);
  (* a perfectly balanced split (1.0) keeps the worst one seen *)
  ignore (Partition.pinned ~jobs:4 (diagonal_matrix 8));
  Alcotest.(check (float 0.)) "running maximum" (float_of_int (4 * 5) /. 12.)
    (Metrics.gauge_value gauge)

(* ------------------------------------------------------------------ *)
(* Kernels vs their sequential counterparts                             *)

let prop_kernel_matches_sequential =
  QCheck2.Test.make ~count:60
    ~name:"Kernel sweep = Sparse.mv"
    QCheck2.Gen.(
      let* n = int_range 1 24 in
      let* entries = list_repeat (3 * n) (float_range (-2.) 2.) in
      let* count = int_range 1 3 in
      let* xs = list_repeat (count * n) (float_range (-1.) 1.) in
      let* jobs = oneofl job_counts in
      let* parts = int_range 1 7 in
      return (n, entries, count, Array.of_list xs, jobs, parts))
    (fun (n, entries, count, xs_flat, jobs, parts) ->
      let triplets =
        List.mapi (fun k v -> (k mod n, (k * 5 + 1) mod n, v)) entries
      in
      let m = Sparse.of_triplets ~rows:n ~cols:n triplets in
      let structure = Kernel.detect m in
      let xs = Array.init count (fun s -> Array.sub xs_flat (s * n) n) in
      let fresh () = Array.init count (fun _ -> Array.make n Float.nan) in
      let once = Array.map (Sparse.mv m) xs in
      let twice = Array.map (Sparse.mv m) once in
      Pool.with_pool ~jobs (fun pool ->
          (* one product per range as a one-round sweep... *)
          let got = fresh () in
          Kernel.sweep (Some pool) (Partition.by_nnz ~parts m) ~rounds:1
            (fun ~round:_ ~lo ~hi -> Kernel.mv_fused structure xs got ~lo ~hi);
          (* ...and two dependent products as a pinned two-round sweep *)
          let ys = fresh () and zs = fresh () in
          Kernel.sweep (Some pool) (Partition.pinned ~jobs:(Pool.jobs pool) m)
            ~rounds:2 (fun ~round ~lo ~hi ->
              if round = 0 then Kernel.mv_fused structure xs ys ~lo ~hi
              else Kernel.mv_fused structure ys zs ~lo ~hi);
          got = once && ys = once && zs = twice))

(* ------------------------------------------------------------------ *)
(* Solver: ?pool must not change a single bit                           *)

let check_results_identical name (a : Randomization.result)
    (b : Randomization.result) =
  Alcotest.(check int)
    (name ^ ": iterations")
    a.diagnostics.iterations b.diagnostics.iterations;
  Array.iteri
    (fun n va ->
      Array.iteri
        (fun i v ->
          if v <> b.moments.(n).(i) then
            Alcotest.failf "%s: moments.(%d).(%d): %.17g <> %.17g" name n i v
              b.moments.(n).(i))
        va)
    a.moments

let test_solver_parallel_equals_sequential_table1 () =
  let model = Onoff.model (Onoff.table1 ~sigma2:10.) in
  let sequential = Randomization.moments model ~t:2. ~order:3 in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let parallel = Randomization.moments ~pool model ~t:2. ~order:3 in
          check_results_identical
            (Printf.sprintf "table1 jobs=%d" jobs)
            sequential parallel))
    job_counts

let test_solver_parallel_equals_sequential_large () =
  (* ~2k-state ON-OFF model: big enough for several nnz ranges per
     domain, small enough for CI. *)
  let model = Onoff.model (Onoff.scaled_table2 ~sources:2_000) in
  let sequential = Randomization.moments model ~t:0.005 ~order:3 in
  Pool.with_pool ~jobs:4 (fun pool ->
      let parallel = Randomization.moments ~pool model ~t:0.005 ~order:3 in
      check_results_identical "scaled table2" sequential parallel)

let test_moments_at_times_with_pool () =
  let model = Onoff.model (Onoff.table1 ~sigma2:1.) in
  let times = [| 0.; 0.5; 1.; 2. |] in
  let sequential = Randomization.moments_at_times model ~times ~order:3 in
  Pool.with_pool ~jobs:2 (fun pool ->
      let parallel =
        Randomization.moments_at_times ~pool model ~times ~order:3
      in
      Array.iteri
        (fun k r ->
          check_results_identical
            (Printf.sprintf "t=%g" times.(k))
            r parallel.(k))
        sequential)

let prop_solver_pool_invariant =
  (* Random models x jobs: the parallel sweep reproduces the sequential
     one exactly, for single times and for shared multi-time sweeps. *)
  QCheck2.Test.make ~count:25 ~name:"random models: ?pool is a no-op on values"
    QCheck2.Gen.(
      let* n = int_range 2 8 in
      let* cycle = list_repeat n (float_range 0.2 3.) in
      let* rates = list_repeat n (float_range (-2.) 2.) in
      let* variances = list_repeat n (float_range 0. 2.) in
      let* jobs = oneofl [ 2; 4 ] in
      return (n, cycle, rates, variances, jobs))
    (fun (n, cycle, rates, variances, jobs) ->
      let triplets =
        List.mapi (fun i r -> (i, (i + 1) mod n, r)) cycle
      in
      let generator = Generator.of_triplets ~states:n triplets in
      let initial = Array.init n (fun i -> if i = 0 then 1. else 0.) in
      let model =
        Model.make ~generator ~rates:(Array.of_list rates)
          ~variances:(Array.of_list variances) ~initial
      in
      let times = [| 0.3; 1.1 |] in
      let seq_one = Randomization.moments model ~t:1.1 ~order:3 in
      let seq_many = Randomization.moments_at_times model ~times ~order:3 in
      Pool.with_pool ~jobs (fun pool ->
          let par_one = Randomization.moments ~pool model ~t:1.1 ~order:3 in
          let par_many =
            Randomization.moments_at_times ~pool model ~times ~order:3
          in
          seq_one.moments = par_one.moments
          && Array.for_all2
               (fun (a : Randomization.result) (b : Randomization.result) ->
                 a.moments = b.moments)
               seq_many par_many))

let test_moment_series_projection () =
  (* The satellite rewrite: moment_series is a projection of
     moments_at_times, and stays within eps of pointwise solves. *)
  let model = Onoff.model (Onoff.table1 ~sigma2:10.) in
  let times = [| 0.; 0.25; 1.; 2. |] in
  let series = Randomization.moment_series model ~times ~order:3 in
  let swept = Randomization.moments_at_times model ~times ~order:3 in
  Array.iteri
    (fun k (t, values) ->
      Alcotest.(check (float 0.)) "time echoed" times.(k) t;
      Array.iteri
        (fun n v ->
          let expected =
            Vec.dot (model : Model.t).Model.initial swept.(k).moments.(n)
          in
          Alcotest.(check (float 0.))
            (Printf.sprintf "series = projected sweep (t=%g, n=%d)" t n)
            expected v;
          let pointwise =
            Vec.dot
              (model : Model.t).Model.initial
              (Randomization.moments model ~t ~order:3).moments.(n)
          in
          if
            abs_float (v -. pointwise) > 1e-8 *. (1. +. abs_float pointwise)
          then
            Alcotest.failf "series vs pointwise at t=%g, n=%d: %g vs %g" t n v
              pointwise)
        values)
    series

(* ------------------------------------------------------------------ *)
(* Batch front-end                                                      *)

let small_job ?(id = "a") ?(eps = 1e-9) ?(order = 3) () =
  {
    Batch.id;
    model = Onoff.model (Onoff.table1 ~sigma2:1.);
    times = [| 1. |];
    order;
    eps;
    kind = Batch.Moments;
  }

let test_batch_dedup () =
  let jobs =
    [| small_job ~id:"first" (); small_job ~id:"second" ();
       small_job ~id:"third" ~eps:1e-6 () |]
  in
  let outcomes = Batch.run jobs in
  Alcotest.(check int) "outcome per job" 3 (Array.length outcomes);
  Alcotest.(check (option string)) "first is representative" None
    outcomes.(0).duplicate_of;
  Alcotest.(check (option string)) "second reuses first" (Some "first")
    outcomes.(1).duplicate_of;
  Alcotest.(check (option string)) "different eps solves fresh" None
    outcomes.(2).duplicate_of;
  Alcotest.(check string) "equal digests" outcomes.(0).digest
    outcomes.(1).digest;
  Alcotest.(check bool) "eps changes the digest" true
    (outcomes.(0).digest <> outcomes.(2).digest);
  match (outcomes.(0).result, outcomes.(1).result) with
  | Ok (Batch.Points a), Ok (Batch.Points b) ->
      Alcotest.(check bool) "shared values" true
        (a.(0).Batch.values = b.(0).Batch.values)
  | _ -> Alcotest.fail "batch jobs failed"

let test_batch_matches_direct_solver () =
  List.iter
    (fun jobs_opt ->
      let run jobs_array =
        match jobs_opt with
        | None -> Batch.run jobs_array
        | Some jobs -> Pool.with_pool ~jobs (fun pool -> Batch.run ~pool jobs_array)
      in
      let outcomes = run [| small_job () |] in
      match outcomes.(0).result with
      | Error e -> Alcotest.failf "batch failed: %s" e
      | Ok (Batch.Density _) -> Alcotest.fail "moments job returned a density"
      | Ok (Batch.Points points) ->
          let model = Onoff.model (Onoff.table1 ~sigma2:1.) in
          let direct = Randomization.moments model ~t:1. ~order:3 in
          let expected =
            Array.init 4 (fun n ->
                Vec.dot (model : Model.t).Model.initial direct.moments.(n))
          in
          Alcotest.(check bool)
            (Printf.sprintf "values match direct solve (%s)"
               (match jobs_opt with
               | None -> "sequential"
               | Some j -> Printf.sprintf "pool of %d" j))
            true
            (points.(0).Batch.values = expected);
          Alcotest.(check (option int)) "iterations recorded"
            (Some direct.diagnostics.iterations)
            points.(0).Batch.iterations)
    [ None; Some 2 ]

let test_batch_error_isolation () =
  (* An invalid job must fail alone, not poison the batch. *)
  let bad = { (small_job ~id:"bad" ()) with order = -1 } in
  let outcomes = Batch.run [| small_job ~id:"good" (); bad |] in
  (match outcomes.(0).result with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "good job failed: %s" e);
  match outcomes.(1).result with
  | Ok _ -> Alcotest.fail "order = -1 should fail"
  | Error message ->
      Alcotest.(check bool)
        (Printf.sprintf "message mentions the cause: %s" message)
        true
        (String.length message > 0)

let test_batch_job_of_json () =
  let parse line =
    Batch.job_of_json ~default_id:"fallback" (Json.parse_exn line)
  in
  let spec =
    {|{"id":"j1","model":"onoff","sigma2":1,"size":8,"times":[0.5,1],"order":2|}
  in
  (match parse (spec ^ "}") with
  | Error e -> Alcotest.failf "valid spec rejected: %s" e
  | Ok job ->
      Alcotest.(check string) "id" "j1" job.Batch.id;
      Alcotest.(check int) "order" 2 job.Batch.order;
      Alcotest.(check int) "times" 2 (Array.length job.Batch.times);
      Alcotest.(check int) "model built" 9 (Model.dim job.Batch.model);
      (* randomization, the only moments solver, may be named: the job
         and its digest are those of the spec without the field *)
      List.iter
        (fun name ->
          match parse (Printf.sprintf {|%s,"method":%S}|} spec name) with
          | Error e -> Alcotest.failf "method %s rejected: %s" name e
          | Ok named ->
              Alcotest.(check string) ("digest with method " ^ name)
                (Batch.digest job) (Batch.digest named))
        [ "randomization"; "rand" ]);
  (* the comparators are not job options: asking for one is refused,
     not answered by randomization *)
  List.iter
    (fun name ->
      Alcotest.(check (result reject string))
        ("method " ^ name)
        (Error {|field "method": invalid value|})
        (Result.map ignore
           (parse
              (Printf.sprintf {|{"model":"onoff","t":1,"method":%S}|} name))))
    [ "ode"; "gaver"; "lattice"; "" ];
  (match parse {|{"model":"repair","t":1}|} with
  | Error e -> Alcotest.failf "defaults rejected: %s" e
  | Ok job ->
      Alcotest.(check string) "default id" "fallback" job.Batch.id;
      Alcotest.(check int) "default order" 3 job.Batch.order);
  let expect_error name line =
    match parse line with
    | Ok _ -> Alcotest.failf "%s: should be rejected" name
    | Error _ -> ()
  in
  expect_error "no model source" {|{"t":1}|};
  expect_error "no times" {|{"model":"onoff"}|};
  expect_error "both model sources" {|{"model":"onoff","file":"x.mrm","t":1}|};
  expect_error "both time forms" {|{"model":"onoff","t":1,"times":[1]}|};
  expect_error "method not a string" {|{"model":"onoff","t":1,"method":1}|};
  expect_error "negative order" {|{"model":"onoff","t":1,"order":-2}|};
  expect_error "not an object" {|[1,2]|};
  (* kind selection *)
  (match parse {|{"model":"onoff","kind":"stationary","drain":2.5,"regularize":0.001}|} with
  | Error e -> Alcotest.failf "stationary kind rejected: %s" e
  | Ok job -> (
      Alcotest.(check int) "stationary needs no times" 0
        (Array.length job.Batch.times);
      match job.Batch.kind with
      | Batch.Stationary { drain; regularize } ->
          Alcotest.(check (float 0.)) "drain" 2.5 drain;
          Alcotest.(check (float 0.)) "regularize" 0.001 regularize
      | Batch.Moments -> Alcotest.fail "kind should be stationary"));
  (match parse {|{"model":"onoff","t":1,"kind":"moments"}|} with
  | Error e -> Alcotest.failf "explicit moments kind rejected: %s" e
  | Ok job ->
      Alcotest.(check bool) "kind moments" true (job.Batch.kind = Batch.Moments));
  (* an unknown kind is a structured diagnostic naming the offender and
     the supported set, not a generic parse failure *)
  (match parse {|{"model":"onoff","t":1,"kind":"spectral"}|} with
  | Ok _ -> Alcotest.fail "unknown kind should be rejected"
  | Error message ->
      let contains sub =
        let n = String.length sub in
        let rec at i =
          i + n <= String.length message
          && (String.sub message i n = sub || at (i + 1))
        in
        at 0
      in
      List.iter
        (fun sub ->
          Alcotest.(check bool)
            (Printf.sprintf "unknown-kind message mentions %S (got: %s)" sub
               message)
            true (contains sub))
        [ "MRM069"; "\"spectral\""; "moments"; "stationary" ]);
  expect_error "bad regularize" {|{"model":"onoff","kind":"stationary","regularize":-1}|};
  expect_error "stationary kind not a string" {|{"model":"onoff","t":1,"kind":7}|}

let test_batch_outcome_json_round_trip () =
  let outcomes = Batch.run [| small_job ~id:"rt" () |] in
  let json = Json.parse_exn (Json.to_string (Batch.outcome_to_json outcomes.(0))) in
  let str key = Option.bind (Json.member key json) Json.to_str in
  Alcotest.(check (option string)) "id" (Some "rt") (str "id");
  Alcotest.(check (option string)) "status" (Some "ok") (str "status");
  match Option.bind (Json.member "points" json) Json.to_list with
  | Some [ point ] ->
      let moments =
        Option.bind (Json.member "moments" point) Json.to_list
        |> Option.value ~default:[]
      in
      Alcotest.(check int) "order+1 moments" 4 (List.length moments);
      Alcotest.(check (option (float 0.))) "t echoed" (Some 1.)
        (Option.bind (Json.member "t" point) Json.to_float)
  | _ -> Alcotest.fail "expected exactly one point"

(* ------------------------------------------------------------------ *)
(* mrm2 batch CLI on the committed fixture                              *)

let mrm2 = Filename.concat (Filename.concat ".." "bin") "mrm2.exe"

let test_batch_cli_fixture () =
  let out = Filename.temp_file "mrm2_batch" ".out" in
  let command =
    Printf.sprintf "MRM2_JOBS=2 %s batch fixtures/batch_jobs.jsonl > %s 2>/dev/null"
      mrm2 out
  in
  let status = Sys.command command in
  let lines =
    let ic = open_in out in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec loop acc =
          match input_line ic with
          | line -> loop (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        loop [])
  in
  Sys.remove out;
  Alcotest.(check int) "exit code" 0 status;
  Alcotest.(check int) "one JSONL line per job" 4 (List.length lines);
  let parsed = List.map Json.parse_exn lines in
  List.iter
    (fun json ->
      Alcotest.(check (option string)) "status ok" (Some "ok")
        (Option.bind (Json.member "status" json) Json.to_str))
    parsed;
  (* The duplicate spec line must reference the representative... *)
  let dup = List.nth parsed 1 in
  Alcotest.(check (option string)) "dedup over the wire" (Some "small")
    (Option.bind (Json.member "duplicate_of" dup) Json.to_str);
  (* ...and agree with the library solving the same model directly
     (which is also what `mrm2 moments --model onoff --sigma2 1 --size 8`
     prints — asserted end-to-end by the @batch-smoke dune alias). *)
  let model =
    Onoff.model
      { (Onoff.table1 ~sigma2:1.) with sources = 8; capacity = 8. }
  in
  let direct = Randomization.moments model ~t:1. ~order:3 in
  let expected =
    Array.to_list
      (Array.init 4 (fun n ->
           Vec.dot (model : Model.t).Model.initial direct.moments.(n)))
  in
  let first_moments =
    Option.bind (Json.member "points" (List.hd parsed)) Json.to_list
    |> Option.value ~default:[] |> List.hd |> Json.member "moments"
    |> Fun.flip Option.bind Json.to_list
    |> Option.value ~default:[]
    |> List.filter_map Json.to_float
  in
  List.iteri
    (fun n expected_value ->
      let got = List.nth first_moments n in
      if abs_float (got -. expected_value) > 1e-9 *. (1. +. abs_float expected_value)
      then
        Alcotest.failf "CLI moment %d: %.17g vs library %.17g" n got
          expected_value)
    expected

(* Moments and stationary jobs ride the same JSONL stream: the mixed
   fixture has a moments job, two identical stationary jobs (dedup must
   work across the new kind) and a stationary job loaded from a model
   file. *)
let test_batch_cli_mixed_kinds () =
  let out = Filename.temp_file "mrm2_mixed" ".out" in
  let command =
    Printf.sprintf
      "%s batch --jobs 1 fixtures/batch_mixed_kinds.jsonl > %s 2>/dev/null"
      mrm2 out
  in
  let status = Sys.command command in
  let lines =
    let ic = open_in out in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec loop acc =
          match input_line ic with
          | line -> loop (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        loop [])
  in
  Sys.remove out;
  Alcotest.(check int) "exit code" 0 status;
  Alcotest.(check int) "one line per job" 4 (List.length lines);
  let parsed = List.map Json.parse_exn lines in
  List.iter
    (fun json ->
      Alcotest.(check (option string)) "status ok" (Some "ok")
        (Option.bind (Json.member "status" json) Json.to_str))
    parsed;
  let nth = List.nth parsed in
  (* the moments job keeps the points shape *)
  Alcotest.(check bool) "moments job has points" true
    (Json.member "points" (nth 0) <> None);
  Alcotest.(check bool) "moments job has no stationary" true
    (Json.member "stationary" (nth 0) = None);
  (* both stationary jobs carry a stationary object, and the duplicate
     references the representative *)
  Alcotest.(check (option string)) "stationary dedup over the wire"
    (Some "stat")
    (Option.bind (Json.member "duplicate_of" (nth 2)) Json.to_str);
  let stationary_of json =
    match Json.member "stationary" json with
    | Some s -> s
    | None -> Alcotest.fail "stationary job lacks a stationary object"
  in
  let marginal json =
    Option.bind (Json.member "marginal" (stationary_of json)) Json.to_list
    |> Option.value ~default:[] |> List.filter_map Json.to_float
  in
  let mass = List.fold_left ( +. ) 0. (marginal (nth 1)) in
  if abs_float (mass -. 1.) > 1e-9 then
    Alcotest.failf "stationary marginal mass %.12g" mass;
  (* the wire result agrees with the library solving the same model *)
  let model =
    Onoff.model { (Onoff.table1 ~sigma2:1.) with sources = 8; capacity = 8. }
  in
  let direct = Mrm_mmbm.Mmbm.solve ~drain:5. ~regularize:0.001 model in
  let wire_rate =
    Option.bind
      (Json.member "reward_rate" (stationary_of (nth 1)))
      Json.to_float
    |> Option.value ~default:nan
  in
  if
    abs_float (wire_rate -. direct.Mrm_mmbm.Mmbm.reward_rate)
    > 1e-12 *. (1. +. abs_float wire_rate)
  then
    Alcotest.failf "CLI reward rate %.17g vs library %.17g" wire_rate
      direct.Mrm_mmbm.Mmbm.reward_rate;
  (* the file-loaded stationary job solved too (its model needs neither
     drain nor regularization) *)
  let file_mass = List.fold_left ( +. ) 0. (marginal (nth 3)) in
  if abs_float (file_mass -. 1.) > 1e-9 then
    Alcotest.failf "file-model marginal mass %.12g" file_mass

(* An unknown kind must fail the whole batch up front with the
   structured MRM069 message naming the offender and the supported
   set — same shape as any other spec error. *)
let test_batch_cli_unknown_kind () =
  let err = Filename.temp_file "mrm2_kind" ".err" in
  let command =
    Printf.sprintf
      "printf '{\"model\":\"onoff\",\"t\":1,\"kind\":\"spectral\"}\\n' \
       | %s batch --jobs 1 - > /dev/null 2> %s"
      mrm2 err
  in
  let status = Sys.command command in
  let err_text =
    let ic = open_in err in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove err;
  Alcotest.(check int) "exit code" 1 status;
  let contains sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length err_text
      && (String.sub err_text i n = sub || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun sub ->
      Alcotest.(check bool)
        (Printf.sprintf "stderr mentions %S (got: %s)" sub err_text)
        true (contains sub))
    [ "MRM069"; "\"spectral\""; "moments"; "stationary" ]

(* Default ids and diagnostics must be numbered by the *original* input
   line: blank (and whitespace-only) lines advance the counter without
   producing a job, so "job-N" always points back at line N of the
   file the user can open. *)
let test_batch_blank_line_ids () =
  let out = Filename.temp_file "mrm2_blank" ".out" in
  let command =
    Printf.sprintf "%s batch --jobs 1 fixtures/batch_blank_lines.jsonl > %s 2>/dev/null"
      mrm2 out
  in
  let status = Sys.command command in
  let ids =
    let ic = open_in out in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec loop acc =
          match input_line ic with
          | line ->
              let id =
                Option.bind (Json.member "id" (Json.parse_exn line))
                  Json.to_str
                |> Option.value ~default:"?"
              in
              loop (id :: acc)
          | exception End_of_file -> List.rev acc
        in
        loop [])
  in
  Sys.remove out;
  Alcotest.(check int) "exit code" 0 status;
  (* fixture: jobs on lines 1, 3, 6; lines 2, 4 empty, line 5 spaces *)
  Alcotest.(check (list string))
    "ids numbered by original line" [ "job-1"; "job-3"; "named" ] ids

(* A refused line is named by its line number and its own string
   "id", as serve's SRV001 reply names it; a line that is not JSON, or
   has no string id, by its default id job-N. *)
let test_batch_blank_line_error_lineno () =
  let err = Filename.temp_file "mrm2_blank" ".err" in
  let command =
    Printf.sprintf
      "printf '{\"model\":\"onoff\",\"sigma2\":1,\"size\":4,\"t\":1}\\n\\n\\nnot json\\n\
       {\"id\":\"tinf\",\"model\":\"onoff\",\"size\":8,\"t\":1e999}\\n\
       {\"model\":\"onoff\",\"size\":8,\"t\":1e999}\\n\
       {\"id\":7,\"model\":\"onoff\",\"size\":8,\"t\":1}\\n' \
       | %s batch --jobs 1 - > /dev/null 2> %s"
      mrm2 err
  in
  let status = Sys.command command in
  let err_text =
    let ic = open_in err in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove err;
  Alcotest.(check int) "exit code" 1 status;
  let contains sub s =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun expected ->
      if not (contains expected err_text) then
        Alcotest.failf "no %S in: %s" expected err_text)
    [
      "line 4 (job-4): ";
      "line 5 (tinf): MRM060: ";
      "line 6 (job-6): MRM060: ";
      "line 7 (job-7): field \"id\"";
    ]

(* The structural digest must survive a Model_io save -> parse round
   trip: the writer prints floats with %.17g, so a job rebuilt from the
   serialized model dedups against the original (this is also what
   makes the server's cache key stable across clients that ship the
   same model file). *)
let test_batch_digest_model_io_round_trip () =
  let module Model_io = Mrm_core.Model_io in
  List.iter
    (fun sigma2 ->
      let model =
        Onoff.model { (Onoff.table1 ~sigma2) with sources = 6; capacity = 6. }
      in
      let job =
        {
          Batch.id = "orig";
          model;
          times = [| 0.25; 1.0 |];
          order = 3;
          eps = 1e-9;
          kind = Batch.Moments;
        }
      in
      let reparsed =
        Result.get_ok (Model_io.parse_string_result (Model_io.to_string model))
      in
      let reparsed = reparsed.Model_io.model in
      let job' = { job with Batch.id = "reparsed"; model = reparsed } in
      Alcotest.(check string)
        (Printf.sprintf "digest stable across Model_io round trip (sigma2=%g)"
           sigma2)
        (Batch.digest job) (Batch.digest job');
      (* same stability for the stationary kind: the cache key must not
         depend on which client serialized the model... *)
      let stat k = { k with Batch.kind = Batch.Stationary { drain = 2.5; regularize = 1e-3 } } in
      Alcotest.(check string)
        (Printf.sprintf "stationary digest stable across round trip (sigma2=%g)"
           sigma2)
        (Batch.digest (stat job)) (Batch.digest (stat job'));
      (* ...while different kinds (and different stationary parameters)
         must never collide *)
      Alcotest.(check bool) "kind discriminates the digest" true
        (Batch.digest job <> Batch.digest (stat job));
      let stat' k =
        { k with Batch.kind = Batch.Stationary { drain = 2.5; regularize = 0. } }
      in
      Alcotest.(check bool) "stationary params discriminate" true
        (Batch.digest (stat job) <> Batch.digest (stat' job)))
    [ 1.; 10.; 0.3 ]

(* The digest bytes are the serve cache keys and the route shard keys:
   every spec of the fixture must still hash to its recorded hex. *)
let test_batch_digests_pinned () =
  let pinned =
    In_channel.with_open_text "fixtures/batch_digests.txt"
      In_channel.input_lines
    |> List.filter (fun line -> line <> "" && line.[0] <> '#')
  in
  Alcotest.(check int) "pinned specs" 12 (List.length pinned);
  List.iter
    (fun line ->
      match String.index_opt line ' ' with
      | None -> Alcotest.failf "malformed fixture line: %s" line
      | Some i -> (
          let hex = String.sub line 0 i in
          let spec = String.sub line (i + 1) (String.length line - i - 1) in
          match
            Batch.job_of_json ~default_id:"pinned" (Json.parse_exn spec)
          with
          | Error e -> Alcotest.failf "%s: %s" spec e
          | Ok job -> Alcotest.(check string) spec hex (Batch.digest job)))
    pinned

(* ------------------------------------------------------------------ *)
(* Persistent pinned chunks: Pool.run_pinned and Kernel.sweep           *)

let test_run_pinned_semantics () =
  Pool.with_pool ~jobs:2 (fun pool ->
      (* Shapes the barrier protocol cannot serve are refused (the
         caller falls back), never deadlocked on. *)
      Alcotest.(check bool)
        "parties > jobs refused" false
        (Pool.run_pinned pool ~parties:3 ~rounds:2 (fun ~round:_ _ -> ()));
      Alcotest.(check bool)
        "rounds = 0 refused" false
        (Pool.run_pinned pool ~parties:2 ~rounds:0 (fun ~round:_ _ -> ()));
      let seq = Atomic.make 0 in
      let stamp = Array.make_matrix 3 2 (-1) in
      let accepted =
        Pool.run_pinned pool ~parties:2 ~rounds:3 (fun ~round k ->
            stamp.(round).(k) <- Atomic.fetch_and_add seq 1)
      in
      (* The sequential backend (OCaml 4) always declines; when the
         domains backend accepts, every (round, party) pair ran exactly
         once and the barrier totally orders rounds. *)
      if accepted then begin
        Alcotest.(check int) "6 executions" 6 (Atomic.get seq);
        Array.iteri
          (fun r per_round ->
            Array.iteri
              (fun k s ->
                if s < 0 then Alcotest.failf "round %d party %d never ran" r k)
              per_round)
          stamp;
        for r = 0 to 1 do
          let last = max stamp.(r).(0) stamp.(r).(1) in
          let first = min stamp.(r + 1).(0) stamp.(r + 1).(1) in
          Alcotest.(check bool)
            (Printf.sprintf "round %d completes before round %d" r (r + 1))
            true (last < first)
        done
      end)

let test_run_pinned_single_job () =
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check bool)
        "1-job pool declines pinned mode" false
        (Pool.run_pinned pool ~parties:1 ~rounds:2 (fun ~round:_ _ -> ())))

let check_sweep_coverage name pool partition ~rows ~rounds =
  let hits = Array.make_matrix rounds rows 0 in
  Kernel.sweep pool partition ~rounds (fun ~round ~lo ~hi ->
      for i = lo to hi - 1 do
        hits.(round).(i) <- hits.(round).(i) + 1
      done);
  Array.iteri
    (fun r per_round ->
      Alcotest.(check (array int))
        (Printf.sprintf "%s: every row once in round %d" name r)
        (Array.make rows 1) per_round)
    hits

let test_sweep_coverage () =
  let rows = 10 and rounds = 4 in
  let m = diagonal_matrix rows in
  check_sweep_coverage "no pool" None
    (Partition.pinned ~jobs:1 m)
    ~rows ~rounds;
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          check_sweep_coverage
            (Printf.sprintf "jobs=%d pinned" jobs)
            (Some pool)
            (Partition.pinned ~jobs m)
            ~rows ~rounds;
          (* parts > jobs: run_pinned declines, in-caller fallback *)
          check_sweep_coverage
            (Printf.sprintf "jobs=%d fallback" jobs)
            (Some pool)
            (Partition.pinned ~jobs:(jobs + 3) m)
            ~rows ~rounds))
    job_counts;
  (* more parties than rows: the surplus pinned ranges are empty
     (coincident by_nnz boundaries) but their parties still meet every
     barrier — coverage and termination must hold. *)
  Pool.with_pool ~jobs:4 (fun pool ->
      let small = diagonal_matrix 2 in
      check_sweep_coverage "4 parties, 2 rows" (Some pool)
        (Partition.pinned ~jobs:4 small)
        ~rows:2 ~rounds:5)

let test_sweep_exception_propagates () =
  let m = diagonal_matrix 8 in
  Pool.with_pool ~jobs:2 (fun pool ->
      let partition = Partition.pinned ~jobs:2 m in
      let raised =
        try
          Kernel.sweep (Some pool) partition ~rounds:3
            (fun ~round ~lo ~hi:_ ->
              if round = 1 && lo = 0 then failwith "sweep body exploded");
          false
        with Failure msg -> msg = "sweep body exploded"
      in
      Alcotest.(check bool) "exception re-raised" true raised;
      (* the pool survives: plain batches and further pinned sweeps *)
      let total = Atomic.make 0 in
      Pool.run pool 10 (fun i -> ignore (Atomic.fetch_and_add total (i + 1)));
      Alcotest.(check int) "pool survives run" 55 (Atomic.get total);
      let count = Atomic.make 0 in
      Kernel.sweep (Some pool) partition ~rounds:2
        (fun ~round:_ ~lo:_ ~hi:_ -> ignore (Atomic.fetch_and_add count 1));
      Alcotest.(check int) "pool survives sweep" 4 (Atomic.get count))

(* The tentpole parity property: the fused multi-vector product behind
   the sweep — structure detection included — is bit-for-bit equal to
   three independent [Sparse.mv_into_range] calls, over random
   matrices (general CSR and birth-death band), random partition
   granularities (parts > rows yields empty ranges from coincident
   by_nnz boundaries). *)
let prop_mv_fused_matches_mv_into_range =
  QCheck2.Test.make ~count:150
    ~name:"Kernel.mv_fused over any partition = 3x mv_into_range (bitwise)"
    QCheck2.Gen.(
      let* n = int_range 1 24 in
      let* banded = bool in
      let* entries = list_repeat (3 * n) (float_range (-2.) 2.) in
      let* parts = int_range 1 40 in
      let* xs_flat = list_repeat (3 * n) (float_range (-1.) 1.) in
      return (n, banded, entries, parts, Array.of_list xs_flat))
    (fun (n, banded, entries, parts, xs_flat) ->
      let triplets =
        List.mapi
          (fun k v ->
            if banded then begin
              let i = k mod n in
              let j = max 0 (min (n - 1) (i + (k mod 3) - 1)) in
              (i, j, v)
            end
            else (k mod n, ((k * 5) + 1) mod n, v))
          entries
      in
      let m = Sparse.of_triplets ~rows:n ~cols:n triplets in
      let structure = Kernel.detect m in
      (if banded && not (Kernel.structure_kind structure = "tridiagonal")
       then Alcotest.fail "banded matrix not detected as tridiagonal");
      let xs = Array.init 3 (fun s -> Array.sub xs_flat (s * n) n) in
      let got = Array.init 3 (fun _ -> Array.make n Float.nan) in
      let expected = Array.init 3 (fun _ -> Array.make n Float.nan) in
      let partition = Partition.pinned ~jobs:parts m in
      Array.iter
        (fun (lo, hi) ->
          Kernel.mv_fused structure xs got ~lo ~hi;
          for s = 0 to 2 do
            Sparse.mv_into_range m xs.(s) expected.(s) ~lo ~hi
          done)
        (Partition.ranges partition);
      got = expected)

(* One round of [m] over [ranges], by [Kernel.round] on the detected
   structure and by the CSR kernel on [m] itself, against the multi-pass
   round they replaced ([Oracles.multipass_round]), bitwise, in U(k+1)
   and in every accumulator. [u0.(0)] is U^(0) = 1; [acc0.(b).(0)] is
   unused. *)
let round_matches_multipass m ~r' ~s' ~coupling ~order ~u0 ~acc0 ~weights
    ~ranges =
  let n = Sparse.rows m in
  let structure = Kernel.detect m in
  let next_o =
    Array.init (order + 1) (fun j -> if j = 0 then u0.(0) else Vec.zeros n)
  in
  let acc_o = Array.map (Array.map Array.copy) acc0 in
  let terms =
    List.init (Array.length acc0) (fun b -> (weights.(b), acc_o.(b)))
  in
  Array.iter
    (fun (lo, hi) ->
      Oracles.multipass_round structure ~r' ~s' ~coupling ~order ~cur:u0
        ~next:next_o ~terms ~lo ~hi)
    ranges;
  let rewards = { Sparse.r'; s'; coupling } in
  let run round =
    let cur = Sparse.block_of_vectors (Array.sub u0 1 order) in
    let next = Sparse.block ~order ~dim:n in
    let accs =
      Array.map (fun a -> Sparse.block_of_vectors (Array.sub a 1 order)) acc0
    in
    Array.iter
      (fun (lo, hi) -> round rewards ~cur ~next ~weights ~accs ~lo ~hi)
      ranges;
    (next, accs)
  in
  let same b expected =
    let ok = ref true in
    for j = 1 to order do
      for i = 0 to n - 1 do
        if
          Int64.bits_of_float (Sparse.block_get b j i)
          <> Int64.bits_of_float expected.(j).(i)
        then ok := false
      done
    done;
    !ok
  in
  List.for_all
    (fun (next, accs) ->
      same next next_o && Array.for_all2 (fun a e -> same a e) accs acc_o)
    [ run (Kernel.round structure); run (Sparse.round_into_range m) ]

(* [round_matches_multipass] over random matrices: CSR; a band of random
   entries; a band that stores every interior entry (random non-zero
   values, end rows thinned at random); and such a band with exactly one
   interior entry absent. Orders 1-8 and 23 (3 on the full bands, the
   only order their lean rows serve), 0-5 accumulator blocks, with and
   without impulse coupling, over a random partition into row ranges.
   U(k) and the accumulators start from random values with exact zeros
   of both signs mixed in, so the +0/-0 cases of every addition are
   exercised. *)
let prop_round_matches_multipass =
  let shape_name = function
    | `Csr -> "csr"
    | `Band -> "band"
    | `Full -> "interior-full band"
    | `Gap -> "band with one interior gap"
  in
  QCheck2.Test.make ~count:300
    ~name:"Kernel.round over any partition = multi-pass round (bitwise)"
    ~print:(fun (n, shape, order, blocks, impulses, _, cuts) ->
      Printf.sprintf "n=%d shape=%s order=%d blocks=%d impulses=%b cuts=[%s]"
        n (shape_name shape) order blocks impulses
        (String.concat ";" (List.map string_of_int cuts)))
    QCheck2.Gen.(
      let* shape =
        frequencyl [ (2, `Csr); (2, `Band); (2, `Full); (1, `Gap) ]
      in
      let full = match shape with `Full | `Gap -> true | _ -> false in
      let* n = int_range (if full then 3 else 1) 30 in
      let* order =
        if full then return 3 else oneof [ int_range 1 8; return 23 ]
      in
      let* blocks = int_range 0 5 in
      let* impulses = frequencyl [ (2, false); (1, true) ] in
      let* seed = int_bound 1_000_000 in
      let* cuts = list_size (int_range 0 5) (int_range 0 n) in
      return (n, shape, order, blocks, impulses, seed, cuts))
    (fun (n, shape, order, blocks, impulses, seed, cuts) ->
      let rng = Random.State.make [| seed |] in
      let value () =
        match Random.State.int rng 8 with
        | 0 -> 0.
        | 1 -> -0.
        | _ -> Random.State.float rng 4. -. 2.
      in
      let vector () = Array.init n (fun _ -> value ()) in
      let matrix ~band =
        Sparse.of_triplets ~rows:n ~cols:n
          (List.init (3 * n) (fun _ ->
               let i = Random.State.int rng n in
               let j =
                 if band then
                   max 0 (min (n - 1) (i + Random.State.int rng 3 - 1))
                 else Random.State.int rng n
               in
               (i, j, Random.State.float rng 2. -. 1.)))
      in
      (* the one absent interior entry (row, column - row) of a gap band *)
      let absent =
        if shape = `Gap then
          Some (1 + Random.State.int rng (n - 2), Random.State.int rng 3 - 1)
        else None
      in
      let full_band () =
        let nonzero () =
          (if Random.State.bool rng then 1. else -1.)
          *. (0.1 +. Random.State.float rng 0.9)
        in
        Sparse.of_triplets ~rows:n ~cols:n
          (List.concat_map
             (fun i ->
               List.filter_map
                 (fun k ->
                   let j = i + k in
                   let end_row = i = 0 || i = n - 1 in
                   if
                     j < 0 || j >= n
                     || absent = Some (i, k)
                     || (end_row && Random.State.int rng 4 = 0)
                   then None
                   else Some (i, j, nonzero ()))
                 [ -1; 0; 1 ])
             (List.init n Fun.id))
      in
      let m =
        match shape with
        | `Csr -> matrix ~band:false
        | `Band -> matrix ~band:true
        | `Full | `Gap -> full_band ()
      in
      (if shape <> `Csr
          && Kernel.structure_kind (Kernel.detect m) <> "tridiagonal"
       then Alcotest.fail "band matrix not detected as tridiagonal");
      let r' = vector () in
      let s' = Array.map Float.abs (vector ()) in
      let coupling =
        if impulses then
          Array.init order (fun k ->
              ( Random.State.float rng 1.,
                if k mod 3 = 2 then Sparse.of_triplets ~rows:n ~cols:n []
                else matrix ~band:false ))
        else [||]
      in
      let ones = Vec.ones n in
      let u0 =
        Array.init (order + 1) (fun j -> if j = 0 then ones else vector ())
      in
      (* An infinity under the absent entry: a kernel that multiplied
         the absent entry as a zero would get a NaN there. *)
      Option.iter
        (fun (i, k) ->
          u0.(1 + Random.State.int rng order).(i + k) <- Float.infinity)
        absent;
      let acc0 =
        Array.init blocks (fun _ ->
            Array.init (order + 1) (fun j -> if j = 0 then [||] else vector ()))
      in
      let weights = Array.init blocks (fun _ -> Random.State.float rng 1.) in
      let ranges =
        let bounds = List.sort_uniq compare ((0 :: cuts) @ [ n ]) in
        let rec pairs = function
          | a :: (b :: _ as rest) -> (a, b) :: pairs rest
          | _ -> []
        in
        Array.of_list (pairs bounds)
      in
      round_matches_multipass m ~r' ~s' ~coupling ~order ~u0 ~acc0 ~weights
        ~ranges)

(* The models that decide the order-3 band round's path. Ramp's ON-OFF
   band (6,001 states) stores every interior entry, so its rounds run
   the lean interior rows. Repair at 301 states loses row 2's diagonal,
   whose exit rate equals q, and an ON-OFF band with alpha = beta = 3
   loses every diagonal the same way; both keep the per-row tests. Each
   is still a band, and one round of each equals the multi-pass oracle
   bit for bit, sequentially and over a 3-party partition. *)
let test_band_models_round () =
  let rng = Random.State.make [| 29 |] in
  let case name model ~full =
    let g = model.Model.generator in
    let m = Generator.uniformized g ~rate:(Generator.uniformization_rate g) in
    let n = Sparse.rows m in
    let stored i =
      let count = ref 0 in
      Sparse.iter_row m i (fun _ _ -> incr count);
      !count
    in
    Alcotest.(check bool)
      (name ^ ": every interior row stores three entries")
      full
      (List.for_all (fun i -> stored i = 3) (List.init (n - 2) succ));
    Alcotest.(check string) (name ^ ": detected") "tridiagonal"
      (Kernel.structure_kind (Kernel.detect m));
    let vector () =
      Array.init n (fun _ ->
          match Random.State.int rng 8 with
          | 0 -> 0.
          | 1 -> -0.
          | _ -> Random.State.float rng 2.)
    in
    let r' = vector () and s' = Array.map Float.abs (vector ()) in
    let u0 = Array.init 4 (fun j -> if j = 0 then Vec.ones n else vector ()) in
    let acc0 =
      Array.init 3 (fun _ ->
          Array.init 4 (fun j -> if j = 0 then [||] else vector ()))
    in
    let weights = Array.init 3 (fun _ -> Random.State.float rng 1.) in
    List.iter
      (fun partition ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: round over %d range(s) = multi-pass round" name
             (Array.length (Partition.ranges partition)))
          true
          (round_matches_multipass m ~r' ~s' ~coupling:[||] ~order:3 ~u0 ~acc0
             ~weights ~ranges:(Partition.ranges partition)))
      [ Partition.uniform ~parts:1 ~rows:n; Partition.pinned ~jobs:3 m ]
  in
  case "ramp" (Onoff.model (Onoff.scaled_table2 ~sources:6_000)) ~full:true;
  case "repair"
    (Mrm_models.Machine_repair.model
       { Mrm_models.Machine_repair.default with machines = 300 })
    ~full:false;
  case "onoff alpha = beta = 3"
    (Onoff.model
       { (Onoff.table1 ~sigma2:1.) with on_to_off = 3.; off_to_on = 3. })
    ~full:false

(* ------------------------------------------------------------------ *)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "pool",
        [
          Alcotest.test_case "all tasks run once" `Quick
            test_pool_covers_all_tasks;
          Alcotest.test_case "invalid jobs" `Quick test_pool_invalid_jobs;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "re-entrant run" `Quick test_pool_reentrant_run;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_pool_shutdown_idempotent;
          Alcotest.test_case "map_array" `Quick test_map_array;
        ] );
      ( "partition",
        [
          Alcotest.test_case "uniform" `Quick test_partition_uniform;
          Alcotest.test_case "nnz balancing" `Quick test_partition_by_nnz;
          to_alcotest prop_partition_covers_random;
          Alcotest.test_case "imbalance gauge" `Quick
            test_partition_imbalance_gauge;
        ] );
      ("kernel", [ to_alcotest prop_kernel_matches_sequential ]);
      ( "sweep",
        [
          Alcotest.test_case "run_pinned semantics" `Quick
            test_run_pinned_semantics;
          Alcotest.test_case "run_pinned on 1 job" `Quick
            test_run_pinned_single_job;
          Alcotest.test_case "coverage (pinned + fallback)" `Quick
            test_sweep_coverage;
          Alcotest.test_case "exception propagation" `Quick
            test_sweep_exception_propagates;
          to_alcotest prop_mv_fused_matches_mv_into_range;
          to_alcotest prop_round_matches_multipass;
          Alcotest.test_case "band round on ramp, repair, alpha = beta" `Quick
            test_band_models_round;
        ] );
      ( "solver",
        [
          Alcotest.test_case "table-1 parallel = sequential" `Quick
            test_solver_parallel_equals_sequential_table1;
          Alcotest.test_case "2k-state parallel = sequential" `Slow
            test_solver_parallel_equals_sequential_large;
          Alcotest.test_case "moments_at_times with pool" `Quick
            test_moments_at_times_with_pool;
          to_alcotest prop_solver_pool_invariant;
          Alcotest.test_case "moment_series projection" `Quick
            test_moment_series_projection;
        ] );
      ( "batch",
        [
          Alcotest.test_case "dedup + memoization" `Quick test_batch_dedup;
          Alcotest.test_case "matches direct solver" `Quick
            test_batch_matches_direct_solver;
          Alcotest.test_case "error isolation" `Quick
            test_batch_error_isolation;
          Alcotest.test_case "job_of_json" `Quick test_batch_job_of_json;
          Alcotest.test_case "outcome JSON round trip" `Quick
            test_batch_outcome_json_round_trip;
          Alcotest.test_case "CLI fixture" `Quick test_batch_cli_fixture;
          Alcotest.test_case "CLI mixed kinds" `Quick
            test_batch_cli_mixed_kinds;
          Alcotest.test_case "CLI unknown kind" `Quick
            test_batch_cli_unknown_kind;
          Alcotest.test_case "CLI blank-line ids" `Quick
            test_batch_blank_line_ids;
          Alcotest.test_case "CLI blank-line error lineno" `Quick
            test_batch_blank_line_error_lineno;
          Alcotest.test_case "digest stable across Model_io" `Quick
            test_batch_digest_model_io_round_trip;
          Alcotest.test_case "digests pinned" `Quick test_batch_digests_pinned;
        ] );
    ]

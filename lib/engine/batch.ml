module Json = Mrm_util.Json
module Trace = Mrm_obs.Trace
module Metrics = Mrm_obs.Metrics
module Pool = Mrm_engine.Pool
module Vec = Mrm_linalg.Vec
module Sparse = Mrm_linalg.Sparse
module Generator = Mrm_ctmc.Generator
module Model = Mrm_core.Model
module Model_io = Mrm_core.Model_io

type meth = Randomization | Ode | Gaver

type kind = Moments | Stationary of { drain : float; regularize : float }

type job = {
  id : string;
  model : Model.t;
  times : float array;
  order : int;
  eps : float;
  meth : meth;
  kind : kind;
}

type point = { time : float; values : float array; iterations : int option }

type density = {
  marginal : float array;
  mean_level : float;
  reward_rate : float;
  tau : float;
  cr_iterations : int;
  residual : float;
  stationary_warnings : string list;
}

type solution = Points of point array | Density of density

type outcome = {
  id : string;
  digest : string;
  duplicate_of : string option;
  elapsed : float;
  result : (solution, string) result;
}

(* ------------------------------------------------------------------ *)
(* Structural digest: the full model content plus solve parameters.
   Floats are keyed by their bit pattern — dedup means "the solver
   would compute the exact same thing", nothing fuzzier. *)

let add_float buf x = Buffer.add_int64_le buf (Int64.bits_of_float x)
let add_int buf k = Buffer.add_int64_le buf (Int64.of_int k)

let add_floats buf a =
  add_int buf (Array.length a);
  Array.iter (add_float buf) a

let digest job =
  let buf = Buffer.create 1024 in
  let m = job.model.Model.generator |> Generator.matrix in
  add_int buf (Sparse.rows m);
  Sparse.iter m (fun i j v ->
      add_int buf i;
      add_int buf j;
      add_float buf v);
  add_floats buf job.model.Model.rates;
  add_floats buf job.model.Model.variances;
  add_floats buf job.model.Model.initial;
  add_floats buf job.times;
  add_int buf job.order;
  add_float buf job.eps;
  add_int buf (match job.meth with Randomization -> 0 | Ode -> 1 | Gaver -> 2);
  (* Moments digests end here, byte-identical to the pre-kind format, so
     existing caches and dedup keys survive. Stationary jobs append a
     discriminating tag plus their own parameters. *)
  (match job.kind with
  | Moments -> ()
  | Stationary { drain; regularize } ->
      add_int buf 1;
      add_float buf drain;
      add_float buf regularize);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Solving                                                              *)

let unconditional model ~order vectors =
  let pi = model.Model.initial in
  Array.init (order + 1) (fun n -> Vec.dot pi vectors.(n))

let solve_stationary job ~drain ~regularize =
  let r =
    Mrm_mmbm.Mmbm.solve ~drain
      ?regularize:(if regularize > 0. then Some regularize else None)
      job.model
  in
  Density
    {
      marginal = r.Mrm_mmbm.Mmbm.marginal;
      mean_level = r.Mrm_mmbm.Mmbm.mean_level;
      reward_rate = r.Mrm_mmbm.Mmbm.reward_rate;
      tau = r.Mrm_mmbm.Mmbm.tau;
      cr_iterations = r.Mrm_mmbm.Mmbm.iterations;
      residual = r.Mrm_mmbm.Mmbm.residual;
      stationary_warnings =
        List.map
          (fun (d : Mrm_check.Diagnostics.t) ->
            Printf.sprintf "%s: %s" d.code d.message)
          r.Mrm_mmbm.Mmbm.warnings;
    }

let solve_moments ?pool job =
  match job.meth with
  | Randomization ->
      let results =
        Mrm_core.Randomization.moments_at_times ?pool ~eps:job.eps job.model
          ~times:job.times ~order:job.order
      in
      Array.mapi
        (fun k (r : Mrm_core.Randomization.result) ->
          {
            time = job.times.(k);
            values = unconditional job.model ~order:job.order r.moments;
            iterations = Some r.diagnostics.iterations;
          })
        results
  | Ode ->
      Array.map
        (fun time ->
          let m =
            Mrm_core.Moments_ode.moments job.model ~t:time ~order:job.order
          in
          {
            time;
            values = unconditional job.model ~order:job.order m;
            iterations = None;
          })
        job.times
  | Gaver ->
      Array.map
        (fun time ->
          let m =
            Mrm_core.Transform_moments.moments job.model ~t:time
              ~order:job.order
          in
          {
            time;
            values = unconditional job.model ~order:job.order m;
            iterations = None;
          })
        job.times

let solve ?pool job =
  match job.kind with
  | Moments -> Points (solve_moments ?pool job)
  | Stationary { drain; regularize } -> solve_stationary job ~drain ~regularize

let timed_solve ?pool job =
  let t0 = Unix.gettimeofday () in
  let result =
    match solve ?pool job with
    | solution -> Ok solution
    | exception exn -> Error (Printexc.to_string exn)
  in
  (result, Unix.gettimeofday () -. t0)

let m_jobs = Metrics.counter "batch.jobs"
let m_dedup_hits = Metrics.counter "batch.dedup_hits"

let run ?pool jobs =
  let n = Array.length jobs in
  Trace.with_span "batch.run" ~attrs:[ ("jobs", Trace.Int n) ] @@ fun () ->
  let digests = Array.map digest jobs in
  (* representative.(i) is the first job with job i's digest. *)
  let first_of_digest = Hashtbl.create (2 * n) in
  let representative =
    Array.mapi
      (fun i key ->
        match Hashtbl.find_opt first_of_digest key with
        | Some j -> j
        | None ->
            Hashtbl.add first_of_digest key i;
            i)
      digests
  in
  let unique =
    Array.of_seq
      (Seq.filter
         (fun i -> Int.equal representative.(i) i)
         (Seq.init n (fun i -> i)))
  in
  Metrics.incr ~by:n m_jobs;
  Metrics.incr ~by:(n - Array.length unique) m_dedup_hits;
  Trace.add_attr "unique" (Trace.Int (Array.length unique));
  (* Outer level: unique jobs across the pool. Each solve also receives
     the pool; re-entrant use degrades to sequential, so exactly one
     level wins (inner when there is a single unique job — map_array of
     one task runs in the caller without claiming the pool). *)
  let solved =
    match pool with
    | Some pool -> Pool.map_array pool (fun i -> timed_solve ~pool jobs.(i)) unique
    | None -> Array.map (fun i -> timed_solve jobs.(i)) unique
  in
  let slot = Array.make n (-1) in
  Array.iteri (fun pos i -> slot.(i) <- pos) unique;
  Array.mapi
    (fun i (job : job) ->
      let rep = representative.(i) in
      let result, elapsed = solved.(slot.(rep)) in
      {
        id = job.id;
        digest = digests.(i);
        duplicate_of = (if Int.equal rep i then None else Some jobs.(rep).id);
        elapsed = (if Int.equal rep i then elapsed else 0.);
        result;
      })
    jobs

(* ------------------------------------------------------------------ *)
(* JSONL wire format                                                    *)

let ( let* ) r f = Result.bind r f

let field_or json key ~default decode =
  match Json.member key json with
  | None -> Ok default
  | Some v -> (
      match decode v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S: invalid value" key))

let meth_of_string = function
  | "randomization" | "rand" -> Some Randomization
  | "ode" -> Some Ode
  | "gaver" -> Some Gaver
  | _ -> None

let model_of_spec json =
  match (Json.member "file" json, Json.member "model" json) with
  | Some _, Some _ -> Error "give either \"file\" or \"model\", not both"
  | None, None -> Error "missing model source (\"file\" or \"model\")"
  | Some f, None -> (
      match Json.to_str f with
      | None -> Error "field \"file\": expected a string"
      | Some path -> (
          match Model_io.load path with
          | { Model_io.model; impulses = [] } -> Ok model
          | { Model_io.impulses = _ :: _; _ } ->
              Error
                (Printf.sprintf
                   "%s declares impulse rewards, unsupported in batch \
                    (use mrm2 moments)"
                   path)
          | exception exn -> Error (Printexc.to_string exn)))
  | None, Some m -> (
      match Json.to_str m with
      | None -> Error "field \"model\": expected a built-in name"
      | Some name ->
          let* sigma2 = field_or json "sigma2" ~default:1.0 Json.to_float in
          let* size = field_or json "size" ~default:32 Json.to_int in
          Mrm_models.Builtin.model name ~sigma2 ~size)

let times_of_spec json =
  match (Json.member "times" json, Json.member "t" json) with
  | Some _, Some _ -> Error "give either \"times\" or \"t\", not both"
  | None, None -> Error "missing time points (\"times\" or \"t\")"
  | None, Some t -> (
      match Json.to_float t with
      | Some t -> Ok [| t |]
      | None -> Error "field \"t\": expected a number")
  | Some l, None -> (
      match Json.to_list l with
      | None -> Error "field \"times\": expected an array"
      | Some items -> (
          let floats = List.filter_map Json.to_float items in
          match (floats, List.length floats = List.length items) with
          | [], _ -> Error "field \"times\": empty"
          | _, false -> Error "field \"times\": expected numbers"
          | floats, true -> Ok (Array.of_list floats)))

let supported_kinds = [ "moments"; "stationary" ]

let kind_of_json json =
  match Json.member "kind" json with
  | None -> Ok `Moments
  | Some v -> (
      match Json.to_str v with
      | None -> Error "field \"kind\": expected a string"
      | Some "moments" -> Ok `Moments
      | Some "stationary" -> Ok `Stationary
      | Some other ->
          Error
            (Printf.sprintf "MRM069: unknown job kind %S (supported: %s)"
               other
               (String.concat ", " supported_kinds)))

let job_of_json ~default_id ?(default_eps = 1e-9) json =
  match json with
  | Json.Obj _ ->
      let* id = field_or json "id" ~default:default_id Json.to_str in
      let* kind_tag = kind_of_json json in
      let* model = model_of_spec json in
      let* times =
        (* Stationary solves have no time axis; tolerate an absent spec
           (an explicit one is still validated so typos surface). *)
        match (kind_tag, Json.member "times" json, Json.member "t" json) with
        | `Stationary, None, None -> Ok [||]
        | _ -> times_of_spec json
      in
      let* order = field_or json "order" ~default:3 Json.to_int in
      let* eps = field_or json "eps" ~default:default_eps Json.to_float in
      let* meth =
        field_or json "method" ~default:Randomization (fun v ->
            Option.bind (Json.to_str v) meth_of_string)
      in
      let* kind =
        match kind_tag with
        | `Moments -> Ok Moments
        | `Stationary ->
            let* drain = field_or json "drain" ~default:0. Json.to_float in
            let* regularize =
              field_or json "regularize" ~default:0. Json.to_float
            in
            if not (Float.is_finite drain) then
              Error "field \"drain\": must be finite"
            else if not (Float.is_finite regularize && regularize >= 0.) then
              Error "field \"regularize\": must be >= 0"
            else Ok (Stationary { drain; regularize })
      in
      if order < 0 then Error "field \"order\": must be >= 0"
      else if not (eps > 0.) then Error "field \"eps\": must be > 0"
      else if Array.exists (fun t -> t < 0.) times then
        Error "field \"times\": must be >= 0"
      else Ok { id; model; times; order; eps; meth; kind }
  | _ -> Error "job spec must be a JSON object"

let outcome_to_json o =
  let open Json in
  let common =
    [
      ("id", Str o.id);
      ("digest", Str o.digest);
      ( "duplicate_of",
        match o.duplicate_of with None -> Null | Some id -> Str id );
      ("elapsed", Num o.elapsed);
    ]
  in
  match o.result with
  | Error message ->
      Obj (common @ [ ("status", Str "error"); ("error", Str message) ])
  | Ok (Points points) ->
      let point p =
        Obj
          ([
             ("t", Num p.time);
             ("moments", List (Array.to_list (Array.map (fun v -> Num v) p.values)));
           ]
          @
          match p.iterations with
          | None -> []
          | Some g -> [ ("iterations", Num (float_of_int g)) ])
      in
      Obj
        (common
        @ [
            ("status", Str "ok");
            ("points", List (Array.to_list (Array.map point points)));
          ])
  | Ok (Density d) ->
      let nums a = List (Array.to_list (Array.map (fun v -> Num v) a)) in
      Obj
        (common
        @ [
            ("status", Str "ok");
            ( "stationary",
              Obj
                [
                  ("marginal", nums d.marginal);
                  ("mean_level", Num d.mean_level);
                  ("reward_rate", Num d.reward_rate);
                  ("tau", Num d.tau);
                  ("iterations", Num (float_of_int d.cr_iterations));
                  ("residual", Num d.residual);
                  ( "warnings",
                    List (List.map (fun w -> Str w) d.stationary_warnings) );
                ] );
          ])

type t = Pool_backend.t

let m_runs = Mrm_obs.Metrics.counter "pool.runs"
let m_jobs = Mrm_obs.Metrics.counter "pool.jobs"

let parallelism_available = Pool_backend.parallelism_available

let default_jobs () =
  let env =
    Option.bind (Sys.getenv_opt "MRM2_JOBS") (fun raw ->
        int_of_string_opt (String.trim raw))
  in
  match env with
  | Some j when j >= 1 -> j
  | _ -> Pool_backend.recommended_jobs ()

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  Pool_backend.create ~jobs

let jobs = Pool_backend.jobs
let shutdown = Pool_backend.shutdown

let recommended_jobs = Pool_backend.recommended_jobs

let run pool n f =
  Mrm_obs.Metrics.incr m_runs;
  Mrm_obs.Metrics.incr ~by:(max 0 n) m_jobs;
  Pool_backend.run pool n f

let run_pinned pool ~parties ~rounds body =
  let accepted = Pool_backend.run_pinned pool ~parties ~rounds body in
  if accepted then begin
    Mrm_obs.Metrics.incr m_runs;
    Mrm_obs.Metrics.incr ~by:(max 0 parties) m_jobs
  end;
  accepted

let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let map_array pool f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    run pool n (fun i -> out.(i) <- Some (f xs.(i)));
    Array.map (function Some v -> v | None -> assert false) out
  end

module Generator = Mrm_ctmc.Generator
module Poisson = Mrm_ctmc.Poisson
module Sparse = Mrm_linalg.Sparse
module Vec = Mrm_linalg.Vec
module Special = Mrm_util.Special
module Pool = Mrm_engine.Pool
module Partition = Mrm_engine.Partition
module Kernel = Mrm_engine.Kernel
module Trace = Mrm_obs.Trace
module Metrics = Mrm_obs.Metrics

(* Observability: per-solve counters/gauges and spans (see Mrm_obs).
   Recording is observational only — the computed values are bit-for-bit
   identical with tracing on or off. *)
let m_solves = Metrics.counter "randomization.solves"
let m_iterations = Metrics.counter "randomization.iterations"
let m_terms_skipped = Metrics.counter "randomization.terms_skipped"
let m_truncation = Metrics.gauge "randomization.truncation_point"

let record_truncation g =
  Metrics.incr ~by:g m_iterations;
  Metrics.set m_truncation (float_of_int g);
  Trace.add_attr "G" (Trace.Int g)

type diagnostics = {
  q : float;
  d : float;
  iterations : int;
  eps : float;
  log_error_bound : float;
}

type result = { moments : float array array; diagnostics : diagnostics }

(* Closed-form path for models without transitions (q = 0): each state is a
   plain Brownian motion, eq. (6) decouples. *)
let moments_no_transitions model ~t ~order =
  let n = Model.dim model in
  Array.init (order + 1) (fun k ->
      Array.init n (fun i ->
          Mrm_brownian.Brownian.raw_moment
            (Model.brownian_of_state model i)
            ~t k))

(* ------------------------------------------------------------------ *)
(* The fused, double-buffered uniformization sweep shared by the
   sequential and parallel paths.

   Execution context: the detected matrix structure (tridiagonal band
   for birth-death generators, CSR otherwise) plus a row partition.
   With a multi-domain pool the partition is pinned — exactly one
   range per pool party ([Partition.pinned]) — so [Kernel.sweep] can
   keep every party on its own rows for all G iterations with a single
   barrier per iteration. Without a pool (or with 1 job) the same
   round bodies run in the caller over one full-width range, which is
   bit-for-bit identical because rounds write disjoint row slices. *)

type sweep_ctx = {
  sw_pool : Pool.t option;
  sw_partition : Partition.t;
  sw_structure : Kernel.structure;
}

let sweep_context pool q' ~n_states =
  let structure = Kernel.detect q' in
  Trace.add_attr "structure" (Trace.Str (Kernel.structure_kind structure));
  match pool with
  | Some p when Pool.jobs p > 1 ->
      {
        sw_pool = Some p;
        sw_partition = Partition.pinned ~jobs:(Pool.jobs p) q';
        sw_structure = structure;
      }
  | _ ->
      {
        sw_pool = None;
        sw_partition = Partition.uniform ~parts:1 ~rows:n_states;
        sw_structure = structure;
      }

(* Impulse coupling matrices (1/m!, P^(m)) for m = 1..order, with
   P^(m)_ij = q_ij rho_ij^m / (q d^m) on the support of rho. *)
let coupling_matrices generator rho ~q ~d ~order =
  let n = Sparse.rows rho and qm = Generator.matrix generator in
  Array.init order (fun k ->
      let m = float_of_int (k + 1) in
      let triplets = ref [] in
      Sparse.iter rho (fun i j r ->
          triplets := (i, j, Sparse.get qm i j *. (r ** m)) :: !triplets);
      ( 1. /. Special.factorial (k + 1),
        Sparse.scale (1. /. (q *. (d ** m)))
          (Sparse.of_triplets ~rows:n ~cols:n !triplets) ))

(* Run the whole recursion: G rounds, round k advancing U(k) -> U(k+1)
   and folding U(k+1) into the accumulator blocks listed in
   [terms.(k+1)].

   U^(j)(k+1) = Q' U^(j)(k) + R' U^(j-1)(k) + (1/2) S' U^(j-2)(k)
   (plus the impulse terms when the model has impulse rewards);
   U^(0)(k) = h always (the generator is conservative), so it is never
   stored. Reads go to the current buffer, writes to the next, so one
   barrier per round suffices, and each round is one pass per row
   ([Kernel.round]): the matrix row walked once for all orders, the
   reward and impulse terms, then the step's Poisson terms. The
   element-wise operation sequence is exactly the one the historic
   multi-pass body performed (a fused mat-vec, then element-wise R',
   S', impulse and accumulator passes; kept as the test oracle), so
   results are bit-for-bit unchanged — sequential or parallel, CSR or
   tridiagonal.

   [terms.(k)] holds the weights and accumulator blocks step k
   contributes to; zero-weight terms were dropped (and counted) by the
   caller. [terms.(0)] is never read: U^(j)(0) = 0 for j >= 1, and
   adding w * 0. to a +0. accumulator leaves +0. bit-for-bit, so the
   historic k = 0 accumulation was a no-op. *)
let run_sweep ctx rewards ~order ~n_states ~g ~terms =
  let buf_a = Sparse.block ~order ~dim:n_states
  and buf_b = Sparse.block ~order ~dim:n_states in
  let body ~round ~lo ~hi =
    let cur, next =
      if round land 1 = 0 then (buf_a, buf_b) else (buf_b, buf_a)
    in
    let weights, accs = terms.(round + 1) in
    Kernel.round ctx.sw_structure rewards ~cur ~next ~weights ~accs ~lo ~hi
  in
  Kernel.sweep ctx.sw_pool ctx.sw_partition ~rounds:g body

(* The one solve behind [moments] and [moments_at_times], run inside
   the caller's span. Each time point either takes a closed form (t = 0,
   no transitions, or one shared drift and no variance) or joins the
   shared sweep: the U^(n)(k) recursion does not depend on t, only the
   Poisson weights do, so one pass to the largest per-time G serves
   every point, each folding its own weights into its own accumulators.
   R' keeps the sign of the drifts (see the .mli note on d). A non-empty
   impulse matrix [rho] raises d to dominate it, switches to the
   impulse truncation rule and adds the coupling terms to the sweep; a
   model with impulses never has a constant drift. *)
let solve ?pool ?impulses model ~times ~order ~eps =
  Metrics.incr m_solves;
  let n_states = Model.dim model in
  let q = Generator.uniformization_rate model.Model.generator in
  let rho =
    Option.bind impulses (fun rho ->
        if Sparse.nnz rho > 0 then Some rho else None)
  in
  let d =
    let max_rho = ref 0. in
    Option.iter
      (fun rho ->
        Sparse.iter rho (fun _ _ r -> max_rho := Float.max !max_rho r))
      rho;
    Float.max !max_rho
      (Mrm_check.Check.reward_scaling ~q ~rates:model.Model.rates
         ~variances:model.Model.variances)
  in
  let min_rate = Model.min_rate model in
  let constant_drift =
    Option.is_none rho
    && Model.is_first_order model
    && Float.equal min_rate (Model.max_rate model)
  in
  let closed_form t =
    let closed path moments =
      let diagnostics =
        { q; d = 0.; iterations = 0; eps; log_error_bound = neg_infinity }
      in
      Some (path, { moments; diagnostics })
    in
    (* t = 0 is exact: B(0) = 0, so moment 0 is 1 and every higher
       moment vanishes; no truncation point is involved (computing one
       would need log(lambda) with lambda = qt = 0). *)
    if t = 0. then
      closed "t=0"
        (Array.init (order + 1) (fun n ->
             if n = 0 then Vec.ones n_states else Vec.zeros n_states))
    else if q = 0. then
      closed "no-transitions" (moments_no_transitions model ~t ~order)
    else if constant_drift then
      (* Every state has drift c and no variance: B(t) = c t exactly. *)
      let ct = min_rate *. t in
      closed "constant-drift"
        (Array.init (order + 1) (fun n ->
             Array.make n_states (ct ** float_of_int n)))
    else None
  in
  let closed = Array.map closed_form times in
  (match
     List.sort_uniq String.compare
       (List.filter_map (Option.map fst) (Array.to_list closed))
   with
  | [] -> ()
  | paths -> Trace.add_attr "path" (Trace.Str (String.concat "," paths)));
  let swept i = Option.is_none closed.(i) in
  if not (Array.exists Option.is_none closed) then
    Array.map (fun c -> snd (Option.get c)) closed
  else begin
    let impulses = Option.is_some rho in
    let g_of_t, q', rewards =
      Trace.with_span "randomization.setup" (fun () ->
          let g_of_t =
            Array.mapi
              (fun i t ->
                if swept i then
                  Mrm_check.Check.truncation_point ~impulses ~d
                    ~lambda:(q *. t) ~order ~eps
                else 0)
              times
          in
          let q' = Generator.uniformized model.Model.generator ~rate:q in
          let r' = Array.map (fun r -> r /. (q *. d)) model.Model.rates in
          let s' =
            Array.map (fun v -> v /. (q *. d *. d)) model.Model.variances
          in
          let coupling =
            match rho with
            | Some rho ->
                coupling_matrices model.Model.generator rho ~q ~d ~order
            | None -> [||]
          in
          (g_of_t, q', { Sparse.r'; s'; coupling }))
    in
    let g = Array.fold_left max 0 g_of_t in
    record_truncation g;
    Trace.add_attr "q" (Trace.Float q);
    Trace.add_attr "d" (Trace.Float d);
    (* Accumulator blocks build sum_k Pois(lambda;k) U^(j)(k) for
       j = 1 .. order, one per swept time point. U^(0)(k) = h for every k
       because the generator is conservative (Q' h = h), so V^(0) = h
       needs no accumulator. *)
    let accumulators =
      Array.mapi
        (fun i _ -> Sparse.block ~order ~dim:(if swept i then n_states else 0))
        times
    in
    let ctx = sweep_context pool q' ~n_states in
    Trace.with_span "randomization.sweep" ~attrs:[ ("G", Trace.Int g) ]
      (fun () ->
        let terms =
          Array.init (g + 1) (fun k ->
              let step_terms = ref [] in
              Array.iteri
                (fun i t ->
                  if swept i && k <= g_of_t.(i) then begin
                    let w = Poisson.pmf ~lambda:(q *. t) k in
                    if w > 0. then
                      step_terms := (w, accumulators.(i)) :: !step_terms
                    else Metrics.incr m_terms_skipped
                  end)
                times;
              ( Array.of_list (List.map fst !step_terms),
                Array.of_list (List.map snd !step_terms) ))
        in
        if order >= 1 then run_sweep ctx rewards ~order ~n_states ~g ~terms);
    Trace.with_span "randomization.finalize" (fun () ->
        Array.mapi
          (fun i t ->
            match closed.(i) with
            | Some (_, result) -> result
            | None ->
                let lambda = q *. t and g_t = g_of_t.(i) in
                (* V^(n) = n! d^n * acc_n; V^(0) = h exactly. *)
                let moments =
                  Array.init (order + 1) (fun n ->
                      if n = 0 then Vec.ones n_states
                      else
                        Sparse.block_scaled
                          (Special.factorial n *. (d ** float_of_int n))
                          accumulators.(i) n)
                in
                let log_error_bound =
                  Mrm_check.Check.log_error_bound ~impulses ~d ~lambda ~order
                    ~g:g_t
                in
                {
                  moments;
                  diagnostics =
                    { q; d; iterations = g_t; eps; log_error_bound };
                })
          times)
  end

(* [t < 0.] alone lets NaN and infinity through (every comparison with
   NaN is false), silently poisoning the whole solve — require finite,
   non-negative horizons outright. *)
let check_args fn ~times ~order ~eps =
  let fail what = invalid_arg (Printf.sprintf "Randomization.%s: requires %s" fn what) in
  Array.iter
    (fun t -> if not (Float.is_finite t) || t < 0. then fail "finite t >= 0")
    times;
  if order < 0 then fail "order >= 0";
  if not (eps > 0.) then fail "eps > 0"

let moments ?(eps = 1e-9) ?pool ?impulses model ~t ~order =
  check_args "moments" ~times:[| t |] ~order ~eps;
  Trace.with_span "randomization.moments"
    ~attrs:
      [ ("t", Trace.Float t); ("order", Trace.Int order);
        ("eps", Trace.Float eps) ]
  @@ fun () -> (solve ?pool ?impulses model ~times:[| t |] ~order ~eps).(0)

let moments_at_times ?(eps = 1e-9) ?pool model ~times ~order =
  check_args "moments_at_times" ~times ~order ~eps;
  Trace.with_span "randomization.moments_at_times"
    ~attrs:
      [ ("times", Trace.Int (Array.length times));
        ("order", Trace.Int order); ("eps", Trace.Float eps) ]
  @@ fun () -> solve ?pool model ~times ~order ~eps

let moment ?eps model ~t ~order =
  let { moments = m; _ } = moments ?eps model ~t ~order in
  Vec.dot model.Model.initial m.(order)

let moment_series ?eps ?pool model ~times ~order =
  (* One multi-time sweep instead of restarting the recursion per time
     point — G(t_max) matrix products total rather than sum_i G(t_i). *)
  Trace.with_span "randomization.moment_series"
    ~attrs:
      [ ("times", Trace.Int (Array.length times)); ("order", Trace.Int order) ]
  @@ fun () ->
  let results = moments_at_times ?eps ?pool model ~times ~order in
  Array.mapi
    (fun k { moments = m; _ } ->
      ( times.(k),
        Array.init (order + 1) (fun n -> Vec.dot model.Model.initial m.(n)) ))
    results

let mean ?eps model ~t = moment ?eps model ~t ~order:1

let variance ?eps model ~t =
  let { moments = m; _ } = moments ?eps model ~t ~order:2 in
  let pi = model.Model.initial in
  let m1 = Vec.dot pi m.(1) and m2 = Vec.dot pi m.(2) in
  m2 -. (m1 *. m1)

let central_moment ?eps model ~t ~order =
  let { moments = m; _ } = moments ?eps model ~t ~order in
  let pi = model.Model.initial in
  let raw = Array.init (order + 1) (fun n -> Vec.dot pi m.(n)) in
  let mu = raw.(1) in
  let acc = ref 0. in
  for j = 0 to order do
    acc :=
      !acc
      +. Special.binomial order j
         *. ((-.mu) ** float_of_int j)
         *. raw.(order - j)
  done;
  !acc

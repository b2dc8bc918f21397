module Sparse = Mrm_linalg.Sparse
module Poisson = Mrm_ctmc.Poisson
module Special = Mrm_util.Special
module D = Diagnostics

type data = {
  states : int;
  q_matrix : Sparse.t;
  rates : float array;
  variances : float array;
  initial : float array;
}

let data ~q_matrix ~rates ~variances ~initial =
  { states = Sparse.rows q_matrix; q_matrix; rates; variances; initial }

let of_triplets ~states ~transitions ~rates ~variances ~initial =
  List.iter
    (fun (i, j, _) ->
      if i < 0 || i >= states || j < 0 || j >= states then
        invalid_arg
          (Printf.sprintf "Check.of_triplets: transition (%d, %d) out of [0, %d)"
             i j states))
    transitions;
  let exits = Array.make states 0. in
  let off_diagonal = List.filter (fun (i, j, v) -> i <> j && v <> 0.) transitions in
  List.iter (fun (i, _, v) -> exits.(i) <- exits.(i) +. v) off_diagonal;
  let diagonal =
    List.filter
      (fun (_, _, v) -> v <> 0.)
      (List.init states (fun i -> (i, i, -.exits.(i))))
  in
  let q_matrix =
    Sparse.of_triplets ~rows:states ~cols:states (diagonal @ off_diagonal)
  in
  { states; q_matrix; rates; variances; initial }

type config = {
  t : float;
  order : int;
  eps : float;
  q : float option;
  d : float option;
  jobs : int;
}

let default_config =
  { t = 1.; order = 3; eps = 1e-9; q = None; d = None; jobs = 1 }

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                       *)

let fmt = Printf.sprintf
let fg v = fmt "%g" v
let fi v = string_of_int v

(* The uniformization rate q = max_i |q_ii| (the solver's choice). *)
let chain_rate m =
  let q = ref 0. in
  Sparse.iter m (fun i j v -> if i = j then q := Float.max !q (abs_float v));
  !q

(* The reward scaling constant d of Theorem 3, shared with the solvers:
   the minimal d keeping |R'| and S' substochastic, where R' = R/(q d)
   may be signed and S' = S/(q d^2). *)
let reward_scaling ~q ~rates ~variances =
  if q <= 0. then 0.
  else begin
    let max_abs_rate =
      Array.fold_left (fun acc r -> Float.max acc (abs_float r)) 0. rates
    in
    let max_std = sqrt (Array.fold_left Float.max 0. variances) in
    Float.max (max_abs_rate /. q) (max_std /. sqrt q)
  end

(* The two a-priori truncation bounds, as the log of their prefactor
   before the Poisson tail P(Pois(qt) >= G+1-n):
   - rate rewards, Theorem 4 with a corrected tail index: the paper's
     appendix bounds the truncated series by
     2 d^n n! (qt)^n sum_{k >= G+n+1} Pois(qt; k), but the substitution
     w_k k!/(k-n)! = (qt)^n w_{k-n} actually shifts the index the other
     way, so the tail starts at G+1-n (G is larger than the paper's by
     about 2n; validated empirically in the test suite);
   - impulse rewards: (4d)^n (qt)^n, from |U^(n)(k)| <= (2k)^n / n!
     (see impulse.mli). *)
let log_prefactor ~impulses ~d ~lambda ~order =
  if impulses then float_of_int order *. (log 4. +. log d +. log lambda)
  else
    log 2.
    +. (float_of_int order *. log d)
    +. Special.log_factorial order
    +. (float_of_int order *. log lambda)

(* The smallest G whose bound is below eps; the impulse rule also keeps
   G >= 2 order. *)
let truncation_point ~impulses ~d ~lambda ~order ~eps =
  if not (Float.is_finite lambda) || lambda < 0. then
    invalid_arg "Check.truncation_point: requires finite lambda >= 0";
  (* mrm:ignore SRC001 — sentinel: Pois(0) is a point mass at k = 0, but
     the U-recursion still needs [order] steps to feed the lower-order
     terms through; without this short circuit [log lambda = -inf]
     poisons [log_prefactor] below. *)
  if lambda = 0. then max 1 order
  else if order = 0 then
    (* V^(0) is exact (row sums are 1); a single term suffices, but we keep
       enough terms for the weights to sum to ~1. *)
    Poisson.tail_quantile ~lambda ~log_eps:(log eps)
  else begin
    let log_eps = log eps -. log_prefactor ~impulses ~d ~lambda ~order in
    let m = Poisson.tail_quantile ~lambda ~log_eps in
    max (if impulses then 2 * order else 1) (m + order - 1)
  end

let log_error_bound ~impulses ~d ~lambda ~order ~g =
  if order = 0 then neg_infinity
  else
    log_prefactor ~impulses ~d ~lambda ~order
    +. Poisson.log_tail ~lambda (max 0 (g + 1 - order))

(* ------------------------------------------------------------------ *)
(* Passes                                                               *)

let check_dimensions { states; q_matrix; rates; variances; initial } =
  let finding what got =
    D.error ~code:"MRM005"
      ~context:[ ("expected", fi states); ("got", fi got) ]
      (fmt "%s has dimension %d, expected %d" what got states)
  in
  List.concat
    [
      (if Sparse.rows q_matrix <> states then
         [ finding "generator row count" (Sparse.rows q_matrix) ]
       else []);
      (if Sparse.cols q_matrix <> Sparse.rows q_matrix then
         [
           D.error ~code:"MRM005"
             ~context:
               [
                 ("rows", fi (Sparse.rows q_matrix));
                 ("cols", fi (Sparse.cols q_matrix));
               ]
             (fmt "generator is %d x %d, not square" (Sparse.rows q_matrix)
                (Sparse.cols q_matrix));
         ]
       else []);
      (if Array.length rates <> states then
         [ finding "rate vector" (Array.length rates) ]
       else []);
      (if Array.length variances <> states then
         [ finding "variance vector" (Array.length variances) ]
       else []);
      (if Array.length initial <> states then
         [ finding "initial vector" (Array.length initial) ]
       else []);
    ]

let check_generator ?(tol = 1e-9) { q_matrix; _ } =
  let acc = ref [] in
  let add d = acc := d :: !acc in
  Sparse.iter q_matrix (fun i j v ->
      if not (Float.is_finite v) then
        add
          (D.error ~code:"MRM001"
             ~context:[ ("row", fi i); ("col", fi j); ("value", fg v) ]
             (fmt "non-finite generator entry %g at (%d, %d)" v i j))
      else if i = j then begin
        if v > 0. then
          add
            (D.error ~code:"MRM003"
               ~context:[ ("state", fi i); ("value", fg v) ]
               (fmt "positive diagonal entry %g at state %d" v i))
      end
      else if v < 0. then
        add
          (D.error ~code:"MRM002"
             ~context:[ ("row", fi i); ("col", fi j); ("value", fg v) ]
             (fmt "negative off-diagonal rate %g at (%d, %d)" v i j)));
  let q = chain_rate q_matrix in
  let tolerance = tol *. Float.max 1. q in
  Array.iteri
    (fun i s ->
      if Float.is_finite s && abs_float s > tolerance then
        add
          (D.error ~code:"MRM004"
             ~context:
               [ ("row", fi i); ("sum", fg s); ("tolerance", fg tolerance) ]
             (fmt "row %d sums to %g, not 0 (tolerance %g)" i s tolerance)))
    (Sparse.row_sums q_matrix);
  List.rev !acc

let check_rewards { rates; variances; _ } =
  let acc = ref [] in
  let add d = acc := d :: !acc in
  Array.iteri
    (fun i r ->
      if not (Float.is_finite r) then
        add
          (D.error ~code:"MRM010"
             ~context:[ ("state", fi i); ("value", fg r) ]
             (fmt "non-finite drift %g at state %d" r i)))
    rates;
  Array.iteri
    (fun i v ->
      if not (Float.is_finite v) then
        add
          (D.error ~code:"MRM012"
             ~context:[ ("state", fi i); ("value", fg v) ]
             (fmt "non-finite variance %g at state %d" v i))
      else if v < 0. then
        add
          (D.error ~code:"MRM011"
             ~context:[ ("state", fi i); ("value", fg v) ]
             (fmt "negative variance %g at state %d (sigma_i^2 >= 0 required)" v
                i)))
    variances;
  List.rev !acc

let check_initial { initial; _ } =
  let acc = ref [] in
  let add d = acc := d :: !acc in
  Array.iteri
    (fun i p ->
      if (not (Float.is_finite p)) || p < 0. || p > 1. then
        add
          (D.error ~code:"MRM020"
             ~context:[ ("state", fi i); ("value", fg p) ]
             (fmt "initial probability %g at state %d outside [0, 1]" p i)))
    initial;
  let total = Array.fold_left ( +. ) 0. initial in
  if Float.is_finite total && abs_float (total -. 1.) > 1e-9 then
    add
      (D.error ~code:"MRM021"
         ~context:[ ("sum", fg total) ]
         (fmt "initial probabilities sum to %g, not 1" total));
  List.rev !acc

let sample_states states =
  let shown = List.filteri (fun i _ -> i < 5) states in
  let listed = String.concat ", " (List.map string_of_int shown) in
  if List.length states > 5 then listed ^ ", ..." else listed

let check_structure { states; q_matrix; initial; _ } =
  let acc = ref [] in
  let add d = acc := d :: !acc in
  let support = ref [] in
  for i = states - 1 downto 0 do
    if i < Array.length initial && initial.(i) > 0. then support := i :: !support
  done;
  (if !support <> [] then begin
     let seen = Scc.reachable q_matrix ~from:!support in
     let unreachable = ref [] in
     for i = states - 1 downto 0 do
       if not seen.(i) then unreachable := i :: !unreachable
     done;
     match !unreachable with
     | [] -> ()
     | states ->
         add
           (D.warning ~code:"MRM030"
              ~context:
                [
                  ("count", fi (List.length states));
                  ("states", sample_states states);
                ]
              (fmt "%d state(s) unreachable from the initial support (%s)"
                 (List.length states) (sample_states states)))
   end);
  (match Scc.absorbing_states q_matrix with
  | [] -> ()
  | states ->
      add
        (D.warning ~code:"MRM031"
           ~context:
             [
               ("count", fi (List.length states));
               ("states", sample_states states);
             ]
           (fmt
              "%d absorbing state(s) (%s): accumulated-reward moments grow \
               polynomially once absorbed"
              (List.length states) (sample_states states))));
  let components = Scc.of_sparse q_matrix in
  if components.Scc.count > 1 then begin
    let closed = Scc.closed_components q_matrix components in
    add
      (D.info ~code:"MRM032"
         ~context:
           [
             ("classes", fi components.Scc.count);
             ("closed", fi (List.length closed));
           ]
         (fmt
            "chain is reducible: %d communicating classes (%d closed); no \
             unique stationary distribution"
            components.Scc.count (List.length closed)))
  end;
  List.rev !acc

let check_uniformization ?(tol = 1e-9) ?(config = default_config)
    ({ q_matrix; rates; variances; _ } as _data) =
  let acc = ref [] in
  let add d = acc := d :: !acc in
  let q_chain = chain_rate q_matrix in
  let q = Option.value config.q ~default:q_chain in
  if not (Float.is_finite q) then
    add
      (D.error ~code:"MRM044"
         ~context:[ ("q", fg q) ]
         (fmt "uniformization rate %g is not finite" q))
  else if q = 0. then ()
    (* Transition-free model: the solvers use the closed Brownian form;
       there is nothing to uniformize. *)
  else begin
    if q < q_chain *. (1. -. tol) then
      add
        (D.error ~code:"MRM040"
           ~context:[ ("q", fg q); ("max_exit_rate", fg q_chain) ]
           (fmt
              "uniformization rate %g below max exit rate %g: Q' = Q/q + I \
               has negative diagonal entries"
              q q_chain));
    Array.iteri
      (fun i s ->
        let row_sum' = (s /. q) +. 1. in
        if Float.is_finite row_sum' && row_sum' > 1. +. tol then
          add
            (D.error ~code:"MRM041"
               ~context:[ ("row", fi i); ("sum", fg row_sum') ]
               (fmt "uniformized row %d sums to %g > 1 (not substochastic)" i
                  row_sum')))
      (Sparse.row_sums q_matrix);
    let d =
      Option.value config.d ~default:(reward_scaling ~q ~rates ~variances)
    in
    if not (Float.is_finite d) then
      add
        (D.error ~code:"MRM044"
           ~context:[ ("d", fg d) ]
           (fmt "reward scaling constant %g is not finite" d))
    else if d > 0. then begin
      Array.iteri
        (fun i r ->
          let r' = r /. (q *. d) in
          if not (Float.is_finite r') then
            add
              (D.error ~code:"MRM044"
                 ~context:[ ("state", fi i); ("value", fg r') ]
                 (fmt "scaled drift at state %d is not finite" i))
          else if abs_float r' > 1. +. tol then
            add
              (D.error ~code:"MRM042"
                 ~context:[ ("state", fi i); ("value", fg r'); ("d", fg d) ]
                 (fmt
                    "|R'| not substochastic: |r_%d'| = %g > 1 for d = %g \
                     (Lemma 2 bound invalid)"
                    i (abs_float r') d)))
        rates;
      Array.iteri
        (fun i v ->
          let s' = v /. (q *. d *. d) in
          if not (Float.is_finite s') then
            add
              (D.error ~code:"MRM044"
                 ~context:[ ("state", fi i); ("value", fg s') ]
                 (fmt "scaled variance at state %d is not finite" i))
          else if s' > 1. +. tol then
            add
              (D.error ~code:"MRM043"
                 ~context:[ ("state", fi i); ("value", fg s'); ("d", fg d) ]
                 (fmt
                    "S' not substochastic: s_%d' = %g > 1 for d = %g \
                     (Lemma 2 bound invalid)"
                    i s' d)))
        variances
    end
  end;
  List.rev !acc

(* Above [g_warning_threshold] iterations MRM050 fires; above
   [lambda_direct_warning] we skip the quantile search and warn from
   [G ~ lambda] directly. *)
let g_warning_threshold = 2_000_000
let lambda_direct_warning = 5e7

(* The paper's large example has 200,001 states; anything within a
   couple of orders of that only saturates one core for no reason when
   the row-parallel engine is left off. *)
let paper_scale_states = 10_000

let check_conditioning ?(config = default_config)
    ({ states; q_matrix; rates; variances; _ } as _data) =
  let acc = ref [] in
  let add d = acc := d :: !acc in
  if states >= paper_scale_states && config.jobs <= 1 then
    add
      (D.info ~code:"MRM053"
         ~context:[ ("states", fi states); ("jobs", fi config.jobs) ]
         (fmt
            "paper-scale model (%d states, threshold %d) about to be solved \
             with jobs = 1; the G = O(qt) mat-vec sweep is row-parallel — \
             set --jobs or MRM2_JOBS to use the domain pool"
            states paper_scale_states));
  if (not (Float.is_finite config.t)) || config.t < 0. then
    add
      (D.error ~code:"MRM060"
         ~context:[ ("t", fg config.t) ]
         (fmt "accumulation horizon t = %g must be finite and >= 0" config.t));
  if config.order < 0 then
    add
      (D.error ~code:"MRM060"
         ~context:[ ("order", fi config.order) ]
         (fmt "moment order %d must be >= 0" config.order));
  if (not (Float.is_finite config.eps)) || config.eps <= 0. then
    add
      (D.error ~code:"MRM060"
         ~context:[ ("eps", fg config.eps) ]
         (fmt "precision eps = %g must be finite and > 0" config.eps))
  else if config.eps < 1e-15 then
    add
      (D.warning ~code:"MRM061"
         ~context:[ ("eps", fg config.eps) ]
         (fmt
            "eps = %g is below attainable double precision; the truncation \
             bound will cost iterations without gaining accuracy"
            config.eps));
  (* Scale spread of the reward structure: the moments mix r_i and
     sigma_i contributions, so >~8 orders of magnitude between the
     smallest and largest non-zero scale loses digits. *)
  let scales = ref [] in
  Array.iter
    (fun r ->
      let m = abs_float r in
      if m > 0. && Float.is_finite m then scales := m :: !scales)
    rates;
  Array.iter
    (fun v ->
      if v > 0. && Float.is_finite v then scales := sqrt v :: !scales)
    variances;
  (match !scales with
  | [] -> ()
  | first :: rest ->
      let lo = List.fold_left Float.min first rest in
      let hi = List.fold_left Float.max first rest in
      if hi /. lo > 1e8 then
        add
          (D.warning ~code:"MRM051"
             ~context:[ ("min_scale", fg lo); ("max_scale", fg hi) ]
             (fmt
                "reward scales span %.1f orders of magnitude (%g .. %g); \
                 expect precision loss in high-order moments"
                (log10 (hi /. lo)) lo hi)));
  (* Truncation-point explosion (the G = O(qt) cost of Theorem 4). *)
  let q = Option.value config.q ~default:(chain_rate q_matrix) in
  let valid_time = Float.is_finite config.t && config.t >= 0. in
  let valid_eps = Float.is_finite config.eps && config.eps > 0. in
  if q > 0. && valid_time && valid_eps && config.order >= 0 then begin
    let lambda = q *. config.t in
    if lambda > lambda_direct_warning then
      add
        (D.warning ~code:"MRM050"
           ~context:[ ("qt", fg lambda) ]
           (fmt
              "q t = %g: the Theorem-4 truncation point is of the same \
               order; the solve needs ~%g sparse matrix-vector products per \
               moment order"
              lambda lambda))
    else begin
      let d =
        Option.value config.d ~default:(reward_scaling ~q ~rates ~variances)
      in
      if lambda > 0. && d > 0. && Float.is_finite d then begin
        let g =
          truncation_point ~impulses:false ~d ~lambda ~order:config.order
            ~eps:config.eps
        in
        if g > g_warning_threshold then
          add
            (D.warning ~code:"MRM050"
               ~context:[ ("g", fi g); ("qt", fg lambda) ]
               (fmt
                  "truncation point G = %d for q t = %g: the solve needs %d \
                   sparse matrix-vector products per moment order"
                  g lambda g))
      end
    end
  end;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Stationary (MMBM) applicability: degenerate drift partitions that
   make the invariant-density solver (Mrm_mmbm) reject or degrade.
   Advisory only — the transient solvers are unaffected — so every
   finding is a warning and the pass is opt-in ([mrm2 lint
   --stationary]). Defensive about malformed inputs: structural
   problems are the other passes' job, so this one stays silent when
   the generator cannot even be built. *)

let check_stationary data =
  let { q_matrix; rates; variances; _ } = data in
  match Mrm_ctmc.Generator.of_sparse q_matrix with
  | exception Invalid_argument _ -> []
  | g -> (
      match Mrm_ctmc.Stationary.gth g with
      | exception Invalid_argument _ -> []
      | pi ->
          let acc = ref [] in
          let add d = acc := d :: !acc in
          let zero_variance = ref [] in
          Array.iteri
            (fun i v -> if v <= 0. then zero_variance := i :: !zero_variance)
            variances;
          (match List.rev !zero_variance with
          | [] -> ()
          | states ->
              add
                (D.warning ~code:"MRM062"
                   ~context:
                     [
                       ("count", fi (List.length states));
                       ( "states",
                         String.concat ","
                           (List.map fi
                              (List.filteri (fun k _ -> k < 8) states)) );
                     ]
                   (fmt
                      "%d state(s) have zero variance: mrm2 stationary needs \
                       --regularize for this model"
                      (List.length states))));
          let mean_drift = ref 0. in
          Array.iteri
            (fun i r -> mean_drift := !mean_drift +. (pi.(i) *. r))
            rates;
          let scale =
            Array.fold_left (fun m r -> Float.max m (abs_float r)) 1. rates
          in
          if abs_float !mean_drift <= 1e-12 *. scale then
            add
              (D.warning ~code:"MRM064"
                 ~context:[ ("mean_drift", fg !mean_drift) ]
                 "stationary mean drift is zero: the regulated level is null \
                  recurrent (no stationary density)")
          else if !mean_drift > 0. then
            add
              (D.warning ~code:"MRM063"
                 ~context:[ ("mean_drift", fg !mean_drift) ]
                 (fmt
                    "stationary mean drift %g is positive: mrm2 stationary \
                     needs --drain > %g for this model"
                    !mean_drift !mean_drift));
          List.rev !acc)

let check ?tol ?config data =
  let dims = check_dimensions data in
  let findings =
    if dims <> [] then dims @ check_generator ?tol data
    else
      List.concat
        [
          check_generator ?tol data;
          check_rewards data;
          check_initial data;
          check_structure data;
          check_uniformization ?tol ?config data;
          check_conditioning ?config data;
        ]
  in
  D.by_severity findings

exception Failed of D.t list

let () =
  Printexc.register_printer (function
    | Failed report ->
        Some
          (fmt "Mrm_check.Check.Failed: %d error(s) [%s]"
             (List.length (D.errors report))
             (String.concat ", " (D.codes (D.errors report))))
    | _ -> None)

let validate_exn ?tol ?config data =
  let report = check ?tol ?config data in
  if D.has_errors report then raise (Failed report)

let code_table =
  [
    ("MRM001", D.Error, "non-finite entry in the generator matrix");
    ("MRM002", D.Error, "negative off-diagonal rate in the generator");
    ("MRM003", D.Error, "positive diagonal entry in the generator");
    ("MRM004", D.Error, "generator row sum not (numerically) zero");
    ("MRM005", D.Error, "dimension mismatch between model components");
    ("MRM010", D.Error, "non-finite reward drift");
    ("MRM011", D.Error, "negative reward variance");
    ("MRM012", D.Error, "non-finite reward variance");
    ("MRM020", D.Error, "initial probability outside [0, 1] or non-finite");
    ("MRM021", D.Error, "initial probabilities do not sum to 1");
    ("MRM030", D.Warning, "states unreachable from the initial support");
    ("MRM031", D.Warning, "absorbing states present");
    ("MRM032", D.Info, "reducible chain (multiple communicating classes)");
    ("MRM040", D.Error, "uniformization rate below the max exit rate");
    ("MRM041", D.Error, "uniformized generator Q' not substochastic");
    ("MRM042", D.Error, "scaled drift matrix |R'| not substochastic");
    ("MRM043", D.Error, "scaled variance matrix S' not substochastic");
    ("MRM044", D.Error, "non-finite uniformized quantity");
    ("MRM050", D.Warning, "Poisson truncation point impractically large");
    ("MRM051", D.Warning, "reward scales span many orders of magnitude");
    ("MRM053", D.Info, "paper-scale model solved sequentially (jobs = 1)");
    ("MRM060", D.Error, "invalid solver configuration (t, order or eps)");
    ("MRM061", D.Warning, "eps below attainable double precision");
    ("MRM062", D.Error, "zero-variance states: stationary solver needs \
                         --regularize (warning under mrm2 lint --stationary)");
    ("MRM063", D.Error, "positive mean drift: no stationary density without \
                         --drain (warning under mrm2 lint --stationary)");
    ("MRM064", D.Error, "zero mean drift: regulated level is null recurrent \
                         (warning under mrm2 lint --stationary)");
    ("MRM065", D.Error, "cyclic reduction did not converge");
    ("MRM066", D.Error, "singular pivot or defective boundary system in the \
                         stationary solver");
    ("MRM067", D.Warning, "variance floor (--regularize) applied");
    ("MRM068", D.Warning, "stationary phase marginal disagrees with the CTMC \
                           stationary vector (--validate)");
    ("MRM069", D.Error, "unknown batch job kind");
    ("MRM090", D.Error, "model file parse error (emitted by mrm2 lint)");
  ]

(* @fig8-smoke: a small-scale replica of the fig8 parallel leg that CI
   can afford. Solves a scaled ON-OFF model (the paper's Table-2
   family) sequentially and on a 2-domain pool, then asserts

   - bit-for-bit parity: every moment vector of the parallel solve is
     exactly the sequential one (the fused pinned sweep must not change
     a single bit) — always checked;
   - speedup > 1.0: best-of-3 parallel wall clock beats best-of-3
     sequential — only when the host can actually run 2 domains in
     parallel (recommended_jobs >= 2 and a domains backend); on a
     single-core box or the OCaml-4 sequential backend the timing
     assertion is skipped, loudly.

   Exit 0 on success, 1 on any violated assertion. *)

module Pool = Mrm_engine.Pool
module Randomization = Mrm_core.Randomization
module Model = Mrm_core.Model
module Onoff = Mrm_models.Onoff

let jobs = 2
let sources = 4_000
let t = 0.004
let order = 3

let best_of n f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let elapsed = Unix.gettimeofday () -. t0 in
    if elapsed < !best then best := elapsed;
    result := Some r
  done;
  (Option.get !result, !best)

let () =
  let model = Onoff.model (Onoff.scaled_table2 ~sources) in
  Printf.printf "fig8-smoke: %d states, t = %g, order = %d, jobs = %d\n%!"
    (Model.dim model) t order jobs;
  let solve ?pool () = Randomization.moments ~eps:1e-9 ?pool model ~t ~order in
  let seq, seq_seconds = best_of 3 (fun () -> solve ()) in
  let par, par_seconds =
    Pool.with_pool ~jobs (fun pool ->
        best_of 3 (fun () -> solve ~pool ()))
  in
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Printf.ksprintf (fun s -> Printf.printf "FAIL: %s\n%!" s) fmt
  in
  (* Parity: bit for bit, every order, every state. *)
  if
    seq.Randomization.diagnostics.iterations
    <> par.Randomization.diagnostics.iterations
  then
    fail "iteration counts differ: %d (seq) vs %d (par)"
      seq.Randomization.diagnostics.iterations
      par.Randomization.diagnostics.iterations;
  Array.iteri
    (fun n seq_vec ->
      Array.iteri
        (fun i v ->
          let pv = par.Randomization.moments.(n).(i) in
          if (not (v = pv)) && not (Float.is_nan v && Float.is_nan pv) then
            fail "moments.(%d).(%d): %.17g (seq) <> %.17g (par)" n i v pv)
        seq_vec)
    seq.Randomization.moments;
  if !failures = 0 then
    Printf.printf "parity: parallel solve is bit-for-bit sequential\n%!";
  (* Timing: only meaningful where 2 domains can actually run at once. *)
  let speedup = seq_seconds /. Float.max par_seconds 1e-9 in
  Printf.printf "timing: best-of-3 %.3fs sequential, %.3fs parallel \
                 (speedup %.2fx)\n%!"
    seq_seconds par_seconds speedup;
  if Pool.parallelism_available && Pool.recommended_jobs () >= jobs then begin
    if not (speedup > 1.0) then
      fail "expected speedup > 1.0 on %d available cores, got %.2fx"
        (Pool.recommended_jobs ()) speedup
  end
  else
    Printf.printf
      "timing assertion SKIPPED: %s (recommended_jobs = %d) — parity above \
       still binds\n%!"
      (if Pool.parallelism_available then "single-core host"
       else "sequential backend (no domains)")
      (Pool.recommended_jobs ());
  if !failures > 0 then exit 1

(* Buffer dimensioning for a bursty link with a second-order fluid queue
   (the bounded sibling of the paper's reward models; its Section 4 and
   refs [7, 8]).

   An ON-OFF source feeds a link of capacity c: while ON the net buffer
   drift is (peak - c) with variance sigma2_on; while OFF it drains at -c.
   The stationary solver (cyclic reduction, as in mrm2 stationary) gives
   the stationary buffer distribution; we read off the buffer size needed
   for a target overflow probability and sweep the link capacity.

   Run with: dune exec examples/link_dimensioning.exe *)

module Mmbm = Mrm_mmbm.Mmbm

let () =
  let alpha = 1.0 (* ON -> OFF *) and beta = 0.5 (* OFF -> ON *) in
  let peak = 10.0 and sigma2_on = 4.0 in
  let generator =
    Mrm_ctmc.Generator.of_triplets ~states:2
      [ (0, 1, beta); (1, 0, alpha) ] (* state 0 = OFF, 1 = ON *)
  in
  let on_fraction = beta /. (alpha +. beta) in
  let mean_input = on_fraction *. peak in
  Printf.printf
    "ON-OFF source: peak %.1f, ON fraction %.2f, mean rate %.2f\n\n" peak
    on_fraction mean_input;

  Printf.printf "%8s %12s %12s %12s %14s\n" "capacity" "utilization"
    "E[level]" "decay rate" "buf(P<1e-6)";
  List.iter
    (fun c ->
      let queue =
        Mrm_core.Model.make ~generator
          ~rates:[| -.c; peak -. c |]
          ~variances:[| 0.5; sigma2_on |]
          ~initial:[| 1.; 0. |]
      in
      let r = Mmbm.solve queue in
      let eta = Mmbm.decay_rate r in
      let ccdf x = 1. -. Mrm_linalg.Vec.sum (Mmbm.cdf r x) in
      (* Buffer size for overflow probability 1e-6 by bisection on the
         exact ccdf (the decay rate alone would ignore the prefactor). *)
      let target = 1e-6 in
      let rec bisect lo hi iterations =
        if iterations = 0 then hi
        else begin
          let mid = 0.5 *. (lo +. hi) in
          if ccdf mid > target then bisect mid hi (iterations - 1)
          else bisect lo mid (iterations - 1)
        end
      in
      let buffer = bisect 0. (200. /. eta) 60 in
      Printf.printf "%8.1f %12.3f %12.4f %12.4f %14.2f\n" c
        (mean_input /. c) r.Mmbm.mean_level eta buffer)
    [ 4.5; 5.; 6.; 7.; 8. ];

  print_endline
    "\n(utilization -> 1 blows the buffer requirement up; extra capacity\n\
     buys exponentially smaller buffers -- the classic dimensioning\n\
     trade-off, now with within-state variance included)"

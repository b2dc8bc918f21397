(* SRC005 fixture: writes from a parallel job. The accumulator updates
   race, whichever runner the closure is handed to; the element stores
   indexed by job-bound names follow the range-disjoint convention and
   are fine. *)
let bad pool total = Pool.run pool 4 (fun i -> total := !total + i)
let good pool out = Pool.run pool 4 (fun i -> out.(i) <- float_of_int i)

let bad_sweep pool part total =
  Kernel.sweep pool part ~rounds:1 (fun ~round:_ ~lo ~hi ->
      total := !total + (hi - lo))

let bad_pinned pool total =
  Pool.run_pinned pool ~parties:2 ~rounds:1 (fun ~round:_ k ->
      total := !total + k)

let good_sweep pool part out =
  Kernel.sweep pool part ~rounds:1 (fun ~round:_ ~lo ~hi ->
      for i = lo to hi - 1 do
        out.(i) <- float_of_int i
      done)

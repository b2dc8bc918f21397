(* Clean twin: the body stays inside the job's own [lo, hi) slice. *)
let clear pool part (acc : float array) =
  Kernel.sweep pool part ~rounds:1 (fun ~round:_ ~lo ~hi ->
      for i = lo to hi - 1 do acc.(i) <- 0. done)

(* Defective: the kernel body writes acc.(hi) — one slot past the
   job's [lo, hi) slice, racing the next range's first write. *)
let clear pool part (acc : float array) =
  Kernel.sweep pool part ~rounds:1 (fun ~round:_ ~lo ~hi ->
      for i = lo to hi do acc.(i) <- 0. done)

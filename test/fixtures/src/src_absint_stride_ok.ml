(* Clean twin: three entries per row, row-interleaved; every store
   s i + j (0 <= j < 3) lands in the party's [3 lo, 3 hi - 1]. *)
let interleave pool part (acc : float array) =
  Kernel.sweep pool part ~rounds:1 (fun ~round:_ ~lo ~hi ->
      for i = lo to hi - 1 do
        for j = 0 to 2 do
          acc.((3 * i) + j) <- 0.
        done;
        acc.((3 * i) + 2) <- 1.
      done)

(* Defective: the peeled last row is written one row late, at 3 hi,
   which is the next party's first row. *)
let peel pool part (acc : float array) =
  Kernel.sweep pool part ~rounds:1 (fun ~round:_ ~lo ~hi ->
      if hi - lo >= 3 then begin
        for i = lo to hi - 2 do
          acc.(3 * i) <- 0.
        done;
        acc.(3 * hi) <- 1.
      end)

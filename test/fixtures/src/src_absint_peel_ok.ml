(* Clean twin: the rows before the last in a loop, the last row peeled
   off at 3 (hi - 1); every store lands in the party's [3 lo, 3 hi - 1],
   the peeled ones taking their stride from hi. *)
let peel pool part (acc : float array) =
  Kernel.sweep pool part ~rounds:1 (fun ~round:_ ~lo ~hi ->
      if hi - lo >= 3 then begin
        for i = lo to hi - 2 do
          acc.(3 * i) <- 0.
        done;
        let b = 3 * (hi - 1) in
        acc.(b) <- 1.;
        acc.(b + 1) <- 1.;
        acc.(b + 2) <- 1.
      end)

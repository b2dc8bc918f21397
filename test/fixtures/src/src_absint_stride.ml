(* Defective: one array written at strides 3 and 2. Each store stays in
   its own stride's rows, but the two together overlap other parties'. *)
let interleave pool part (acc : float array) =
  Kernel.for_ranges pool part (fun lo hi ->
      for i = lo to hi - 1 do
        acc.((3 * i) + 2) <- 0.;
        acc.(2 * i) <- 1.
      done)

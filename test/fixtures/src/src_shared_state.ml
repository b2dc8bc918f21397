(* SRC013 seed: a handler thread and a kernel sweep bump a module-level
   ref with no Atomic and no lock held. *)

let total = ref 0

let start () =
  Thread.create (fun () -> total := !total + 1) ()

let count_rows pool part =
  Kernel.sweep pool part ~rounds:1 (fun ~round:_ ~lo ~hi ->
      total := !total + (hi - lo))

(* SRC013 clean pair: the shared counters go through Atomic or are
   written with the lock held. *)

let total = Atomic.make 0
let m = Mutex.create ()
let peak = ref 0

let start n =
  Thread.create
    (fun () ->
      Atomic.incr total;
      Mutex.protect m (fun () -> if n > !peak then peak := n))
    ()

let count_rows pool part =
  Kernel.sweep pool part ~rounds:1 (fun ~round:_ ~lo ~hi ->
      ignore (Atomic.fetch_and_add total (hi - lo)))

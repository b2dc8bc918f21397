(* Clean twin: both accesses stay inside the table. *)
let pick () =
  let xs = Array.make 3 0. in
  let third = Array.unsafe_get xs 2 in
  xs.(0) +. third

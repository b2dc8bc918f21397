(* Defective: two unchecked reads that nothing bounds. [xs] is a
   parameter and [row] is taken out of [rows]; neither length is
   compared with the index before the read. *)
let sum_prefix (xs : float array) n =
  let s = ref 0. in
  for i = 0 to n - 1 do
    s := !s +. Array.unsafe_get xs i
  done;
  !s

let pick (rows : float array array) i j =
  let row = rows.(i) in
  Array.unsafe_get row j

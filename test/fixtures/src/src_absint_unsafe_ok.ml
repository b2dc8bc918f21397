(* Clean twin: a guard in the same function bounds each unchecked read,
   once per call for the parameter array and once per row for the
   array taken out of [rows]. *)
let sum_prefix (xs : float array) n =
  if Array.length xs < n then invalid_arg "sum_prefix";
  let s = ref 0. in
  for i = 0 to n - 1 do
    s := !s +. Array.unsafe_get xs i
  done;
  !s

let pick (rows : float array array) i j =
  let row = rows.(i) in
  if j < 0 || Array.length row <= j then invalid_arg "pick";
  Array.unsafe_get row j

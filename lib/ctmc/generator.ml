module Sparse = Mrm_linalg.Sparse

type t = { matrix : Sparse.t; dim : int; q : float }

let validate m =
  let n = Sparse.rows m in
  if Sparse.cols m <> n then
    invalid_arg "Generator.of_sparse: generator must be square";
  let q = ref 0. in
  Sparse.iter m (fun i j v ->
      if not (Float.is_finite v) then
        invalid_arg
          (Printf.sprintf "Generator.of_sparse: non-finite entry %g at (%d,%d)"
             v i j);
      if i = j then begin
        if v > 0. then
          invalid_arg
            (Printf.sprintf
               "Generator.of_sparse: positive diagonal %g at state %d" v i);
        q := Float.max !q (-.v)
      end
      else if v < 0. then
        invalid_arg
          (Printf.sprintf
             "Generator.of_sparse: negative off-diagonal %g at (%d,%d)" v i j));
  let sums = Sparse.row_sums m in
  let tolerance = 1e-9 *. Float.max 1. !q in
  Array.iteri
    (fun i s ->
      if abs_float s > tolerance then
        invalid_arg
          (Printf.sprintf "Generator.of_sparse: row %d sums to %g (not 0)" i s))
    sums;
  { matrix = m; dim = n; q = !q }

let of_sparse = validate
let of_dense d = validate (Sparse.of_dense d)

let of_triplets ~states triplets =
  let exits = Array.make states 0. in
  let off_diagonal =
    List.filter
      (fun (i, j, v) ->
        if i < 0 || i >= states || j < 0 || j >= states then
          invalid_arg
            (Printf.sprintf
               "Generator.of_triplets: transition (%d, %d) out of [0, %d)" i j
               states);
        if i <> j && v < 0. then
          invalid_arg
            (Printf.sprintf
               "Generator.of_triplets: negative rate %g at (%d, %d)" v i j);
        if i <> j && not (Float.is_finite v) then
          invalid_arg
            (Printf.sprintf
               "Generator.of_triplets: non-finite rate %g at (%d, %d)" v i j);
        i <> j && v <> 0.)
      triplets
  in
  List.iter (fun (i, _, v) -> exits.(i) <- exits.(i) +. v) off_diagonal;
  let diagonal =
    List.filteri
      (fun _ (_, _, v) -> v <> 0.)
      (List.init states (fun i -> (i, i, -.exits.(i))))
  in
  validate
    (Sparse.of_triplets ~rows:states ~cols:states (diagonal @ off_diagonal))

(* Row i holds d = death i at column i-1, the diagonal at i and
   b = birth i at i+1, already in column order, so the CSR arrays are
   written directly; Sparse.of_csr drops the zero rates. The diagonal
   is -(0 + d + b), the exit sum of_triplets forms for this row. *)
let birth_death ~states ~birth ~death =
  if states <= 0 then invalid_arg "Generator.birth_death: states > 0";
  let rate kind f i =
    let v = f i in
    if not (Float.is_finite v) then
      invalid_arg
        (Printf.sprintf
           "Generator.birth_death: non-finite %s rate %g at state %d" kind v i);
    if v < 0. then
      invalid_arg
        (Printf.sprintf "Generator.birth_death: negative %s rate %g at state %d"
           kind v i);
    v
  in
  let stored = (3 * states) - 2 in
  let row_start = Array.make (states + 1) 0
  and col_index = Array.make stored 0
  and values = Array.make stored 0. in
  let k = ref 0 in
  let push j v =
    col_index.(!k) <- j;
    values.(!k) <- v;
    incr k
  in
  for i = 0 to states - 1 do
    let d = if i > 0 then rate "death" death i else 0. in
    let b = if i < states - 1 then rate "birth" birth i else 0. in
    if i > 0 then push (i - 1) d;
    push i (-.(0. +. d +. b));
    if i < states - 1 then push (i + 1) b;
    row_start.(i + 1) <- !k
  done;
  validate
    (Sparse.of_csr ~rows:states ~cols:states ~row_start ~col_index ~values)

let matrix g = g.matrix
let dim g = g.dim
let uniformization_rate g = g.q

let uniformized g ~rate =
  if rate < g.q then
    invalid_arg
      (Printf.sprintf
         "Generator.uniformized: rate %g below uniformization rate %g" rate
         g.q);
  if rate = 0. then Sparse.identity g.dim
  else Sparse.uniformize (1. /. rate) g.matrix

let exit_rates g =
  let exits = Array.make g.dim 0. in
  Sparse.iter g.matrix (fun i j v -> if i = j then exits.(i) <- -.v);
  exits

let embedded_jump_distribution g i =
  if i < 0 || i >= g.dim then
    invalid_arg "Generator.embedded_jump_distribution: state out of range";
  let exit = -.Sparse.get g.matrix i i in
  if exit <= 0. then [||]
  else begin
    let acc = ref [] in
    Sparse.iter_row g.matrix i (fun j v ->
        if j <> i && v > 0. then acc := (j, v /. exit) :: !acc);
    Array.of_list (List.rev !acc)
  end

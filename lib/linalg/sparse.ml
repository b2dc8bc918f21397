type t = {
  rows : int;
  cols : int;
  (* CSR: row i occupies [row_start.(i), row_start.(i+1)) in col_index and
     values; col_index is strictly increasing within a row. *)
  row_start : int array;
  col_index : int array;
  values : float array;
}

let rows m = m.rows
let cols m = m.cols
let nnz m = Array.length m.values

let of_triplets ~rows ~cols triplets =
  if rows < 0 || cols < 0 then invalid_arg "Sparse.of_triplets: negative size";
  List.iter
    (fun (i, j, _) ->
      if i < 0 || i >= rows || j < 0 || j >= cols then
        invalid_arg
          (Printf.sprintf "Sparse.of_triplets: (%d,%d) out of %dx%d" i j rows
             cols))
    triplets;
  let sorted =
    List.sort
      (fun (i1, j1, _) (i2, j2, _) ->
        let c = Int.compare i1 i2 in
        if c <> 0 then c else Int.compare j1 j2)
      triplets
  in
  (* Merge duplicates, drop exact zeros. *)
  let merged = ref [] and count = ref 0 in
  let flush (i, j, v) =
    (* mrm:ignore SRC001 -- sentinel: exact zeros carry no structure *)
    if v <> 0. then begin
      merged := (i, j, v) :: !merged;
      incr count
    end
  in
  let rec go pending = function
    | [] -> Option.iter flush pending
    | (i, j, v) :: rest -> begin
        match pending with
        | Some (pi, pj, pv) when Int.equal pi i && Int.equal pj j ->
            go (Some (i, j, pv +. v)) rest
        | Some p ->
            flush p;
            go (Some (i, j, v)) rest
        | None -> go (Some (i, j, v)) rest
      end
  in
  go None sorted;
  let entries = Array.of_list (List.rev !merged) in
  let n_entries = Array.length entries in
  let row_start = Array.make (rows + 1) 0 in
  Array.iter (fun (i, _, _) -> row_start.(i + 1) <- row_start.(i + 1) + 1)
    entries;
  for i = 0 to rows - 1 do
    row_start.(i + 1) <- row_start.(i + 1) + row_start.(i)
  done;
  let col_index = Array.make n_entries 0 in
  let values = Array.make n_entries 0. in
  Array.iteri
    (fun k (_, j, v) ->
      col_index.(k) <- j;
      values.(k) <- v)
    entries;
  { rows; cols; row_start; col_index; values }

let of_dense d =
  let triplets = ref [] in
  for i = Dense.rows d - 1 downto 0 do
    for j = Dense.cols d - 1 downto 0 do
      let v = Dense.get d i j in
      (* mrm:ignore SRC001 -- sentinel: exact zeros carry no structure *)
      if v <> 0. then triplets := (i, j, v) :: !triplets
    done
  done;
  of_triplets ~rows:(Dense.rows d) ~cols:(Dense.cols d) !triplets

let to_dense m =
  let d = Dense.zeros ~rows:m.rows ~cols:m.cols in
  for i = 0 to m.rows - 1 do
    for k = m.row_start.(i) to m.row_start.(i + 1) - 1 do
      Dense.set d i m.col_index.(k) m.values.(k)
    done
  done;
  d

let identity n =
  {
    rows = n;
    cols = n;
    row_start = Array.init (n + 1) (fun i -> i);
    col_index = Array.init n (fun i -> i);
    values = Array.make n 1.;
  }

let diagonal d =
  let n = Array.length d in
  of_triplets ~rows:n ~cols:n
    (* mrm:ignore SRC001 -- sentinel: exact zeros carry no structure *)
    (List.filteri (fun _ (_, _, v) -> v <> 0.)
       (List.init n (fun i -> (i, i, d.(i)))))

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Sparse.get: index out of range";
  let lo = ref m.row_start.(i) and hi = ref (m.row_start.(i + 1) - 1) in
  let result = ref 0. in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = m.col_index.(mid) in
    if Int.equal c j then begin
      result := m.values.(mid);
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !result

let check_mv_args ~name m x y ~lo ~hi =
  if Array.length x <> m.cols || Array.length y <> m.rows then
    invalid_arg (name ^ ": dimension mismatch");
  if x == y then invalid_arg (name ^ ": x and y must be distinct");
  if lo < 0 || hi > m.rows || lo > hi then
    invalid_arg (name ^ ": bad row range")

let mv_into_range_unchecked m x y ~lo ~hi =
  let row_start = m.row_start
  and col_index = m.col_index
  and values = m.values in
  for i = lo to hi - 1 do
    let acc = ref 0. in
    for k = row_start.(i) to row_start.(i + 1) - 1 do
      acc := !acc +. (values.(k) *. x.(col_index.(k)))
    done;
    y.(i) <- !acc
  done

let mv_into_range m x y ~lo ~hi =
  check_mv_args ~name:"Sparse.mv_into_range" m x y ~lo ~hi;
  mv_into_range_unchecked m x y ~lo ~hi

let mv_into m x y =
  check_mv_args ~name:"Sparse.mv_into" m x y ~lo:0 ~hi:m.rows;
  mv_into_range_unchecked m x y ~lo:0 ~hi:m.rows

let row_offsets m = Array.copy m.row_start

(* ------------------------------------------------------------------ *)
(* Fused multi-vector products: one CSR row walk serving several
   right-hand sides at once. The randomization recursion multiplies the
   same matrix into [order] vectors every iteration; walking the row
   once and touching values/col_index a single time roughly divides the
   memory traffic of the sweep by the vector count. Each output accumulates
   exactly the sequence of operations an independent [mv_into_range]
   would perform, so the fused kernels are bit-for-bit identical to
   repeated single-vector calls. *)

let check_mv_multi_args ~name m xs ys ~lo ~hi =
  let count = Array.length xs in
  if count <> Array.length ys then
    invalid_arg (name ^ ": xs/ys count mismatch");
  for v = 0 to count - 1 do
    if Array.length xs.(v) <> m.cols || Array.length ys.(v) <> m.rows then
      invalid_arg (name ^ ": dimension mismatch")
  done;
  for v = 0 to count - 1 do
    for w = 0 to count - 1 do
      if xs.(w) == ys.(v) then
        invalid_arg (name ^ ": inputs and outputs must be distinct");
      if w < v && ys.(w) == ys.(v) then
        invalid_arg (name ^ ": outputs must be distinct")
    done
  done;
  if lo < 0 || hi > m.rows || lo > hi then
    invalid_arg (name ^ ": bad row range")

let mv2_into_range_unchecked m x0 x1 y0 y1 ~lo ~hi =
  let row_start = m.row_start
  and col_index = m.col_index
  and values = m.values in
  for i = lo to hi - 1 do
    let a0 = ref 0. and a1 = ref 0. in
    for k = row_start.(i) to row_start.(i + 1) - 1 do
      let v = values.(k) and c = col_index.(k) in
      a0 := !a0 +. (v *. x0.(c));
      a1 := !a1 +. (v *. x1.(c))
    done;
    y0.(i) <- !a0;
    y1.(i) <- !a1
  done

let mv3_into_range_unchecked m x0 x1 x2 y0 y1 y2 ~lo ~hi =
  let row_start = m.row_start
  and col_index = m.col_index
  and values = m.values in
  for i = lo to hi - 1 do
    let a0 = ref 0. and a1 = ref 0. and a2 = ref 0. in
    for k = row_start.(i) to row_start.(i + 1) - 1 do
      let v = values.(k) and c = col_index.(k) in
      a0 := !a0 +. (v *. x0.(c));
      a1 := !a1 +. (v *. x1.(c));
      a2 := !a2 +. (v *. x2.(c))
    done;
    y0.(i) <- !a0;
    y1.(i) <- !a1;
    y2.(i) <- !a2
  done

let mv_multi_into_range m xs ys ~lo ~hi =
  check_mv_multi_args ~name:"Sparse.mv_multi_into_range" m xs ys ~lo ~hi;
  match Array.length xs with
  | 0 -> ()
  | 1 -> mv_into_range_unchecked m xs.(0) ys.(0) ~lo ~hi
  | 2 -> mv2_into_range_unchecked m xs.(0) xs.(1) ys.(0) ys.(1) ~lo ~hi
  | 3 ->
      mv3_into_range_unchecked m xs.(0) xs.(1) xs.(2) ys.(0) ys.(1) ys.(2)
        ~lo ~hi
  | count ->
      let row_start = m.row_start
      and col_index = m.col_index
      and values = m.values in
      let accs = Array.make count 0. in
      for i = lo to hi - 1 do
        Array.fill accs 0 count 0.;
        for k = row_start.(i) to row_start.(i + 1) - 1 do
          let v = values.(k) and c = col_index.(k) in
          for s = 0 to count - 1 do
            accs.(s) <- accs.(s) +. (v *. xs.(s).(c))
          done
        done;
        for s = 0 to count - 1 do
          ys.(s).(i) <- accs.(s)
        done
      done

(* ------------------------------------------------------------------ *)
(* Tridiagonal fast path. The ON-OFF family (and every birth-death
   generator) has all entries on the three central diagonals; storing
   them as three flat arrays removes the col_index indirection and
   turns the row walk into streaming reads of x.(i-1), x.(i), x.(i+1).
   A zero slot encodes "entry absent": valid because [of_triplets]
   (hence every canonically built matrix) never stores an exact zero,
   and [as_tridiagonal] refuses matrices that do. The per-row
   accumulation visits present entries in increasing column order,
   exactly like the CSR walk, so results are bit-for-bit identical. *)

type tridiag = {
  t_dim : int;
  t_lower : float array;  (* t_lower.(i) = entry (i, i-1); 0. = absent *)
  t_diag : float array;  (* t_diag.(i) = entry (i, i) *)
  t_upper : float array;  (* t_upper.(i) = entry (i, i+1) *)
}

let tridiag_dim td = td.t_dim

let as_tridiagonal m =
  if not (Int.equal m.rows m.cols) then None
  else begin
    let n = m.rows in
    let t_lower = Array.make n 0.
    and t_diag = Array.make n 0.
    and t_upper = Array.make n 0. in
    let scan () =
      for i = 0 to n - 1 do
        for k = m.row_start.(i) to m.row_start.(i + 1) - 1 do
          let j = m.col_index.(k) and v = m.values.(k) in
          (* A stored exact zero would read as "absent" in the band
             arrays; impossible via of_triplets, but refuse defensively. *)
          (* mrm:ignore SRC001 -- zero is the absence encoding of the band *)
          if v = 0. then raise_notrace Exit
          else if Int.equal j (i - 1) then t_lower.(i) <- v
          else if Int.equal j i then t_diag.(i) <- v
          else if Int.equal j (i + 1) then t_upper.(i) <- v
          else raise_notrace Exit
        done
      done
    in
    match scan () with
    | () -> Some { t_dim = n; t_lower; t_diag; t_upper }
    | exception Exit -> None
  end

let check_tridiag_args ~name td xs ys ~lo ~hi =
  let count = Array.length xs in
  if count <> Array.length ys then
    invalid_arg (name ^ ": xs/ys count mismatch");
  for v = 0 to count - 1 do
    if
      Array.length xs.(v) <> td.t_dim || Array.length ys.(v) <> td.t_dim
    then invalid_arg (name ^ ": dimension mismatch")
  done;
  for v = 0 to count - 1 do
    for w = 0 to count - 1 do
      if xs.(w) == ys.(v) then
        invalid_arg (name ^ ": inputs and outputs must be distinct");
      if w < v && ys.(w) == ys.(v) then
        invalid_arg (name ^ ": outputs must be distinct")
    done
  done;
  if lo < 0 || hi > td.t_dim || lo > hi then
    invalid_arg (name ^ ": bad row range")

let tridiag_mv_into_range_unchecked td x y ~lo ~hi =
  let l = td.t_lower and d = td.t_diag and u = td.t_upper in
  for i = lo to hi - 1 do
    let acc = ref 0. in
    let li = l.(i) in
    (* mrm:ignore SRC001 -- zero encodes an absent band entry *)
    if li <> 0. then acc := !acc +. (li *. x.(i - 1));
    let di = d.(i) in
    (* mrm:ignore SRC001 -- zero encodes an absent band entry *)
    if di <> 0. then acc := !acc +. (di *. x.(i));
    let ui = u.(i) in
    (* mrm:ignore SRC001 -- zero encodes an absent band entry *)
    if ui <> 0. then acc := !acc +. (ui *. x.(i + 1));
    y.(i) <- !acc
  done

let tridiag_mv3_into_range_unchecked td x0 x1 x2 y0 y1 y2 ~lo ~hi =
  let l = td.t_lower and d = td.t_diag and u = td.t_upper in
  for i = lo to hi - 1 do
    let a0 = ref 0. and a1 = ref 0. and a2 = ref 0. in
    let li = l.(i) in
    (* mrm:ignore SRC001 -- zero encodes an absent band entry *)
    if li <> 0. then begin
      let c = i - 1 in
      a0 := !a0 +. (li *. x0.(c));
      a1 := !a1 +. (li *. x1.(c));
      a2 := !a2 +. (li *. x2.(c))
    end;
    let di = d.(i) in
    (* mrm:ignore SRC001 -- zero encodes an absent band entry *)
    if di <> 0. then begin
      a0 := !a0 +. (di *. x0.(i));
      a1 := !a1 +. (di *. x1.(i));
      a2 := !a2 +. (di *. x2.(i))
    end;
    let ui = u.(i) in
    (* mrm:ignore SRC001 -- zero encodes an absent band entry *)
    if ui <> 0. then begin
      let c = i + 1 in
      a0 := !a0 +. (ui *. x0.(c));
      a1 := !a1 +. (ui *. x1.(c));
      a2 := !a2 +. (ui *. x2.(c))
    end;
    y0.(i) <- !a0;
    y1.(i) <- !a1;
    y2.(i) <- !a2
  done

let tridiag_mv_multi_into_range td xs ys ~lo ~hi =
  check_tridiag_args ~name:"Sparse.tridiag_mv_multi_into_range" td xs ys ~lo
    ~hi;
  match Array.length xs with
  | 0 -> ()
  | 1 -> tridiag_mv_into_range_unchecked td xs.(0) ys.(0) ~lo ~hi
  | 3 ->
      tridiag_mv3_into_range_unchecked td xs.(0) xs.(1) xs.(2) ys.(0) ys.(1)
        ys.(2) ~lo ~hi
  | count ->
      let l = td.t_lower and d = td.t_diag and u = td.t_upper in
      for i = lo to hi - 1 do
        let li = l.(i) and di = d.(i) and ui = u.(i) in
        for s = 0 to count - 1 do
          let x = xs.(s) in
          let acc = ref 0. in
          (* mrm:ignore SRC001 -- zero encodes an absent band entry *)
          if li <> 0. then acc := !acc +. (li *. x.(i - 1));
          (* mrm:ignore SRC001 -- zero encodes an absent band entry *)
          if di <> 0. then acc := !acc +. (di *. x.(i));
          (* mrm:ignore SRC001 -- zero encodes an absent band entry *)
          if ui <> 0. then acc := !acc +. (ui *. x.(i + 1));
          ys.(s).(i) <- !acc
        done
      done

let mv m x =
  let y = Array.make m.rows 0. in
  mv_into m x y;
  y

let vm x m =
  if Array.length x <> m.rows then invalid_arg "Sparse.vm: dimension mismatch";
  let y = Array.make m.cols 0. in
  for i = 0 to m.rows - 1 do
    let xi = x.(i) in
    (* mrm:ignore SRC001 -- sentinel: skip exactly-zero vector entries *)
    if xi <> 0. then
      for k = m.row_start.(i) to m.row_start.(i + 1) - 1 do
        y.(m.col_index.(k)) <- y.(m.col_index.(k)) +. (xi *. m.values.(k))
      done
  done;
  y

let map_values f m =
  (* [f 0.] is not required to be 0; rebuild through triplets to stay
     canonical when f introduces zeros. *)
  let triplets = ref [] in
  for i = m.rows - 1 downto 0 do
    for k = m.row_start.(i + 1) - 1 downto m.row_start.(i) do
      triplets := (i, m.col_index.(k), f m.values.(k)) :: !triplets
    done
  done;
  of_triplets ~rows:m.rows ~cols:m.cols !triplets

let scale alpha m =
  (* mrm:ignore SRC001 -- sentinel: scaling by exactly zero empties the
     structure *)
  if alpha = 0. then of_triplets ~rows:m.rows ~cols:m.cols []
  else { m with values = Array.map (fun v -> alpha *. v) m.values }

let iter m f =
  for i = 0 to m.rows - 1 do
    for k = m.row_start.(i) to m.row_start.(i + 1) - 1 do
      f i m.col_index.(k) m.values.(k)
    done
  done

let triplets_of m =
  let acc = ref [] in
  iter m (fun i j v -> acc := (i, j, v) :: !acc);
  !acc

let add a b =
  if not (Int.equal a.rows b.rows && Int.equal a.cols b.cols) then
    invalid_arg "Sparse.add: shape mismatch";
  of_triplets ~rows:a.rows ~cols:a.cols (triplets_of a @ triplets_of b)

let add_scaled_identity c a =
  if not (Int.equal a.rows a.cols) then
    invalid_arg "Sparse.add_scaled_identity: non-square matrix";
  let diag = List.init a.rows (fun i -> (i, i, c)) in
  of_triplets ~rows:a.rows ~cols:a.cols (diag @ triplets_of a)

let transpose a =
  of_triplets ~rows:a.cols ~cols:a.rows
    (List.map (fun (i, j, v) -> (j, i, v)) (triplets_of a))

let row_sums m =
  let sums = Array.make m.rows 0. in
  iter m (fun i _ v -> sums.(i) <- sums.(i) +. v);
  sums

let mean_nnz_per_row m =
  if m.rows = 0 then 0. else float_of_int (nnz m) /. float_of_int m.rows

let pp ppf m =
  Format.fprintf ppf "@[<v>sparse %dx%d (%d nnz)" m.rows m.cols (nnz m);
  if nnz m <= 64 then
    iter m (fun i j v -> Format.fprintf ppf "@,(%d,%d) = %g" i j v);
  Format.fprintf ppf "@]"

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

(* ------------------------------------------------------------------ *)
(* One randomization round per row. Round k of the uniformization
   recursion advances U(k) to U(k+1),

     U^(j)(k+1) = Q' U^(j)(k) + R' U^(j-1)(k) + (1/2) S' U^(j-2)(k)
                  [+ sum_{m=1..j} (1/m!) P^(m) U^(j-m)(k)],

   with U^(0) = 1, and folds U(k+1) into the accumulator block of each
   time point the round contributes to. Row i of U(k+1) reads only rows
   of U(k), so the whole round is one pass over the rows: the matrix
   row is walked once for all orders, then R' U^(j-1) and (S'/2) U^(j-2)
   are added, then the impulse coupling, then each Poisson term is
   folded in. Every element sees exactly the operation sequence of the
   multi-pass form (a fused mat-vec, then element-wise passes), so the
   two agree bit for bit. U^(0) = 1 is never stored: r' * 1 = r' and
   (s'/2) * 1 = s'/2 exactly. *)

type block =
  | Stride3 of Vec.t
      (* order 3, row-interleaved: order j of row i at 3 i + j - 1 *)
  | Orders of Vec.t array  (* order j at .(j), j >= 1; .(0) is [||] *)

type rewards = { r' : Vec.t; s' : Vec.t; coupling : (float * t) array }

let block ~order ~dim =
  if order < 0 || dim < 0 then invalid_arg "Sparse.block: negative size";
  if Int.equal order 3 then Stride3 (Array.make (3 * dim) 0.)
  else
    Orders
      (Array.init (order + 1) (fun j ->
           if Int.equal j 0 then [||] else Array.make dim 0.))

let block_of_vectors vs =
  let order = Array.length vs in
  let dim = if order = 0 then 0 else Array.length vs.(0) in
  Array.iter
    (fun v ->
      if Array.length v <> dim then
        invalid_arg "Sparse.block_of_vectors: dimension mismatch")
    vs;
  match block ~order ~dim with
  | Stride3 u ->
      for i = 0 to dim - 1 do
        for j = 1 to 3 do
          u.((3 * i) + j - 1) <- vs.(j - 1).(i)
        done
      done;
      Stride3 u
  | Orders us ->
      for j = 1 to order do
        Array.blit vs.(j - 1) 0 us.(j) 0 dim
      done;
      Orders us

let block_order = function Stride3 _ -> 3 | Orders us -> Array.length us - 1

let block_get b j i =
  if j < 1 || j > block_order b then invalid_arg "Sparse.block_get: order";
  match b with Stride3 u -> u.((3 * i) + j - 1) | Orders us -> us.(j).(i)

let block_scaled c b j =
  if j < 1 || j > block_order b then invalid_arg "Sparse.block_scaled: order";
  match b with
  | Stride3 u ->
      Array.init (Array.length u / 3) (fun i -> c *. u.((3 * i) + j - 1))
  | Orders us -> Array.map (fun x -> c *. x) us.(j)

let check_round_args ~name ~dim rw ~cur ~next ~weights ~accs ~lo ~hi =
  let order = block_order cur in
  let check_block b =
    if not (Int.equal (block_order b) order) then
      invalid_arg (name ^ ": blocks differ in order");
    match b with
    | Stride3 u ->
        if Array.length u <> 3 * dim then
          invalid_arg (name ^ ": dimension mismatch")
    | Orders us ->
        for j = 1 to order do
          if Array.length us.(j) <> dim then
            invalid_arg (name ^ ": dimension mismatch")
        done
  in
  check_block cur;
  check_block next;
  Array.iter check_block accs;
  if cur == next then invalid_arg (name ^ ": cur and next must be distinct");
  Array.iter
    (fun a ->
      if a == cur || a == next then
        invalid_arg (name ^ ": accumulators must be distinct from U"))
    accs;
  if Array.length weights <> Array.length accs then
    invalid_arg (name ^ ": weights/accs count mismatch");
  if Array.length rw.r' <> dim || Array.length rw.s' <> dim then
    invalid_arg (name ^ ": reward vector dimension mismatch");
  let couplings = Array.length rw.coupling in
  if couplings > 0 && couplings < order then
    invalid_arg (name ^ ": fewer coupling matrices than orders");
  Array.iter
    (fun (_, p) ->
      if not (Int.equal p.rows dim && Int.equal p.cols dim) then
        invalid_arg (name ^ ": coupling dimension mismatch"))
    rw.coupling;
  if lo < 0 || hi > dim || lo > hi then invalid_arg (name ^ ": bad row range")

(* The impulse terms of order j on row i, added to [x] in the multi-pass
   order (m = 1 .. j); [u k c] reads U^(k) at row c, U^(0) = 1. A matrix
   without entries contributes nothing, not even + 0. *)
let coupled coupling u ~i ~j x =
  let x = ref x in
  for m = 1 to j do
    let c, p = coupling.(m - 1) in
    if Array.length p.values > 0 then begin
      let acc = ref 0. in
      for k = p.row_start.(i) to p.row_start.(i + 1) - 1 do
        acc := !acc +. (p.values.(k) *. u (j - m) p.col_index.(k))
      done;
      x := !x +. (c *. !acc)
    end
  done;
  !x

let stride3_vectors accs =
  Array.map (function Stride3 a -> a | Orders _ -> [||]) accs

let orders_vectors accs =
  Array.map (function Orders a -> a | Stride3 _ -> [||]) accs

(* The rest of an order-3 row once its matrix row has been walked:
   [a1 .. a3] are the row dots and [c1], [c2] are U^(1), U^(2) of the
   row itself. Adds the R', S' and impulse terms, writes U(k+1) and
   folds it into each accumulator. Inlined, so the floats stay
   unboxed. *)
let[@inline] finish_row3 rw u next ~weights ~accs ~i a1 a2 a3 c1 c2 =
  let b = 3 * i in
  let ri = rw.r'.(i) and hs = 0.5 *. rw.s'.(i) in
  let n3 = ref (a3 +. (ri *. c2) +. (hs *. c1))
  and n2 = ref (a2 +. (ri *. c1) +. hs)
  and n1 = ref (a1 +. ri) in
  if Array.length rw.coupling > 0 then begin
    n3 := coupled rw.coupling u ~i ~j:3 !n3;
    n2 := coupled rw.coupling u ~i ~j:2 !n2;
    n1 := coupled rw.coupling u ~i ~j:1 !n1
  end;
  next.(b) <- !n1;
  next.(b + 1) <- !n2;
  next.(b + 2) <- !n3;
  for t = 0 to Array.length weights - 1 do
    let w = weights.(t) and acc = accs.(t) in
    acc.(b) <- acc.(b) +. (w *. !n1);
    acc.(b + 1) <- acc.(b + 1) +. (w *. !n2);
    acc.(b + 2) <- acc.(b + 2) +. (w *. !n3)
  done

(* Order 3, row-interleaved, on the tridiagonal band. A window over rows
   i-1 (p), i (x) and i+1 (y) of U(k) loads each row once. *)
let tridiag_round3 td rw cur next ~weights ~accs ~lo ~hi =
  let l = td.t_lower and d = td.t_diag and ud = td.t_upper in
  let u k c = if k = 0 then 1. else cur.((3 * c) + k - 1) in
  let p1 = ref 0. and p2 = ref 0. and p3 = ref 0. in
  let x1 = ref 0. and x2 = ref 0. and x3 = ref 0. in
  if lo > 0 && lo < hi then begin
    let c = 3 * (lo - 1) in
    p1 := cur.(c);
    p2 := cur.(c + 1);
    p3 := cur.(c + 2)
  end;
  if lo < hi then begin
    let c = 3 * lo in
    x1 := cur.(c);
    x2 := cur.(c + 1);
    x3 := cur.(c + 2)
  end;
  for i = lo to hi - 1 do
    let b = 3 * i in
    let y1 = ref 0. and y2 = ref 0. and y3 = ref 0. in
    if i + 1 < td.t_dim then begin
      y1 := cur.(b + 3);
      y2 := cur.(b + 4);
      y3 := cur.(b + 5)
    end;
    let a1 = ref 0. and a2 = ref 0. and a3 = ref 0. in
    let li = l.(i) in
    (* mrm:ignore SRC001 -- zero encodes an absent band entry *)
    if li <> 0. then begin
      a1 := !a1 +. (li *. !p1);
      a2 := !a2 +. (li *. !p2);
      a3 := !a3 +. (li *. !p3)
    end;
    let di = d.(i) in
    (* mrm:ignore SRC001 -- zero encodes an absent band entry *)
    if di <> 0. then begin
      a1 := !a1 +. (di *. !x1);
      a2 := !a2 +. (di *. !x2);
      a3 := !a3 +. (di *. !x3)
    end;
    let ui = ud.(i) in
    (* mrm:ignore SRC001 -- zero encodes an absent band entry *)
    if ui <> 0. then begin
      a1 := !a1 +. (ui *. !y1);
      a2 := !a2 +. (ui *. !y2);
      a3 := !a3 +. (ui *. !y3)
    end;
    finish_row3 rw u next ~weights ~accs ~i !a1 !a2 !a3 !x1 !x2;
    p1 := !x1;
    p2 := !x2;
    p3 := !x3;
    x1 := !y1;
    x2 := !y2;
    x3 := !y3
  done

(* Order 3, row-interleaved, on CSR: one row walk feeds all three
   orders. *)
let csr_round3 m rw cur next ~weights ~accs ~lo ~hi =
  let row_start = m.row_start
  and col_index = m.col_index
  and values = m.values in
  let u k c = if k = 0 then 1. else cur.((3 * c) + k - 1) in
  for i = lo to hi - 1 do
    let b = 3 * i in
    let a1 = ref 0. and a2 = ref 0. and a3 = ref 0. in
    for k = row_start.(i) to row_start.(i + 1) - 1 do
      let v = values.(k) and c = 3 * col_index.(k) in
      a1 := !a1 +. (v *. cur.(c));
      a2 := !a2 +. (v *. cur.(c + 1));
      a3 := !a3 +. (v *. cur.(c + 2))
    done;
    finish_row3 rw u next ~weights ~accs ~i !a1 !a2 !a3 cur.(b) cur.(b + 1)
  done

(* Any order, one vector per order. Orders ascend, so U^(j-1) and
   U^(j-2) at row i are still at hand ([below1], [below2]; U^(0) = 1)
   when order j adds its R' and S' terms. *)

(* The rest of order j of row i once its row dot is known: the R', S'
   and impulse terms, the write to U(k+1) and the Poisson terms.
   [ri] and [hs] are R' and S'/2 of the row. Inlined, so the floats
   stay unboxed. *)
let[@inline] finish_order rw u next ~weights ~accs ~i ~j ~ri ~hs dot below1
    below2 =
  let v = ref (dot +. (ri *. below1)) in
  if j >= 2 then v := !v +. (hs *. below2);
  if Array.length rw.coupling > 0 then v := coupled rw.coupling u ~i ~j !v;
  next.(j).(i) <- !v;
  for t = 0 to Array.length weights - 1 do
    let acc = accs.(t).(j) in
    acc.(i) <- acc.(i) +. (weights.(t) *. !v)
  done

(* On the tridiagonal band: three reads per row and order. *)
let tridiag_round td rw cur next ~order ~weights ~accs ~lo ~hi =
  let l = td.t_lower and d = td.t_diag and ud = td.t_upper in
  let r' = rw.r' and s' = rw.s' in
  let u k c = if k = 0 then 1. else cur.(k).(c) in
  for i = lo to hi - 1 do
    let li = l.(i) and di = d.(i) and ui = ud.(i) in
    let ri = r'.(i) and hs = 0.5 *. s'.(i) in
    let below1 = ref 1. and below2 = ref 1. in
    for j = 1 to order do
      let x = cur.(j) in
      let xi = x.(i) in
      let v = ref 0. in
      (* mrm:ignore SRC001 -- zero encodes an absent band entry *)
      if li <> 0. then v := !v +. (li *. x.(i - 1));
      (* mrm:ignore SRC001 -- zero encodes an absent band entry *)
      if di <> 0. then v := !v +. (di *. xi);
      (* mrm:ignore SRC001 -- zero encodes an absent band entry *)
      if ui <> 0. then v := !v +. (ui *. x.(i + 1));
      finish_order rw u next ~weights ~accs ~i ~j ~ri ~hs !v !below1 !below2;
      below2 := !below1;
      below1 := xi
    done
  done

(* On CSR: one row walk into [row] feeds every order. *)
let csr_round m rw cur next ~order ~weights ~accs ~lo ~hi =
  let row_start = m.row_start
  and col_index = m.col_index
  and values = m.values in
  let r' = rw.r' and s' = rw.s' in
  let u k c = if k = 0 then 1. else cur.(k).(c) in
  let row = Array.make (order + 1) 0. in
  for i = lo to hi - 1 do
    Array.fill row 0 (order + 1) 0.;
    for k = row_start.(i) to row_start.(i + 1) - 1 do
      let v = values.(k) and c = col_index.(k) in
      for j = 1 to order do
        row.(j) <- row.(j) +. (v *. cur.(j).(c))
      done
    done;
    let ri = r'.(i) and hs = 0.5 *. s'.(i) in
    let below1 = ref 1. and below2 = ref 1. in
    for j = 1 to order do
      finish_order rw u next ~weights ~accs ~i ~j ~ri ~hs row.(j) !below1
        !below2;
      below2 := !below1;
      below1 := cur.(j).(i)
    done
  done

let round_into_range m rw ~cur ~next ~weights ~accs ~lo ~hi =
  let name = "Sparse.round_into_range" in
  if not (Int.equal m.rows m.cols) then
    invalid_arg (name ^ ": non-square matrix");
  check_round_args ~name ~dim:m.rows rw ~cur ~next ~weights ~accs ~lo ~hi;
  match (cur, next) with
  | Stride3 cur, Stride3 next ->
      csr_round3 m rw cur next ~weights ~accs:(stride3_vectors accs) ~lo ~hi
  | Orders cur, Orders next ->
      csr_round m rw cur next ~order:(Array.length cur - 1) ~weights
        ~accs:(orders_vectors accs) ~lo ~hi
  | _ -> invalid_arg (name ^ ": blocks differ in layout")

let tridiag_round_into_range td rw ~cur ~next ~weights ~accs ~lo ~hi =
  let name = "Sparse.tridiag_round_into_range" in
  check_round_args ~name ~dim:td.t_dim rw ~cur ~next ~weights ~accs ~lo ~hi;
  match (cur, next) with
  | Stride3 cur, Stride3 next ->
      tridiag_round3 td rw cur next ~weights ~accs:(stride3_vectors accs) ~lo
        ~hi
  | Orders cur, Orders next ->
      tridiag_round td rw cur next ~order:(Array.length cur - 1) ~weights
        ~accs:(orders_vectors accs) ~lo ~hi
  | _ -> invalid_arg (name ^ ": blocks differ in layout")

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

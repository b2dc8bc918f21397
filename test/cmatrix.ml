module Dense = Mrm_linalg.Dense
open Complex

type t = { rows : int; cols : int; data : Complex.t array }

let zeros ~rows ~cols = { rows; cols; data = Array.make (rows * cols) zero }

let identity n =
  let m = zeros ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    m.data.((i * n) + i) <- one
  done;
  m

let init ~rows ~cols f =
  {
    rows;
    cols;
    data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols));
  }

let of_real d =
  init ~rows:(Dense.rows d) ~cols:(Dense.cols d) (fun i j ->
      { re = Dense.get d i j; im = 0. })

let rows m = m.rows
let cols m = m.cols

let check_index m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Cmatrix: index out of range"

let get m i j =
  check_index m i j;
  m.data.((i * m.cols) + j)

let set m i j x =
  check_index m i j;
  m.data.((i * m.cols) + j) <- x

let check_same_shape name a b =
  if not (Int.equal a.rows b.rows && Int.equal a.cols b.cols) then
    invalid_arg (Printf.sprintf "Cmatrix.%s: shape mismatch" name)

let add a b =
  check_same_shape "add" a b;
  { a with data = Array.mapi (fun k x -> Complex.add x b.data.(k)) a.data }

let sub a b =
  check_same_shape "sub" a b;
  { a with data = Array.mapi (fun k x -> Complex.sub x b.data.(k)) a.data }

let scale alpha a =
  { a with data = Array.map (fun x -> Complex.mul alpha x) a.data }

let mv a x =
  if a.cols <> Array.length x then invalid_arg "Cmatrix.mv: dimension";
  Array.init a.rows (fun i ->
      let acc = ref zero in
      for j = 0 to a.cols - 1 do
        acc := Complex.add !acc (Complex.mul a.data.((i * a.cols) + j) x.(j))
      done;
      !acc)

let solve a b =
  let n = a.rows in
  if not (Int.equal a.cols n) then invalid_arg "Cmatrix.solve: non-square matrix";
  if Array.length b <> n then invalid_arg "Cmatrix.solve: dimension mismatch";
  let m = Array.init n (fun i -> Array.init n (fun j -> get a i j)) in
  let x = Array.copy b in
  for k = 0 to n - 1 do
    let pivot_row = ref k in
    for i = k + 1 to n - 1 do
      if Complex.norm m.(i).(k) > Complex.norm m.(!pivot_row).(k) then
        pivot_row := i
    done;
    if not (Int.equal !pivot_row k) then begin
      let tmp = m.(k) in
      m.(k) <- m.(!pivot_row);
      m.(!pivot_row) <- tmp;
      let tb = x.(k) in
      x.(k) <- x.(!pivot_row);
      x.(!pivot_row) <- tb
    end;
    let pivot = m.(k).(k) in
    (* mrm:ignore SRC001 -- sentinel: exact zero norm means a structurally
       singular pivot; a tolerance would reject valid stiff systems *)
    if Complex.norm pivot = 0. then failwith "Cmatrix.solve: singular matrix";
    for i = k + 1 to n - 1 do
      let factor = Complex.div m.(i).(k) pivot in
      (* mrm:ignore SRC001 -- sentinel: skip exactly-zero elimination factors *)
      if Complex.norm factor <> 0. then begin
        for j = k to n - 1 do
          m.(i).(j) <- Complex.sub m.(i).(j) (Complex.mul factor m.(k).(j))
        done;
        x.(i) <- Complex.sub x.(i) (Complex.mul factor x.(k))
      end
    done
  done;
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := Complex.sub !acc (Complex.mul m.(i).(j) x.(j))
    done;
    x.(i) <- Complex.div !acc m.(i).(i)
  done;
  x

type t = float array

let create n x = Array.make n x
let zeros n = Array.make n 0.
let ones n = Array.make n 1.
let init = Array.init
let copy = Array.copy
let dim = Array.length

let check_same_dim name a b =
  if Array.length a <> Array.length b then
    invalid_arg
      (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name
         (Array.length a) (Array.length b))

let add a b =
  check_same_dim "add" a b;
  Array.mapi (fun i x -> x +. b.(i)) a

let sub a b =
  check_same_dim "sub" a b;
  Array.mapi (fun i x -> x -. b.(i)) a

let scale alpha a = Array.map (fun x -> alpha *. x) a

let axpy ~alpha ~x ~y =
  check_same_dim "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (alpha *. x.(i))
  done

let add_inplace dst src =
  check_same_dim "add_inplace" dst src;
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- dst.(i) +. src.(i)
  done

let dot a b =
  check_same_dim "dot" a b;
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let norm_inf a = Array.fold_left (fun acc x -> Float.max acc (abs_float x)) 0. a
let norm1 a = Array.fold_left (fun acc x -> acc +. abs_float x) 0. a
let norm2 a = sqrt (dot a a)
let sum a = Array.fold_left ( +. ) 0. a
let map = Array.map

let max_abs_diff a b =
  check_same_dim "max_abs_diff" a b;
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := Float.max !acc (abs_float (a.(i) -. b.(i)))
  done;
  !acc

let approx_equal ?(tol = 1e-9) a b =
  Array.length a = Array.length b
  && begin
       let ok = ref true in
       for i = 0 to Array.length a - 1 do
         let scale = 1. +. Float.max (abs_float a.(i)) (abs_float b.(i)) in
         if abs_float (a.(i) -. b.(i)) > tol *. scale then ok := false
       done;
       !ok
     end

let pp ppf a =
  Format.fprintf ppf "[|";
  Array.iteri
    (fun i x ->
      if i > 0 then Format.fprintf ppf "; ";
      Format.fprintf ppf "%g" x)
    a;
  Format.fprintf ppf "|]"

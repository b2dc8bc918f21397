module Sparse = Mrm_linalg.Sparse

(* ------------------------------------------------------------------ *)
(* Structure-specialized dispatch. Detection runs once per solve; each
   randomization round then goes through the tridiagonal band kernel
   when the matrix is a birth-death/ON-OFF generator and the generic
   CSR kernel otherwise. The two are bit-for-bit equal (see
   Mrm_linalg.Sparse). *)

type structure =
  | Csr of Sparse.t
  | Tridiagonal of Sparse.tridiag

let detect matrix =
  match Sparse.as_tridiagonal matrix with
  | Some td -> Tridiagonal td
  | None -> Csr matrix

let structure_kind = function
  | Csr _ -> "csr"
  | Tridiagonal _ -> "tridiagonal"

let mv_fused structure xs ys ~lo ~hi =
  match structure with
  | Csr matrix -> Sparse.mv_multi_into_range matrix xs ys ~lo ~hi
  | Tridiagonal td -> Sparse.tridiag_mv_multi_into_range td xs ys ~lo ~hi

let round structure rewards ~cur ~next ~weights ~accs ~lo ~hi =
  match structure with
  | Csr matrix ->
      Sparse.round_into_range matrix rewards ~cur ~next ~weights ~accs ~lo
        ~hi
  | Tridiagonal td ->
      Sparse.tridiag_round_into_range td rewards ~cur ~next ~weights ~accs
        ~lo ~hi

let for_ranges pool partition f =
  let ranges = Partition.ranges partition in
  if Racecheck.enabled () then
    Racecheck.check_ranges ~what:"Kernel.for_ranges"
      ~rows:(Partition.rows partition) ranges;
  Pool.run pool (Array.length ranges) (fun k ->
      let lo, hi = ranges.(k) in
      if hi > lo then f lo hi)

let sweep pool partition ~rounds body =
  if rounds > 0 then begin
    let ranges = Partition.ranges partition in
    if Racecheck.enabled () then
      Racecheck.check_ranges ~what:"Kernel.sweep"
        ~rows:(Partition.rows partition) ranges;
    let run_range ~round k =
      let lo, hi = ranges.(k) in
      if hi > lo then body ~round ~lo ~hi
    in
    let pinned =
      match pool with
      | Some pool ->
          Pool.run_pinned pool ~parties:(Array.length ranges) ~rounds
            run_range
      | None -> false
    in
    if not pinned then
      (* In-caller fallback (no pool, 1 job, busy pool, sequential
         backend): the same per-range bodies in range order. Rounds
         write disjoint slices, so this is bit-for-bit the parallel
         result. *)
      for round = 0 to rounds - 1 do
        for k = 0 to Array.length ranges - 1 do
          run_range ~round k
        done
      done
  end

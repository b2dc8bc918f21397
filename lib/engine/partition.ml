module Sparse = Mrm_linalg.Sparse

let m_imbalance = Mrm_obs.Metrics.gauge "partition.imbalance"

type t = { ranges : (int * int) array; rows : int }

let ranges p = p.ranges
let parts p = Array.length p.ranges
let rows p = p.rows

let uniform ~parts ~rows =
  if parts < 1 then invalid_arg "Partition.uniform: parts must be >= 1";
  if rows < 0 then invalid_arg "Partition.uniform: negative rows";
  let boundary k = k * rows / parts in
  {
    ranges = Array.init parts (fun k -> (boundary k, boundary (k + 1)));
    rows;
  }

let by_nnz ~parts matrix =
  if parts < 1 then invalid_arg "Partition.by_nnz: parts must be >= 1";
  let rows = Sparse.rows matrix in
  let total = Sparse.nnz matrix in
  if total = 0 then uniform ~parts ~rows
  else begin
    let offsets = Sparse.row_offsets matrix in
    (* boundary k = first row whose cumulative nnz reaches k*total/parts;
       offsets is non-decreasing, so a binary search per boundary. *)
    let boundary k =
      if k = 0 then 0
      else if Int.equal k parts then rows
      else begin
        let target = k * total / parts in
        let lo = ref 0 and hi = ref rows in
        (* invariant: offsets.(!lo) < target... searching smallest r with
           offsets.(r) >= target. *)
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if offsets.(mid) >= target then hi := mid else lo := mid + 1
        done;
        !lo
      end
    in
    let bounds = Array.init (parts + 1) boundary in
    (* Monotonicity holds because the targets are increasing, but two
       boundaries can coincide on a dense row; the resulting empty
       ranges are legal and skipped by the kernels. *)
    { ranges = Array.init parts (fun k -> (bounds.(k), bounds.(k + 1))); rows }
  end

(* Worst-case load ratio of the partition: parts * max_part_nnz /
   total_nnz, 1.0 = perfectly balanced. Recorded as a running maximum
   so a long run surfaces its worst split. *)
let record_imbalance partition matrix =
  let parts = Array.length partition.ranges in
  let total = Sparse.nnz matrix in
  if total > 0 && parts > 1 then begin
    let offsets = Sparse.row_offsets matrix in
    let worst = ref 0 in
    Array.iter
      (fun (lo, hi) -> worst := max !worst (offsets.(hi) - offsets.(lo)))
      partition.ranges;
    Mrm_obs.Metrics.observe_max m_imbalance
      (float_of_int (parts * !worst) /. float_of_int total)
  end;
  partition

let pinned ~jobs matrix =
  if jobs < 1 then invalid_arg "Partition.pinned: jobs must be >= 1";
  (* Exactly one range per party — the barrier protocol of
     [Pool.run_pinned] requires parts = parties <= jobs, and every
     party must own a range (possibly empty) so all of them keep
     meeting the barrier. No 4x slack: pinned ranges are not
     rescheduled, balance comes entirely from the nnz split. *)
  record_imbalance (by_nnz ~parts:jobs matrix) matrix

let of_ranges ~rows ranges =
  if rows < 0 then invalid_arg "Partition.of_ranges: negative rows";
  { ranges = Array.copy ranges; rows }

let pp ppf p =
  Format.fprintf ppf "@[<h>partition %d rows in %d part(s):" p.rows
    (Array.length p.ranges);
  Array.iter (fun (lo, hi) -> Format.fprintf ppf " [%d,%d)" lo hi) p.ranges;
  Format.fprintf ppf "@]"

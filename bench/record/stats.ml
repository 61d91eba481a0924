(* Sample summaries for latencies and repeated runs. *)

let percentile xs p = Linalg.Stats.percentile xs p
let median xs = percentile xs 50.0

(* Quartiles as Python's [statistics.quantiles xs ~n:4] computes them
   (its default 'exclusive' method), so the spreads printed here are
   the ones a reader recomputes from the JSON. Needs one sample; with
   one, all three quartiles are that sample. *)
let quartiles xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quartiles: empty sample";
  let d = Array.copy xs in
  Array.sort Float.compare d;
  if n = 1 then (d.(0), d.(0), d.(0))
  else
    let m = n + 1 in
    let q i =
      let j = Int.max 1 (Int.min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let iqr xs =
  let q1, _, q3 = quartiles xs in
  q3 -. q1

(* IQR as a share of the median: the spread the regression bounds in
   BENCHMARK.json are compared against. *)
let relative_spread xs =
  let m = median xs in
  if m = 0.0 then 0.0 else iqr xs /. Float.abs m

(* Candidate tail percentiles in per-mille, highest first. *)
let ladder = [ 999; 990; 900; 750; 500 ]

type tail = {
  permille : int;  (** e.g. 900 for p90 *)
  value : float;
  iqr : float;     (** of the whole sample *)
}

(* The highest percentile with at least ten samples beyond it, so a
   reported tail is never one or two outliers. [None] below twenty
   samples, where not even the median has ten samples above it. *)
let tail xs =
  let n = Array.length xs in
  match List.find_opt (fun q -> n * (1000 - q) / 1000 >= 10) ladder with
  | None -> None
  | Some q ->
      Some
        {
          permille = q;
          value = percentile xs (float_of_int q /. 10.0);
          iqr = iqr xs;
        }

let tail_name permille =
  if permille mod 10 = 0 then Printf.sprintf "p%d" (permille / 10)
  else Printf.sprintf "p%d.%d" (permille / 10) (permille mod 10)

let minimum xs = Array.fold_left Float.min infinity xs

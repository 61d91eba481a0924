(* Unit test for the percentile helpers. Exits non-zero on the first
   failed expectation. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)
let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let () =
  (* The tail is the highest percentile with at least ten samples
     beyond it. *)
  let permille n = Option.map (fun t -> t.Stats.permille) (Stats.tail (ramp n)) in
  check "19 samples: no tail" (permille 19 = None);
  check "20 samples: median" (permille 20 = Some 500);
  check "39 samples: median" (permille 39 = Some 500);
  check "40 samples: p75" (permille 40 = Some 750);
  check "99 samples: p75" (permille 99 = Some 750);
  check "100 samples: p90" (permille 100 = Some 900);
  check "120 samples: p90" (permille 120 = Some 900);
  check "999 samples: p90" (permille 999 = Some 900);
  check "1000 samples: p99" (permille 1000 = Some 990);
  check "1600 samples: p99" (permille 1600 = Some 990);
  check "10000 samples: p99.9" (permille 10000 = Some 999);
  (* Linear interpolation between order statistics, shuffled input. *)
  let xs = ramp 120 in
  Linalg.Rng.shuffle_in_place (Linalg.Rng.create 3) xs;
  (match Stats.tail xs with
   | Some t ->
       check "p90 value of 1..120" (close t.Stats.value 108.1);
       check "IQR rides along" (close t.Stats.iqr (Stats.iqr xs))
   | None -> check "120 samples have a tail" false);
  (* Quartiles match Python's statistics.quantiles(xs, n=4):
     quantiles([1..10]) = [2.75, 5.5, 8.25];
     quantiles([1, 2, 4, 8, 16]) = [1.5, 4.0, 12.0]. *)
  let q1, q2, q3 = Stats.quartiles (ramp 10) in
  check "quartiles of 1..10" (close q1 2.75 && close q2 5.5 && close q3 8.25);
  let q1, q2, q3 = Stats.quartiles [| 16.; 1.; 8.; 2.; 4. |] in
  check "quartiles of powers of two" (close q1 1.5 && close q2 4.0 && close q3 12.0);
  check "IQR of 1..10" (close (Stats.iqr (ramp 10)) 5.5);
  check "spread of 1..10" (close (Stats.relative_spread (ramp 10)) 1.0);
  check "one sample" (Stats.quartiles [| 7.0 |] = (7.0, 7.0, 7.0));
  check "tail names"
    (Stats.tail_name 900 = "p90" && Stats.tail_name 999 = "p99.9");
  if !failures > 0 then exit 1;
  print_endline "stats: all percentile checks passed"

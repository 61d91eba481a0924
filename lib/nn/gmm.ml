type component = {
  weight : float;
  mu_lat : float;
  mu_lon : float;
  sigma_lat : float;
  sigma_lon : float;
}

type t = component array

let output_dim ~components = 5 * components

let logit_index ~components:_ k = k
let mu_lat_index ~components k = components + k
let mu_lon_index ~components k = (2 * components) + k
let log_sigma_lat_index ~components k = (3 * components) + k
let log_sigma_lon_index ~components k = (4 * components) + k

let log_sigma_min = -4.0
let log_sigma_max = 3.0

let clamp_log_sigma x = Float.max log_sigma_min (Float.min log_sigma_max x)

let check_length ~components v =
  if Array.length v <> output_dim ~components then
    invalid_arg
      (Printf.sprintf "Gmm.decode: expected %d outputs, got %d"
         (output_dim ~components) (Array.length v))

(* The softmax of the [components] logits, read straight from [v]:
   max-fold, [exp], sum, then divide in place. [decode] and
   [mean_of_output] both take their weights from here, so the mean read
   either way is the same bits. *)
let weights_of_output ~components v =
  let m = ref neg_infinity in
  for k = 0 to components - 1 do
    m := Float.max !m v.(logit_index ~components k)
  done;
  let m = !m in
  let e =
    Array.init components (fun k -> exp (v.(logit_index ~components k) -. m))
  in
  let s = Array.fold_left ( +. ) 0.0 e in
  for k = 0 to components - 1 do
    e.(k) <- e.(k) /. s
  done;
  e

let decode ~components v =
  check_length ~components v;
  let weights = weights_of_output ~components v in
  Array.init components (fun k ->
      {
        weight = weights.(k);
        mu_lat = v.(mu_lat_index ~components k);
        mu_lon = v.(mu_lon_index ~components k);
        sigma_lat = exp (clamp_log_sigma v.(log_sigma_lat_index ~components k));
        sigma_lon = exp (clamp_log_sigma v.(log_sigma_lon_index ~components k));
      })

let mean t =
  Array.fold_left
    (fun (lat, lon) c -> (lat +. (c.weight *. c.mu_lat), lon +. (c.weight *. c.mu_lon)))
    (0.0, 0.0) t

let max_component_mu_lat t =
  Array.fold_left (fun acc c -> Float.max acc c.mu_lat) neg_infinity t

(* [mean (decode v)] without the records and the sigma [exp]s: the same
   weights, then [mean]'s weighted sums in the same order. *)
let mean_of_output ~components v =
  check_length ~components v;
  let w = weights_of_output ~components v in
  let lat = ref 0.0 and lon = ref 0.0 in
  for k = 0 to components - 1 do
    lat := !lat +. (w.(k) *. v.(mu_lat_index ~components k));
    lon := !lon +. (w.(k) *. v.(mu_lon_index ~components k))
  done;
  (!lat, !lon)

let max_mu_lat_of_output ~components v =
  check_length ~components v;
  let m = ref neg_infinity in
  for k = 0 to components - 1 do
    m := Float.max !m v.(mu_lat_index ~components k)
  done;
  !m

let log_gauss x mu sigma =
  let d = (x -. mu) /. sigma in
  -.0.5 *. ((d *. d) +. log (2.0 *. Float.pi)) -. log sigma

let component_log_density c ~lat ~lon =
  log_gauss lat c.mu_lat c.sigma_lat +. log_gauss lon c.mu_lon c.sigma_lon

let log_sum_exp xs =
  let m = Array.fold_left Float.max neg_infinity xs in
  if Float.is_finite m then
    m +. log (Array.fold_left (fun acc x -> acc +. exp (x -. m)) 0.0 xs)
  else m

let log_likelihood t ~lat ~lon =
  let terms =
    Array.map (fun c -> log c.weight +. component_log_density c ~lat ~lon) t
  in
  log_sum_exp terms

let density t ~lat ~lon = exp (log_likelihood t ~lat ~lon)

let responsibilities t ~lat ~lon =
  let terms =
    Array.map (fun c -> log c.weight +. component_log_density c ~lat ~lon) t
  in
  let z = log_sum_exp terms in
  Array.map (fun l -> exp (l -. z)) terms

let sample t rng =
  let u = Linalg.Rng.float rng 1.0 in
  let rec pick k acc =
    if k >= Array.length t - 1 then t.(Array.length t - 1)
    else
      let acc = acc +. t.(k).weight in
      if u <= acc then t.(k) else pick (k + 1) acc
  in
  let c = pick 0 0.0 in
  ( Linalg.Rng.gaussian_scaled rng ~mean:c.mu_lat ~stddev:c.sigma_lat,
    Linalg.Rng.gaussian_scaled rng ~mean:c.mu_lon ~stddev:c.sigma_lon )

let nll_and_grad ~components v ~lat ~lon =
  let mixture = decode ~components v in
  let log_terms =
    Array.map (fun c -> log c.weight +. component_log_density c ~lat ~lon) mixture
  in
  let z = log_sum_exp log_terms in
  let nll = -.z in
  let r = Array.map (fun l -> exp (l -. z)) log_terms in
  let grad = Array.make (Array.length v) 0.0 in
  for k = 0 to components - 1 do
    let c = mixture.(k) in
    (* d nll / d logit_k = pi_k - r_k *)
    grad.(logit_index ~components k) <- c.weight -. r.(k);
    (* d nll / d mu = r_k (mu - y) / sigma^2 *)
    grad.(mu_lat_index ~components k) <-
      r.(k) *. (c.mu_lat -. lat) /. (c.sigma_lat *. c.sigma_lat);
    grad.(mu_lon_index ~components k) <-
      r.(k) *. (c.mu_lon -. lon) /. (c.sigma_lon *. c.sigma_lon);
    (* d nll / d log_sigma = r_k (1 - d^2); zero outside the clamp range. *)
    let dlat = (lat -. c.mu_lat) /. c.sigma_lat in
    let dlon = (lon -. c.mu_lon) /. c.sigma_lon in
    let raw_lat = v.(log_sigma_lat_index ~components k) in
    let raw_lon = v.(log_sigma_lon_index ~components k) in
    grad.(log_sigma_lat_index ~components k) <-
      (if raw_lat > log_sigma_min && raw_lat < log_sigma_max then
         r.(k) *. (1.0 -. (dlat *. dlat))
       else 0.0);
    grad.(log_sigma_lon_index ~components k) <-
      (if raw_lon > log_sigma_min && raw_lon < log_sigma_max then
         r.(k) *. (1.0 -. (dlon *. dlon))
       else 0.0)
  done;
  (nll, grad)

type envelope = {
  lat_limit : float;
  output_limit : float;
  components : int;
}

let output_limit = 20.0

let envelope ~components ~lat_limit () =
  if not (Float.is_finite lat_limit) then
    invalid_arg "Guard.envelope: lat_limit must be finite";
  if components <= 0 then invalid_arg "Guard.envelope: components";
  { lat_limit; output_limit; components }

let envelope_of_verification ~components ?threshold
    (r : Verify.Driver.max_result) =
  let proven = r.Verify.Driver.upper_bound in
  let lat_limit =
    match threshold with
    | Some th when Float.is_finite proven -> Float.min proven th
    | Some th -> th
    | None -> if Float.is_finite proven then proven else output_limit
  in
  envelope ~components ~lat_limit ()

type state = Nominal | Clamped | Fallback

let state_name = function
  | Nominal -> "nominal"
  | Clamped -> "clamped"
  | Fallback -> "fallback"

type trip =
  | Non_finite_output of { index : int }
  | Envelope_exceeded of { lat : float; limit : float }
  | Output_out_of_range of { lat : float; lon : float; limit : float }
  | Forward_raised of { exn : string }

let trip_message = function
  | Non_finite_output { index } ->
      Printf.sprintf "non-finite network output at index %d" index
  | Envelope_exceeded { lat; limit } ->
      Printf.sprintf "lateral velocity %.3f m/s exceeds verified envelope %.3f"
        lat limit
  | Output_out_of_range { lat; lon; limit } ->
      Printf.sprintf "action (%.1f, %.1f) outside sanity range +-%.1f" lat lon
        limit
  | Forward_raised { exn } -> "forward pass raised: " ^ exn

type diagnostics = {
  predictions : int;
  nominal : int;
  clamped : int;
  fallbacks : int;
  nan_trips : int;
  envelope_trips : int;
  exception_trips : int;
  last_trip : trip option;
}

type counters = {
  mutable predictions : int;
  mutable nominal : int;
  mutable clamped : int;
  mutable fallbacks : int;
  mutable nan_trips : int;
  mutable envelope_trips : int;
  mutable exception_trips : int;
  mutable last_trip : trip option;
}

type t = {
  net : Nn.Network.t;
  env : envelope;
  fallback : Linalg.Vec.t -> float * float;
  c : counters;
}

(* {1 Physics fallback: constant-lane IDM extrapolation} *)

(* The fallback must produce a sane action from a possibly corrupted
   feature vector, so every read is sanitised before it reaches the
   car-following law. *)
let finite_or default x = if Float.is_finite x then x else default

let read v i default =
  if i >= 0 && i < Array.length v then finite_or default v.(i) else default

let idm_fallback v =
  let open Highway.Features in
  let speed =
    Float.max 0.0 (read v ego_speed 0.5 *. speed_scale)
  in
  let desired =
    Float.max 1.0 (read v ego_desired_speed 0.6 *. speed_scale)
  in
  let front = orientation_base Highway.Orientation.Front in
  let present = read v (front + presence_offset) 0.0 > 0.5 in
  let accel =
    if present then begin
      let gap =
        Float.max 0.1 (read v (front + gap_offset) 1.0 *. distance_scale)
      in
      let rel_speed = read v (front + rel_speed_offset) 0.0 *. rel_speed_scale in
      let leader_speed = Float.max 0.0 (speed +. rel_speed) in
      Highway.Idm.accel Highway.Idm.default ~speed ~desired_speed:desired ~gap
        ~leader_speed
    end
    else
      Highway.Idm.free_road_accel Highway.Idm.default ~speed
        ~desired_speed:desired
  in
  (* Constant lane: no lateral motion while degraded. *)
  (0.0, finite_or 0.0 accel)

(* {1 Monitor} *)

(* How far beyond [lat_limit] (m/s) a lateral velocity is still
   saturated rather than handed to the fallback. *)
let clamp_band = 1.0

let make ~envelope:env ?(fallback = idm_fallback) net =
  {
    net;
    env;
    fallback;
    c =
      {
        predictions = 0;
        nominal = 0;
        clamped = 0;
        fallbacks = 0;
        nan_trips = 0;
        envelope_trips = 0;
        exception_trips = 0;
        last_trip = None;
      };
  }

let network t = t.net
let guard_envelope t = t.env

let diagnostics t : diagnostics =
  {
    predictions = t.c.predictions;
    nominal = t.c.nominal;
    clamped = t.c.clamped;
    fallbacks = t.c.fallbacks;
    nan_trips = t.c.nan_trips;
    envelope_trips = t.c.envelope_trips;
    exception_trips = t.c.exception_trips;
    last_trip = t.c.last_trip;
  }

let reset t =
  t.c.predictions <- 0;
  t.c.nominal <- 0;
  t.c.clamped <- 0;
  t.c.fallbacks <- 0;
  t.c.nan_trips <- 0;
  t.c.envelope_trips <- 0;
  t.c.exception_trips <- 0;
  t.c.last_trip <- None

let first_non_finite out =
  let n = Array.length out in
  let rec go i =
    if i >= n then None
    else if Float.is_finite out.(i) then go (i + 1)
    else Some i
  in
  go 0

(* Even the caller-supplied fallback is fenced: whatever it does, the
   guard's contract (never raise, always finite) holds. *)
let run_fallback t x =
  t.c.fallbacks <- t.c.fallbacks + 1;
  match t.fallback x with
  | lat, lon -> (finite_or 0.0 lat, finite_or 0.0 lon)
  | exception _ -> (0.0, 0.0)

type reading =
  | Raised of exn
  | Non_finite of int
  | Finite of { lat : float; lon : float; worst_lat : float }

(* The mean is read straight from the output, bit-equal to decoding the
   mixture first; its length check runs before the finiteness scan, as
   [decode]'s did, so a wrong-length output reads as [Raised]. Finite
   raw outputs can still decode to a non-finite mean (softmax overflow
   on extreme logits): that reads as [Non_finite (-1)]. *)
let read ~components = function
  | Error e -> Raised e
  | Ok out -> (
      match Nn.Gmm.mean_of_output ~components out with
      | exception e -> Raised e
      | lat, lon -> (
          match first_non_finite out with
          | Some index -> Non_finite index
          | None ->
              let worst_lat = Nn.Gmm.max_mu_lat_of_output ~components out in
              if
                Float.is_finite lat && Float.is_finite lon
                && Float.is_finite worst_lat
              then Finite { lat; lon; worst_lat }
              else Non_finite (-1)))

(* Classification of one reading. Shared verbatim by the scalar
   [predict], the batched [predict_batch] and callers holding their own
   outputs (the fault campaign), so all update the counters and trip
   records identically for the same network output. *)
let classify t x reading =
  t.c.predictions <- t.c.predictions + 1;
  let trip reason =
    t.c.last_trip <- Some reason;
    (run_fallback t x, Fallback)
  in
  match reading with
  | Raised e ->
      t.c.exception_trips <- t.c.exception_trips + 1;
      trip (Forward_raised { exn = Printexc.to_string e })
  | Non_finite index ->
      t.c.nan_trips <- t.c.nan_trips + 1;
      trip (Non_finite_output { index })
  | Finite { lat; lon; worst_lat } ->
      if
        Float.abs lat > t.env.output_limit || Float.abs lon > t.env.output_limit
      then begin
        t.c.envelope_trips <- t.c.envelope_trips + 1;
        trip (Output_out_of_range { lat; lon; limit = t.env.output_limit })
      end
      else if worst_lat > t.env.lat_limit then begin
        t.c.envelope_trips <- t.c.envelope_trips + 1;
        t.c.last_trip <-
          Some (Envelope_exceeded { lat = worst_lat; limit = t.env.lat_limit });
        if worst_lat <= t.env.lat_limit +. clamp_band then begin
          t.c.clamped <- t.c.clamped + 1;
          ((Float.min lat t.env.lat_limit, lon), Clamped)
        end
        else (run_fallback t x, Fallback)
      end
      else begin
        t.c.nominal <- t.c.nominal + 1;
        ((lat, lon), Nominal)
      end

let classify_result t x result =
  classify t x (read ~components:t.env.components result)

let predict t x =
  classify_result t x
    (match Nn.Network.forward t.net x with
     | out -> Ok out
     | exception e -> Error e)

let predict_batch t xs =
  let results = Nn.Network.forward_each t.net xs in
  Array.mapi (fun i result -> classify_result t xs.(i) result) results

let render_diagnostics (d : diagnostics) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "runtime guard diagnostics\n";
  Buffer.add_string buf
    (Printf.sprintf "  predictions      %d\n" d.predictions);
  Buffer.add_string buf
    (Printf.sprintf "  nominal          %d\n" d.nominal);
  Buffer.add_string buf
    (Printf.sprintf "  clamped          %d\n" d.clamped);
  Buffer.add_string buf
    (Printf.sprintf "  fallbacks        %d\n" d.fallbacks);
  Buffer.add_string buf
    (Printf.sprintf "  nan/inf trips    %d\n" d.nan_trips);
  Buffer.add_string buf
    (Printf.sprintf "  envelope trips   %d\n" d.envelope_trips);
  Buffer.add_string buf
    (Printf.sprintf "  exception trips  %d\n" d.exception_trips);
  (match d.last_trip with
   | Some reason ->
       Buffer.add_string buf ("  last trip        " ^ trip_message reason ^ "\n")
   | None -> ());
  Buffer.contents buf

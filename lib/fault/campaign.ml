type trial = {
  fault : Model.t;
  detected : bool;
  nan_raw : bool;
  nan_detected : bool;
  violation_raw : bool;
  violation_detected : bool;
  silent : bool;
  max_deviation : float;
  fallbacks : int;
  escaped_exception : bool;
}

type reverification = {
  rv_fault : Model.t;
  rv_empirical_max : float;
  rv_formal_bound : float;
  rv_sound : bool;
}

type report = {
  trials : trial array;
  scenes : int;
  detected : int;
  nan_trials : int;
  nan_detected : int;
  violation_trials : int;
  violations_detected : int;
  silent : int;
  benign : int;
  escaped_exceptions : int;
  total_fallbacks : int;
  failed_workers : int;
  reverified : reverification list;
  elapsed : float;
}

(* The unguarded verdict on one forward result, read off the guard's
   reading without the envelope: the actuator receives NaN/Inf when the
   forward raised, a raw output is non-finite or the mixture mean
   overflowed (exp of a huge logit is inf, softmax inf/inf is NaN);
   otherwise the verifier's objective sees the worst-case component
   lateral mean. *)
type raw_verdict = Raw_nan | Raw_finite of float

let raw_verdict = function
  | Guard.Finite { worst_lat; _ } -> Raw_finite worst_lat
  | Guard.Raised _ | Guard.Non_finite _ -> Raw_nan

let forward_result net x =
  match Nn.Network.forward net x with out -> Ok out | exception e -> Error e

let raw_eval ~components net input =
  raw_verdict (Guard.read ~components (forward_result net input))

(* Clean-predictor reference lateral action, for the silent-corruption
   test; anything non-finite (or a raised forward) references as 0. *)
let reference_lat_of ~components = function
  | Error _ -> 0.0
  | Ok out -> (
      match Nn.Gmm.mean_of_output ~components out with
      | exception _ -> 0.0
      | lat, _ -> if Float.is_finite lat then lat else 0.0)

(* One scene of one trial: the guarded lateral action, the guard's
   state and the unguarded verdict, or [Escaped] when the guard's
   classification raised (it never should). *)
type verdict =
  | Escaped
  | Verdict of { lat : float; state : Guard.state; raw : raw_verdict }

let classify guard x reading =
  match Guard.classify guard x reading with
  | exception _ -> Escaped
  | (lat, _), state -> Verdict { lat; state; raw = raw_verdict reading }

let bits_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

let vec_bits_equal a b =
  let n = Array.length a in
  let i = ref 0 in
  while !i < n && !i < Array.length b && bits_equal a.(!i) b.(!i) do
    incr i
  done;
  !i = n && n = Array.length b

(* The indices [0 .. n-1] that satisfy [p], in increasing order. *)
let indices_where n p =
  let found = Array.make n 0 and m = ref 0 in
  for j = 0 to n - 1 do
    if p j then begin
      found.(!m) <- j;
      incr m
    end
  done;
  Array.sub found 0 !m

(* [sweep net ~first cols ~each] pushes [cols], the activations
   entering layer [first] (the inputs when [first = 0]), through layers
   [first..] of [net], at most [Nn.Network.chunk_width] columns per
   packed product, and
   calls [each l off y] with layer [l]'s activations [y] of the chunk
   whose first column is [cols.(off)]. Every element of a packed
   product depends only on its own row and column, so a column's
   activations are bit-equal whatever else shares its chunk. *)
let sweep net ~first cols ~each =
  let n = Array.length cols in
  let off = ref 0 in
  while !off < n do
    let len = min Nn.Network.chunk_width (n - !off) in
    let y =
      ref
        (Linalg.Mat.of_cols
           ~rows:(Array.length cols.(!off))
           (Array.sub cols !off len))
    in
    for l = first to Nn.Network.num_layers net - 1 do
      y := Nn.Layer.forward_batch (Nn.Network.layer net l) !y;
      each l !off !y
    done;
    off := !off + len
  done

(* The outputs of [sweep] from layer [first], one per column. *)
let sweep_outputs net ~first cols =
  let outs = Array.make (Array.length cols) [||] in
  let last = Nn.Network.num_layers net - 1 in
  sweep net ~first cols ~each:(fun l off y ->
      if l = last then
        for j = 0 to Linalg.Mat.cols y - 1 do
          outs.(off + j) <- Linalg.Mat.col y j
        done);
  outs

(* The clean network's pass over the scenes, built once per [run]
   before any trial and only read after. Only scenes of the network's
   input length can be packed ([packed] lists them in scene order); a
   forward of any other raises, with or without a fault, so those
   scenes are classified here once. [posts.(l).(j)] is layer [l]'s
   activation column on scene [packed.(j)]; the last layer's is the
   clean output. *)
type clean = {
  packed : int array;
  posts : Linalg.Vec.t array array;
  reference_lat : float array;  (** per scene *)
  verdicts : verdict array;  (** per scene, under a fresh guard *)
}

let clean_pass ~components guard net scenes =
  let in_dim = Nn.Network.input_dim net in
  let packed =
    indices_where (Array.length scenes) (fun s ->
        Array.length scenes.(s) = in_dim)
  in
  let posts =
    Array.init (Nn.Network.num_layers net) (fun _ ->
        Array.make (Array.length packed) [||])
  in
  sweep net ~first:0
    (Array.map (fun s -> scenes.(s)) packed)
    ~each:(fun l off y ->
      for j = 0 to Linalg.Mat.cols y - 1 do
        posts.(l).(off + j) <- Linalg.Mat.col y j
      done);
  (* A scene that cannot be packed keeps the exception its scalar
     forward raises; the others take their packed output. *)
  let results =
    Array.map
      (fun x -> if Array.length x = in_dim then Ok [||] else forward_result net x)
      scenes
  in
  Array.iteri
    (fun j s -> results.(s) <- Ok posts.(Array.length posts - 1).(j))
    packed;
  {
    packed;
    posts;
    reference_lat = Array.map (reference_lat_of ~components) results;
    verdicts =
      Array.mapi
        (fun s r -> classify guard scenes.(s) (Guard.read ~components r))
        results;
  }

(* How far (m/s) an undetected guarded action may stray from the clean
   predictor's before the trial counts as silent corruption. *)
let silent_tolerance = 0.05

(* Tally one trial from its per-scene verdicts, in scene order. *)
let tally ~envelope ~reference_lat fault verdicts =
  let detected = ref false and escaped = ref false in
  let nan_raw = ref false and nan_all_tripped = ref true in
  let violation_raw = ref false and violation_all_flagged = ref true in
  let max_deviation = ref 0.0 and fallbacks = ref 0 in
  for s = 0 to Array.length verdicts - 1 do
    match verdicts.(s) with
    | Escaped -> escaped := true
    | Verdict { lat; state; raw } ->
        if state <> Guard.Nominal then detected := true;
        if state = Guard.Fallback then incr fallbacks;
        (match raw with
         | Raw_nan ->
             nan_raw := true;
             if state <> Guard.Fallback then nan_all_tripped := false
         | Raw_finite worst ->
             if worst > envelope.Guard.lat_limit then begin
               violation_raw := true;
               if state = Guard.Nominal then violation_all_flagged := false
             end);
        let dev = Float.abs (lat -. reference_lat.(s)) in
        if Float.is_finite dev && dev > !max_deviation then
          max_deviation := dev
  done;
  {
    fault;
    detected = !detected;
    nan_raw = !nan_raw;
    nan_detected = !nan_raw && !nan_all_tripped;
    violation_raw = !violation_raw;
    violation_detected = !violation_raw && !violation_all_flagged;
    silent = (not !detected) && !max_deviation > silent_tolerance;
    max_deviation = !max_deviation;
    fallbacks = !fallbacks;
    escaped_exception = !escaped;
  }

let network_params_finite net =
  let ok = ref true in
  for i = 0 to Nn.Network.num_layers net - 1 do
    let l = Nn.Network.layer net i in
    let w = l.Nn.Layer.weights in
    for r = 0 to Linalg.Mat.rows w - 1 do
      for c = 0 to Linalg.Mat.cols w - 1 do
        if not (Float.is_finite (Linalg.Mat.get w r c)) then ok := false
      done
    done;
    Array.iter (fun b -> if not (Float.is_finite b) then ok := false)
      l.Nn.Layer.bias
  done;
  !ok

(* The tightest box that contains every given scene (all of one
   length, at least one): the formal bound over it must dominate
   anything observed during replay. *)
let bounding_box scenes =
  let dim = Array.length scenes.(0) in
  Array.init dim (fun j ->
      let lo = ref infinity and hi = ref neg_infinity in
      Array.iter
        (fun s ->
          if s.(j) < !lo then lo := s.(j);
          if s.(j) > !hi then hi := s.(j))
        scenes;
      Interval.make (!lo -. 1e-9) (!hi +. 1e-9))

(* Search for a single bit flip that provably drives the unguarded path
   non-finite on one of the given scenes. Bit 62 is the top exponent
   bit: flipping it turns an ordinary weight into ~1e307, which
   overflows to Inf in the next matvec for ~2% of coordinates. Used by
   the CI smoke to make the "every NaN/Inf fault is detected" assertion
   non-vacuous — sampled 64-bit-uniform flips hit this case too rarely. *)
let find_nan_fault ~components ~scenes net =
  let exception Found of Model.t in
  (* A scene of another length raises with or without a fault, which
     would read as non-finite for every candidate. *)
  let in_dim = Nn.Network.input_dim net in
  let scenes =
    Array.of_seq
      (Seq.filter (fun s -> Array.length s = in_dim) (Array.to_seq scenes))
  in
  try
    for layer = 0 to Nn.Network.num_layers net - 1 do
      let l = Nn.Network.layer net layer in
      for row = 0 to Nn.Layer.output_dim l - 1 do
        for col = 0 to Nn.Layer.input_dim l - 1 do
          let nf = Model.Weight_bit_flip { layer; row; col; bit = 62 } in
          let faulted = Model.inject nf net in
          if
            Array.exists
              (fun s -> raw_eval ~components faulted s = Raw_nan)
              scenes
          then raise (Found (Model.Network_fault nf))
        done
      done
    done;
    None
  with Found f -> Some f

let run ~rng ~envelope ?(reverify = 0) ?(reverify_time_limit = 5.0)
    ?(progress = fun _ _ -> ()) ?(cores = 1) ?(faults = []) ~scenes ~trials
    net =
  if Array.length scenes = 0 then invalid_arg "Campaign.run: no scenes";
  if trials <= 0 && faults = [] then
    invalid_arg "Campaign.run: trials must be positive";
  let components = envelope.Guard.components in
  let start = Linalg.Mclock.now () in
  let clean =
    clean_pass ~components (Guard.make ~envelope net) net scenes
  in
  (* The explicit faults run first, then the sampled ones; sampling is
     sequential so the campaign stays bit-reproducible from the seed. *)
  let planned =
    let sampled = Array.make (max 0 trials) None in
    for i = 0 to Array.length sampled - 1 do
      sampled.(i) <- Some (Model.sample ~rng net)
    done;
    Array.append (Array.of_list faults)
      (Array.map Option.get sampled)
  in
  let last = Nn.Network.num_layers net - 1 in
  (* Each trial starts from the clean verdicts and re-classifies only
     the scenes whose output the fault can have changed, through a
     fresh guard. *)
  let run_trial i fault =
    progress i fault;
    let guard = Guard.make ~envelope net in
    let verdicts = Array.copy clean.verdicts in
    let reclassify js inputs outs =
      Array.iteri
        (fun k j ->
          let s = clean.packed.(j) in
          verdicts.(s) <-
            classify guard inputs.(s) (Guard.read ~components (Ok outs.(k))))
        js
    in
    (match fault with
     | Model.Network_fault nf -> (
         match Model.site nf net with
         | Some { Model.layer; row; weights; bias } ->
             (* Only row [row] of layer [layer] differs from the clean
                pass: recompute it from the cached activations below,
                in the kernel's order (ascending-k dot product from 0,
                then the bias, then the activation), and replay the
                scenes whose value changed by bits from that layer on,
                their other rows as cached. *)
             let act = (Nn.Network.layer net layer).Nn.Layer.activation in
             let cached = clean.posts.(layer) in
             let value =
               Array.init (Array.length clean.packed) (fun j ->
                   let below =
                     if layer = 0 then scenes.(clean.packed.(j))
                     else clean.posts.(layer - 1).(j)
                   in
                   Nn.Activation.apply act
                     (Linalg.Vec.dot weights below +. bias))
             in
             let js =
               indices_where (Array.length value) (fun j ->
                   not (bits_equal value.(j) cached.(j).(row)))
             in
             let cols =
               Array.map
                 (fun j ->
                   let col = Array.copy cached.(j) in
                   col.(row) <- value.(j);
                   col)
                 js
             in
             reclassify js scenes
               (if layer = last then cols
                else sweep_outputs net ~first:(layer + 1) cols)
         | None ->
             (* A drift moves every parameter: a full sweep. *)
             let js = Array.init (Array.length clean.packed) Fun.id in
             reclassify js scenes
               (sweep_outputs (Model.inject nf net) ~first:0
                  (Array.map (fun s -> scenes.(s)) clean.packed)))
     | Model.Input_fault f ->
         (* Freeze and stale-hold channels are stateful: every scene is
            corrupted, in order; only those that changed by bits are
            replayed. *)
         let ch = Model.input_channel f in
         let inputs = Array.map (Model.corrupt ch) scenes in
         let js =
           indices_where (Array.length clean.packed) (fun j ->
               let s = clean.packed.(j) in
               not (vec_bits_equal inputs.(s) scenes.(s)))
         in
         reclassify js inputs
           (sweep_outputs net ~first:0
              (Array.map (fun j -> inputs.(clean.packed.(j))) js)));
    tally ~envelope ~reference_lat:clean.reference_lat fault verdicts
  in
  let failed_workers = ref 0 in
  let trial_results =
    let n = Array.length planned in
    if cores <= 1 || n <= 1 then Array.mapi run_trial planned
    else begin
      (* Work-stealing across domains. Each slot is written by exactly
         one worker (the one whose [fetch_and_add] claimed its index)
         and read only after every join, so the array needs no lock. *)
      let slots = Array.make n None in
      let next = Atomic.make 0 in
      let worker () =
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            slots.(i) <- Some (run_trial i planned.(i));
            loop ()
          end
        in
        loop ()
      in
      let domains = List.init (min cores n) (fun _ -> Domain.spawn worker) in
      List.iter
        (fun d ->
          match Domain.join d with
          | () -> ()
          | exception _ -> incr failed_workers)
        domains;
      (* Re-queue: a worker that died mid-trial leaves its claimed slot
         empty; the survivors keep draining the counter, so only the
         trials actually in flight on dead domains are missing. Run
         them here in the parent — a lost worker degrades throughput,
         never coverage (mirrors Milp.Parallel's failed_workers). *)
      Array.mapi
        (fun i slot ->
          match slot with
          | Some t -> t
          | None -> run_trial i planned.(i))
        slots
    end
  in
  (* Re-verify a sample of the faulted networks by MILP: the empirical
     maximum seen during replay must stay below the formal bound. Only
     the scenes of the network's input length bound the box; with none,
     there is nothing to re-verify. *)
  let reverified =
    if reverify <= 0 || Array.length clean.packed = 0 then []
    else begin
      let scenes = Array.map (fun s -> scenes.(s)) clean.packed in
      let box = bounding_box scenes in
      let taken = ref 0 in
      Array.to_list trial_results
      |> List.filter_map (fun tr ->
             match tr.fault with
             | Model.Input_fault _ -> None
             | Model.Network_fault nf ->
                 if !taken >= reverify then None
                 else begin
                   let faulted = Model.inject nf net in
                   if not (network_params_finite faulted) then None
                   else
                     match
                       Verify.Driver.max_lateral_velocity
                         ~time_limit:reverify_time_limit ~components faulted box
                     with
                     | exception _ ->
                         (* Encoder overflow on extreme corruptions
                            (infinite propagated bounds): not
                            MILP-checkable, skip. *)
                         None
                     | r ->
                         incr taken;
                         let empirical =
                           Array.fold_left
                             (fun acc s ->
                               match raw_eval ~components faulted s with
                               | Raw_nan -> acc
                               | Raw_finite w -> Float.max acc w)
                             neg_infinity scenes
                         in
                         let bound = r.Verify.Driver.upper_bound in
                         Some
                           {
                             rv_fault = tr.fault;
                             rv_empirical_max = empirical;
                             rv_formal_bound = bound;
                             rv_sound = empirical <= bound +. 1e-4;
                           }
                 end)
    end
  in
  let count f = Array.fold_left (fun n t -> if f t then n + 1 else n) 0 trial_results in
  {
    trials = trial_results;
    scenes = Array.length scenes;
    detected = count (fun t -> t.detected);
    nan_trials = count (fun t -> t.nan_raw);
    nan_detected = count (fun t -> t.nan_detected);
    violation_trials = count (fun t -> t.violation_raw);
    violations_detected = count (fun t -> t.violation_detected);
    silent = count (fun t -> t.silent);
    benign = count (fun t -> (not t.detected) && not t.silent);
    escaped_exceptions = count (fun t -> t.escaped_exception);
    total_fallbacks =
      Array.fold_left (fun n t -> n + t.fallbacks) 0 trial_results;
    failed_workers = !failed_workers;
    reverified;
    elapsed = Linalg.Mclock.elapsed ~since:start;
  }

let percent num den =
  if den = 0 then "-" else Printf.sprintf "%.1f%%" (100.0 *. float_of_int num /. float_of_int den)

let render r =
  let buf = Buffer.create 1024 in
  let n = Array.length r.trials in
  Buffer.add_string buf
    (Printf.sprintf "fault campaign: %d trials x %d scenes (%.0f ms)\n" n
       r.scenes (1000.0 *. r.elapsed));
  Buffer.add_string buf
    (Printf.sprintf "  detected (guard tripped)    %4d  %s\n" r.detected
       (percent r.detected n));
  Buffer.add_string buf
    (Printf.sprintf "  nan/inf faults              %4d  detected %s\n"
       r.nan_trials
       (percent r.nan_detected r.nan_trials));
  Buffer.add_string buf
    (Printf.sprintf "  envelope violations         %4d  detected %s\n"
       r.violation_trials
       (percent r.violations_detected r.violation_trials));
  Buffer.add_string buf
    (Printf.sprintf "  silent corruptions          %4d  %s\n" r.silent
       (percent r.silent n));
  Buffer.add_string buf
    (Printf.sprintf "  benign                      %4d  %s\n" r.benign
       (percent r.benign n));
  Buffer.add_string buf
    (Printf.sprintf "  escaped exceptions          %4d  (must be 0)\n"
       r.escaped_exceptions);
  Buffer.add_string buf
    (Printf.sprintf "  fallback predictions        %4d\n" r.total_fallbacks);
  if r.failed_workers > 0 then
    Buffer.add_string buf
      (Printf.sprintf "  failed workers              %4d  (trials re-queued)\n"
         r.failed_workers);
  if r.reverified <> [] then begin
    Buffer.add_string buf "  MILP re-verification of faulted networks:\n";
    List.iter
      (fun rv ->
        Buffer.add_string buf
          (Printf.sprintf "    %-52s empirical %8.3f <= bound %8.3f  %s\n"
             (Model.describe rv.rv_fault) rv.rv_empirical_max rv.rv_formal_bound
             (if rv.rv_sound then "ok" else "UNSOUND")))
      r.reverified
  end;
  Buffer.contents buf

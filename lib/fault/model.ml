type stuck_mode = Stuck_zero | Stuck_saturation

let saturation_level = 100.0

type network_fault =
  | Weight_bit_flip of { layer : int; row : int; col : int; bit : int }
  | Bias_bit_flip of { layer : int; row : int; bit : int }
  | Stuck_neuron of { layer : int; neuron : int; mode : stuck_mode }
  | Weight_drift of { seed : int; sigma : float }

type input_fault =
  | Sensor_dropout of { feature : int }
  | Sensor_freeze of { feature : int }
  | Stale_hold of { feature : int; lag : int }

type t = Network_fault of network_fault | Input_fault of input_fault

let feature_name f =
  let names = Highway.Features.names in
  if f >= 0 && f < Array.length names then
    Printf.sprintf "%d (%s)" f names.(f)
  else string_of_int f

let describe = function
  | Network_fault (Weight_bit_flip { layer; row; col; bit }) ->
      Printf.sprintf "weight bit flip: layer %d, weight (%d,%d), bit %d" layer
        row col bit
  | Network_fault (Bias_bit_flip { layer; row; bit }) ->
      Printf.sprintf "bias bit flip: layer %d, neuron %d, bit %d" layer row bit
  | Network_fault (Stuck_neuron { layer; neuron; mode }) ->
      Printf.sprintf "stuck-at-%s neuron: layer %d, neuron %d"
        (match mode with Stuck_zero -> "0" | Stuck_saturation -> "saturation")
        layer neuron
  | Network_fault (Weight_drift { seed; sigma }) ->
      Printf.sprintf "weight drift: N(0, %.3f^2) on every parameter (seed %d)"
        sigma seed
  | Input_fault (Sensor_dropout { feature }) ->
      "sensor dropout: feature " ^ feature_name feature
  | Input_fault (Sensor_freeze { feature }) ->
      "sensor freeze: feature " ^ feature_name feature
  | Input_fault (Stale_hold { feature; lag }) ->
      Printf.sprintf "stale hold (%d samples): feature %s" lag
        (feature_name feature)

(* {1 Injection} *)

let flip_bit ~bit x =
  if bit < 0 || bit > 63 then invalid_arg "Fault.flip_bit: bit out of range";
  Int64.float_of_bits
    (Int64.logxor (Int64.bits_of_float x) (Int64.shift_left 1L bit))

let check_layer net layer =
  if layer < 0 || layer >= Nn.Network.num_layers net then
    invalid_arg
      (Printf.sprintf "Fault.inject: layer %d outside network with %d layers"
         layer (Nn.Network.num_layers net))

type site = { layer : int; row : int; weights : Linalg.Vec.t; bias : float }

let site fault net =
  let checked_layer layer =
    check_layer net layer;
    Nn.Network.layer net layer
  in
  match fault with
  | Weight_drift _ -> None
  | Weight_bit_flip { layer; row; col; bit } ->
      let l = checked_layer layer in
      let w = l.Nn.Layer.weights in
      if row < 0 || row >= Linalg.Mat.rows w || col < 0
         || col >= Linalg.Mat.cols w
      then invalid_arg "Fault.inject: weight coordinate out of range";
      let weights = Linalg.Mat.row w row in
      weights.(col) <- flip_bit ~bit weights.(col);
      Some { layer; row; weights; bias = l.Nn.Layer.bias.(row) }
  | Bias_bit_flip { layer; row; bit } ->
      let l = checked_layer layer in
      if row < 0 || row >= Linalg.Vec.dim l.Nn.Layer.bias then
        invalid_arg "Fault.inject: bias index out of range";
      Some
        {
          layer;
          row;
          weights = Linalg.Mat.row l.Nn.Layer.weights row;
          bias = flip_bit ~bit l.Nn.Layer.bias.(row);
        }
  | Stuck_neuron { layer; neuron; mode } ->
      let l = checked_layer layer in
      let w = l.Nn.Layer.weights in
      if neuron < 0 || neuron >= Linalg.Mat.rows w then
        invalid_arg "Fault.inject: neuron index out of range";
      (* Zero incoming weights: the pre-activation becomes exactly the
         bias, so the post-activation is act(0) or act(level) for every
         input — the classic stuck-at fault. *)
      Some
        {
          layer;
          row = neuron;
          weights = Array.make (Linalg.Mat.cols w) 0.0;
          bias =
            (match mode with
             | Stuck_zero -> 0.0
             | Stuck_saturation -> saturation_level);
        }

let inject fault net =
  let faulted = Nn.Network.copy net in
  (match fault with
   | Weight_bit_flip _ | Bias_bit_flip _ | Stuck_neuron _ ->
       Option.iter
         (fun { layer; row; weights; bias } ->
           let l = Nn.Network.layer faulted layer in
           Linalg.Mat.set_row l.Nn.Layer.weights row weights;
           l.Nn.Layer.bias.(row) <- bias)
         (site fault net)
   | Weight_drift { seed; sigma } ->
       (* Layer by layer, the weights in row-major storage order, then
          the biases: one Gaussian per parameter. *)
       let rng = Linalg.Rng.create seed in
       let drift a =
         for i = 0 to Array.length a - 1 do
           a.(i) <- a.(i) +. (sigma *. Linalg.Rng.gaussian rng)
         done
       in
       Array.iter
         (fun l ->
           drift (Linalg.Mat.data l.Nn.Layer.weights);
           drift l.Nn.Layer.bias)
         faulted.Nn.Network.layers);
  faulted

type input_channel = {
  fault : input_fault;
  mutable frozen : float option;
  stale : float Queue.t;
}

let input_channel fault = { fault; frozen = None; stale = Queue.create () }

let corrupt ch v =
  let v = Linalg.Vec.copy v in
  let in_range f = f >= 0 && f < Array.length v in
  (match ch.fault with
   | Sensor_dropout { feature } -> if in_range feature then v.(feature) <- 0.0
   | Sensor_freeze { feature } ->
       if in_range feature then begin
         (match ch.frozen with
          | None -> ch.frozen <- Some v.(feature)
          | Some _ -> ());
         match ch.frozen with
         | Some frozen -> v.(feature) <- frozen
         | None -> ()
       end
   | Stale_hold { feature; lag } ->
       if in_range feature then begin
         Queue.push v.(feature) ch.stale;
         (* The delayed value: [lag] samples ago, or the oldest value
            seen while the delay line is still filling. *)
         let delayed =
           if Queue.length ch.stale > lag then Queue.pop ch.stale
           else Queue.peek ch.stale
         in
         v.(feature) <- delayed
       end);
  v

(* {1 Seeded sampling} *)

let sample ~rng net =
  let pick_layer () = Linalg.Rng.int rng (Nn.Network.num_layers net) in
  match Linalg.Rng.int rng 8 with
  | 0 ->
      let layer = pick_layer () in
      let l = Nn.Network.layer net layer in
      Network_fault
        (Weight_bit_flip
           {
             layer;
             row = Linalg.Rng.int rng (Nn.Layer.output_dim l);
             col = Linalg.Rng.int rng (Nn.Layer.input_dim l);
             bit = Linalg.Rng.int rng 64;
           })
  | 1 ->
      let layer = pick_layer () in
      let l = Nn.Network.layer net layer in
      Network_fault
        (Bias_bit_flip
           {
             layer;
             row = Linalg.Rng.int rng (Nn.Layer.output_dim l);
             bit = Linalg.Rng.int rng 64;
           })
  | 2 | 3 ->
      let layer = pick_layer () in
      let l = Nn.Network.layer net layer in
      let mode =
        if Linalg.Rng.bool rng then Stuck_saturation else Stuck_zero
      in
      Network_fault
        (Stuck_neuron
           { layer; neuron = Linalg.Rng.int rng (Nn.Layer.output_dim l); mode })
  | 4 ->
      Network_fault
        (Weight_drift
           {
             seed = Int64.to_int (Int64.logand (Linalg.Rng.int64 rng) 0xFFFFFFL);
             sigma = Linalg.Rng.uniform rng 0.02 0.4;
           })
  | 5 ->
      Input_fault
        (Sensor_dropout { feature = Linalg.Rng.int rng (Nn.Network.input_dim net) })
  | 6 ->
      Input_fault
        (Sensor_freeze { feature = Linalg.Rng.int rng (Nn.Network.input_dim net) })
  | _ ->
      Input_fault
        (Stale_hold
           {
             feature = Linalg.Rng.int rng (Nn.Network.input_dim net);
             lag = 1 + Linalg.Rng.int rng 8;
           })

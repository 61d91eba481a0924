let components = 3

let net ~seed ~exponent =
  let base =
    Nn.Network.create ~rng:(Linalg.Rng.create seed)
      [ 84; 8; 8; Nn.Gmm.output_dim ~components ]
  in
  let factor = 10.0 ** float_of_int exponent in
  Nn.Network.make
    (Array.init (Nn.Network.num_layers base) (fun i ->
         let l = Nn.Network.layer base i in
         Nn.Layer.make
           (Linalg.Mat.scale factor l.Nn.Layer.weights)
           l.Nn.Layer.bias l.Nn.Layer.activation))

let box () = Verify.Scenario.vehicle_on_left ~slack:0.03 ()

let threshold net =
  let out = Nn.Network.forward net (Interval.Box.center (box ())) in
  0.5 *. out.(Nn.Gmm.mu_lat_index ~components 0)

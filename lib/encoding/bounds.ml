type t = {
  pre : Interval.t array array;
  post : Interval.t array array;
}

let propagate net box =
  if Array.length box <> Nn.Network.input_dim net then
    invalid_arg "Bounds.propagate: box dimension mismatch";
  let nlayers = Nn.Network.num_layers net in
  let pre = Array.make nlayers [||] and post = Array.make nlayers [||] in
  let current = ref box in
  for i = 0 to nlayers - 1 do
    let layer = Nn.Network.layer net i in
    let weights = layer.Nn.Layer.weights and bias = layer.Nn.Layer.bias in
    let z =
      Array.init (Nn.Layer.output_dim layer) (fun r ->
          Interval.affine (Linalg.Mat.row weights r) bias.(r) !current)
    in
    pre.(i) <- z;
    post.(i) <- Array.map (Nn.Activation.interval layer.Nn.Layer.activation) z;
    current := post.(i)
  done;
  { pre; post }

type stability = Stable_active | Stable_inactive | Unstable

let relu_stability (i : Interval.t) =
  if i.Interval.lo >= 0.0 then Stable_active
  else if i.Interval.hi <= 0.0 then Stable_inactive
  else Unstable

let count_unstable net t =
  let count = ref 0 in
  for i = 0 to Nn.Network.num_layers net - 2 do
    let layer = Nn.Network.layer net i in
    if layer.Nn.Layer.activation = Nn.Activation.Relu then
      Array.iter
        (fun z -> if relu_stability z = Unstable then incr count)
        t.pre.(i)
  done;
  !count

let stability_counts net t =
  let active = ref 0 and inactive = ref 0 and unstable = ref 0 in
  for i = 0 to Nn.Network.num_layers net - 2 do
    let layer = Nn.Network.layer net i in
    if layer.Nn.Layer.activation = Nn.Activation.Relu then
      Array.iter
        (fun z ->
          match relu_stability z with
          | Stable_active -> incr active
          | Stable_inactive -> incr inactive
          | Unstable -> incr unstable)
        t.pre.(i)
  done;
  (!active, !inactive, !unstable)

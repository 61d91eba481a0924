type t =
  | Sgd of { lr : float; momentum : float }
  | Adam of { lr : float; beta1 : float; beta2 : float; eps : float }

let sgd ?(momentum = 0.9) lr = Sgd { lr; momentum }

let adam ?(beta1 = 0.9) ?(beta2 = 0.999) ?(eps = 1e-8) lr =
  Adam { lr; beta1; beta2; eps }

type state = {
  m : Backprop.grads;       (* momentum / first moment *)
  v : Backprop.grads;       (* second moment (Adam only) *)
  mutable step_count : int;
}

let init _ net =
  { m = Backprop.zero_like net; v = Backprop.zero_like net; step_count = 0 }

(* Each parameter array is updated with one flat loop; the expressions
   per parameter are those of the textbook rules, and no parameter's
   update reads another's, so the visiting order changes no bit. *)
let sgd_update ~lr ~momentum (p : float array) (g : float array)
    (m : float array) =
  for k = 0 to Array.length p - 1 do
    let vel = (momentum *. m.(k)) -. (lr *. g.(k)) in
    m.(k) <- vel;
    p.(k) <- p.(k) +. vel
  done

let adam_update ~lr ~beta1 ~beta2 ~eps ~bc1 ~bc2 (p : float array)
    (grad : float array) (m : float array) (v : float array) =
  for k = 0 to Array.length p - 1 do
    let g = grad.(k) in
    let m' = (beta1 *. m.(k)) +. ((1.0 -. beta1) *. g) in
    let v' = (beta2 *. v.(k)) +. ((1.0 -. beta2) *. g *. g) in
    m.(k) <- m';
    v.(k) <- v';
    let mhat = m' /. bc1 and vhat = v' /. bc2 in
    p.(k) <- p.(k) -. (lr *. mhat /. (sqrt vhat +. eps))
  done

let step t state net (grads : Backprop.grads) =
  state.step_count <- state.step_count + 1;
  let data = Linalg.Mat.data in
  match t with
  | Sgd { lr; momentum } ->
      for i = 0 to Nn.Network.num_layers net - 1 do
        let l = Nn.Network.layer net i in
        sgd_update ~lr ~momentum (data l.Nn.Layer.weights) (data grads.dw.(i))
          (data state.m.dw.(i));
        sgd_update ~lr ~momentum l.Nn.Layer.bias grads.db.(i) state.m.db.(i)
      done
  | Adam { lr; beta1; beta2; eps } ->
      let tstep = float_of_int state.step_count in
      let bc1 = 1.0 -. (beta1 ** tstep) and bc2 = 1.0 -. (beta2 ** tstep) in
      for i = 0 to Nn.Network.num_layers net - 1 do
        let l = Nn.Network.layer net i in
        adam_update ~lr ~beta1 ~beta2 ~eps ~bc1 ~bc2 (data l.Nn.Layer.weights)
          (data grads.dw.(i)) (data state.m.dw.(i)) (data state.v.dw.(i));
        adam_update ~lr ~beta1 ~beta2 ~eps ~bc1 ~bc2 l.Nn.Layer.bias
          grads.db.(i) state.m.db.(i) state.v.db.(i)
      done

let name = function
  | Sgd { lr; momentum } -> Printf.sprintf "sgd(lr=%g, momentum=%g)" lr momentum
  | Adam { lr; _ } -> Printf.sprintf "adam(lr=%g)" lr

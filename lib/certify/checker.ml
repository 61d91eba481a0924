(* The audit's replay arithmetic. Everything here is built from
   {!Outward} primitives only: no simplex, no encoder bounds, no value
   produced by the solver is trusted — certificates supply {e candidate}
   facts (dual vectors, witness points, row indices) and this module
   decides whether the claimed conclusion follows from them over every
   real point the rounding slack allows. *)

(* ------------------------------------------------------------------ *)
(* Weak-duality replay over an LP in the slack-equality view.          *)
(* ------------------------------------------------------------------ *)

type lp_view = {
  rows : Lp.Problem.row array;
  lo : float array;   (* variable bounds with the leaf's fixes applied *)
  hi : float array;
  obj : float array;  (* dense objective (zero for Farkas replay) *)
}

(* Outward activity range of one row over the view's box. *)
let activity_range view (row : Lp.Problem.row) =
  let alo = ref 0.0 and ahi = ref 0.0 in
  Array.iter
    (fun (v, c) ->
      let l = view.lo.(v) and h = view.hi.(v) in
      if c >= 0.0 then begin
        alo := Outward.add_dn !alo (Outward.mul_dn c l);
        ahi := Outward.add_up !ahi (Outward.mul_up c h)
      end
      else begin
        alo := Outward.add_dn !alo (Outward.mul_dn c h);
        ahi := Outward.add_up !ahi (Outward.mul_up c l)
      end)
    row.Lp.Problem.terms;
  (!alo, !ahi)

(* Slack range implied by the row sense, outward. [None] means the row
   is {e certainly} empty over the box — even the loosest reading of
   the activity range cannot meet the right-hand side. *)
let slack_range view (row : Lp.Problem.row) =
  let alo, ahi = activity_range view row in
  let rhs = row.Lp.Problem.rhs in
  match row.Lp.Problem.cmp with
  | Lp.Problem.Le ->
      if alo > rhs then None
      else Some (0.0, Float.max 0.0 (Outward.sub_up rhs alo))
  | Lp.Problem.Ge ->
      if ahi < rhs then None
      else Some (Float.min 0.0 (Outward.sub_dn rhs ahi), 0.0)
  | Lp.Problem.Eq -> if rhs < alo || rhs > ahi then None else Some (0.0, 0.0)

let row_certainly_empty view i =
  i >= 0 && i < Array.length view.rows && slack_range view view.rows.(i) = None

(* Weak-duality upper bound: for ANY multiplier vector [y], over every
   point satisfying the slack equalities [A_i·x + s_i = b_i],

     c·x = y·b + (c - Aᵀy)·x - y·s
         <= y·b + Σ_j sup r_j·[l_j,u_j] + Σ_i sup (-y_i)·[slo_i,shi_i]

   with [r = c - Aᵀy]. No sign condition on [y]: the slack bounds
   carry the row senses. Every operation is outward, so the returned
   value bounds the true supremum. [Ok neg_infinity] signals that some
   row is certainly empty — the region is empty and any claim about it
   holds vacuously. *)
let dual_upper view y =
  let n = Array.length view.obj in
  let m = Array.length view.rows in
  if Array.length y <> m then Error "dual vector length mismatch"
  else if not (Array.for_all Float.is_finite y) then
    Error "non-finite dual multiplier"
  else begin
    let empty = ref false in
    let slacks =
      Array.map
        (fun row ->
          match slack_range view row with
          | None ->
              empty := true;
              (0.0, 0.0)
          | Some r -> r)
        view.rows
    in
    if !empty then Ok neg_infinity
    else begin
      let r = Array.map Outward.exact view.obj in
      let ub = ref 0.0 in
      Array.iteri
        (fun i (row : Lp.Problem.row) ->
          let yi = y.(i) in
          if yi <> 0.0 then begin
            ub := Outward.add_up !ub (Outward.mul_up yi row.Lp.Problem.rhs);
            Array.iter
              (fun (v, c) ->
                r.(v) <- Outward.sub r.(v) (Outward.scale yi (Outward.exact c)))
              row.Lp.Problem.terms
          end)
        view.rows;
      for j = 0 to n - 1 do
        ub :=
          Outward.add_up !ub
            (Outward.sup_extreme r.(j) ~lo:view.lo.(j) ~hi:view.hi.(j))
      done;
      for i = 0 to m - 1 do
        let slo, shi = slacks.(i) in
        ub :=
          Outward.add_up !ub
            (Outward.sup_extreme
               (Outward.neg (Outward.exact y.(i)))
               ~lo:slo ~hi:shi)
      done;
      Ok !ub
    end
  end

(* ------------------------------------------------------------------ *)
(* Outward forward replay of a concrete input (witness checking).      *)
(* ------------------------------------------------------------------ *)

let act_iv act v =
  match act with
  | Nn.Activation.Identity -> v
  | Nn.Activation.Relu -> Outward.relu_iv v
  | Nn.Activation.Tanh -> Outward.tanh_iv v
  | Nn.Activation.Sigmoid -> Outward.sigmoid_iv v

let forward_enclosure net x =
  if Array.length x <> Nn.Network.input_dim net then
    invalid_arg "Checker.forward_enclosure: input dimension mismatch";
  let current = ref (Array.map Outward.exact x) in
  for li = 0 to Nn.Network.num_layers net - 1 do
    let lay = Nn.Network.layer net li in
    let w = lay.Nn.Layer.weights and b = lay.Nn.Layer.bias in
    let in_dim = Nn.Layer.input_dim lay in
    let z =
      Array.init (Nn.Layer.output_dim lay) (fun r ->
          let acc = ref (Outward.exact b.(r)) in
          for j = 0 to in_dim - 1 do
            let wj = Linalg.Mat.get w r j in
            if wj <> 0.0 then
              acc := Outward.add !acc (Outward.scale wj !current.(j))
          done;
          act_iv lay.Nn.Layer.activation !acc)
    in
    current := z
  done;
  !current

(* ------------------------------------------------------------------ *)
(* Independent outward symbolic bound (presolve replay).               *)
(* ------------------------------------------------------------------ *)

(* A linear form over the inputs with {e interval} coefficients: for
   every x in the box, the quantity it bounds lies below the supremum
   of [Σ c_j·x_j + k] over all selections [c_j ∈ fc_j, k ∈ fk]. Using
   interval coefficients lets each DeepPoly step absorb its own
   rounding outward; composition stays sound because interval
   operations contain every selection. *)
type form = { fc : Outward.iv array; fk : Outward.iv }

let zero_form d = { fc = Array.make d Outward.zero; fk = Outward.zero }

let unit_form d j =
  let fc = Array.make d Outward.zero in
  fc.(j) <- Outward.exact 1.0;
  { fc; fk = Outward.zero }

let eval_hi f blo bhi =
  let acc = ref f.fk.Outward.hi in
  Array.iteri
    (fun j c ->
      acc := Outward.add_up !acc (Outward.sup_extreme c ~lo:blo.(j) ~hi:bhi.(j)))
    f.fc;
  !acc

let eval_lo f blo bhi =
  let acc = ref f.fk.Outward.lo in
  Array.iteri
    (fun j c ->
      acc := Outward.add_dn !acc (Outward.inf_extreme c ~lo:blo.(j) ~hi:bhi.(j)))
    f.fc;
  !acc

(* Scale a form by an interval [s >= 0] and add an interval offset —
   the ReLU chord substitution [post <= s·pre + bu]. *)
let chord_form s bu f =
  {
    fc = Array.map (fun c -> Outward.mul s c) f.fc;
    fk = Outward.add (Outward.mul s f.fk) bu;
  }

let symbolic_output_upper net (box : Interval.Box.box) ~output =
  let d = Nn.Network.input_dim net in
  if Array.length box <> d then
    invalid_arg "Checker.symbolic_output_upper: box dimension mismatch";
  let nlayers = Nn.Network.num_layers net in
  let out_dim = Nn.Network.output_dim net in
  if output < 0 || output >= out_dim then
    invalid_arg "Checker.symbolic_output_upper: output index out of range";
  let blo = Array.map (fun (iv : Interval.t) -> iv.Interval.lo) box in
  let bhi = Array.map (fun (iv : Interval.t) -> iv.Interval.hi) box in
  let lower = ref (Array.init d (unit_form d)) in
  let upper = ref (Array.init d (unit_form d)) in
  let post =
    ref
      (Array.map
         (fun (iv : Interval.t) ->
           { Outward.lo = iv.Interval.lo; hi = iv.Interval.hi })
         box)
  in
  for li = 0 to nlayers - 1 do
    let lay = Nn.Network.layer net li in
    let w = lay.Nn.Layer.weights and b = lay.Nn.Layer.bias in
    let in_dim = Nn.Layer.input_dim lay in
    let n = Nn.Layer.output_dim lay in
    let new_lower = Array.make n (zero_form d) in
    let new_upper = Array.make n (zero_form d) in
    let new_post = Array.make n Outward.zero in
    for r = 0 to n - 1 do
      (* Affine substitution: a positive weight pulls the predecessor's
         like-side form, a negative one the opposite side. *)
      let ufc = Array.make d Outward.zero and ufk = ref (Outward.exact b.(r)) in
      let lfc = Array.make d Outward.zero and lfk = ref (Outward.exact b.(r)) in
      let plain = ref (Outward.exact b.(r)) in
      for j = 0 to in_dim - 1 do
        let wj = Linalg.Mat.get w r j in
        if wj <> 0.0 then begin
          let su = if wj >= 0.0 then !upper.(j) else !lower.(j) in
          let sl = if wj >= 0.0 then !lower.(j) else !upper.(j) in
          for k = 0 to d - 1 do
            ufc.(k) <- Outward.add ufc.(k) (Outward.scale wj su.fc.(k));
            lfc.(k) <- Outward.add lfc.(k) (Outward.scale wj sl.fc.(k))
          done;
          ufk := Outward.add !ufk (Outward.scale wj su.fk);
          lfk := Outward.add !lfk (Outward.scale wj sl.fk);
          plain := Outward.add !plain (Outward.scale wj !post.(j))
        end
      done;
      let pre_u = { fc = ufc; fk = !ufk } in
      let pre_l = { fc = lfc; fk = !lfk } in
      (* Both the form evaluation and the plain interval are sound
         enclosures, so their intersection is sound and never empty. *)
      let pre_hi = Float.min (eval_hi pre_u blo bhi) !plain.Outward.hi in
      let pre_lo = Float.max (eval_lo pre_l blo bhi) !plain.Outward.lo in
      let pre_iv = { Outward.lo = pre_lo; hi = pre_hi } in
      (match lay.Nn.Layer.activation with
       | Nn.Activation.Identity ->
           new_lower.(r) <- pre_l;
           new_upper.(r) <- pre_u;
           new_post.(r) <- pre_iv
       | Nn.Activation.Relu ->
           if pre_lo >= 0.0 then begin
             new_lower.(r) <- pre_l;
             new_upper.(r) <- pre_u;
             new_post.(r) <- pre_iv
           end
           else if pre_hi <= 0.0 then begin
             new_lower.(r) <- zero_form d;
             new_upper.(r) <- zero_form d;
             new_post.(r) <- Outward.zero
           end
           else begin
             (* DeepPoly triangle with the slope held as an interval:
                s = U/(U-L), bu = -s·L, both outward, so the chord the
                analysis used is contained in every selection set. *)
             let denom =
               Outward.sub (Outward.exact pre_hi) (Outward.exact pre_lo)
             in
             let s = Outward.div_pos pre_hi denom in
             let bu = Outward.neg (Outward.mul s (Outward.exact pre_lo)) in
             new_upper.(r) <- chord_form s bu pre_u;
             new_lower.(r) <-
               (if pre_hi > -.pre_lo then pre_l else zero_form d);
             new_post.(r) <- Outward.relu_iv pre_iv
           end
       | Nn.Activation.Tanh | Nn.Activation.Sigmoid ->
           (* Monotone transfer as constant forms — matches the
              analysis's constant relaxation for these activations. *)
           let piv = act_iv lay.Nn.Layer.activation pre_iv in
           new_lower.(r) <- { (zero_form d) with fk = piv };
           new_upper.(r) <- { (zero_form d) with fk = piv };
           new_post.(r) <- piv)
    done;
    lower := new_lower;
    upper := new_upper;
    post := new_post
  done;
  Float.min (eval_hi !upper.(output) blo bhi) !post.(output).Outward.hi

(* ------------------------------------------------------------------ *)
(* Bound-mode naming shared by the emitter and the audit.              *)
(* ------------------------------------------------------------------ *)

let mode_string = function
  | Encoding.Encoder.Interval_bounds -> "interval"
  | Encoding.Encoder.Symbolic_bounds -> "symbolic"

let mode_of_string = function
  | "interval" -> Some Encoding.Encoder.Interval_bounds
  | "symbolic" -> Some Encoding.Encoder.Symbolic_bounds
  | _ -> None

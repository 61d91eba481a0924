(** Outward-rounded arithmetic for the independent audit checker.

    OCaml floats round to nearest, so each primitive is within one ulp
    of the exact result; stepping one representable float outward after
    every operation ([Float.succ] / [Float.pred]) yields guaranteed
    directed bounds without depending on the FPU rounding mode. All
    audit-side replay ({!Checker}) is built exclusively from these
    primitives, so a certificate is confirmed only when the claimed
    fact holds over {e every} real point the rounding slack allows. *)

val up : float -> float
(** Next float towards [+infinity] (identity on infinities/NaN). *)

val add_up : float -> float -> float
val add_dn : float -> float -> float
val sub_up : float -> float -> float
val sub_dn : float -> float -> float
val mul_up : float -> float -> float
val mul_dn : float -> float -> float

type iv = { lo : float; hi : float }
(** A closed outward interval: the true value lies in [[lo, hi]]. *)

val exact : float -> iv
val zero : iv
val is_finite : iv -> bool
val add : iv -> iv -> iv
val sub : iv -> iv -> iv
val neg : iv -> iv

val scale : float -> iv -> iv
(** Product with an exact scalar. *)

val mul : iv -> iv -> iv
(** Outward hull of the four corner products. *)

val div_pos : float -> iv -> iv
(** [div_pos u d] encloses [u / d] for exact [u >= 0] and an interval
    [d] with [d.lo > 0]. *)

val sup_extreme : iv -> lo:float -> hi:float -> float
(** Upper bound of [max (r * lo) (r * hi)] over every [r] in the
    interval — the per-variable term of the weak-duality bound U(y). *)

val inf_extreme : iv -> lo:float -> hi:float -> float
(** Lower bound of [min (r * lo) (r * hi)]. *)

val relu_iv : iv -> iv

val tanh_iv : iv -> iv
(** Monotone libm envelope widened two ulps — assumes the system [tanh]
    is faithfully rounded (within 1 ulp), which every libm in practical
    use satisfies. *)

val sigmoid_iv : iv -> iv
(** Same contract, composed from [exp] (three-ulp widening for the
    division chain), clamped to [[0, 1]]. *)

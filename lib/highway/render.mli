(** ASCII rendering for the Fig. 1 analogue: the highway scene on the
    left and the predictor's suggested action distribution (Gaussian
    mixture over lateral velocity x longitudinal acceleration) on the
    right. *)

val scene : Scene.t -> string
(** Top-down view, leftmost lane on top, ego marked [E], traffic [>],
    60 m either side of the ego in 61 columns. *)

val action_distribution : Nn.Gmm.t -> string
(** Density heatmap of the mixture; lateral velocity on the vertical
    axis (up = left, 13 rows over ±3 m/s), longitudinal acceleration on
    the horizontal (25 columns over ±4 m/s²). *)

val side_by_side : string -> string -> string
(** Join two multi-line blocks horizontally (Fig. 1 layout). *)

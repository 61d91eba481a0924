(** Deterministic pseudo-random number generation.

    All stochastic components of the library (weight initialisation,
    traffic generation, minibatch shuffling, fault sampling and weight
    drift) draw from this splitmix64 generator so that every experiment
    is reproducible from a single integer seed. Every recording, trained
    network and campaign is a function of these streams, and the test
    suite pins their first draws as golden values.

    The 64-bit state is kept unboxed, so advancing it allocates nothing:
    only a result handed back across the module boundary (an [int64] or
    a [float]) is boxed, as any such result is. How the state is stored
    must never change a stream; the golden values check that. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds yield equal streams. *)

val copy : t -> t
(** Independent copy continuing from the current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. Requires [lo <= hi]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val bool : t -> bool

val gaussian : t -> float
(** Standard normal deviate: the cosine half of Box-Muller, from two
    uniform draws (the first redrawn while it is at most 1e-300). *)

val gaussian_scaled : t -> mean:float -> stddev:float -> float

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)

(** FNV-1a 64 running hash behind every digest of the system: the
    network content hash ([Nn.Io.content_hash]) and every fingerprint
    and checksum of the certification layer. Detects bit rot,
    truncation and staleness; it is {e not} cryptographic and does not
    defend against an adversary forging certificates. *)

type t

val create : unit -> t
val byte : t -> int -> unit

val string : t -> string -> unit
(** Mixes the bytes followed by a [0x1f] separator, so adjacent fields
    cannot alias. *)

val int : t -> int -> unit

val float : t -> float -> unit
(** Mixes the IEEE-754 bits, little-endian byte order — bit-exact, so
    [-0.0], [0.0] and every NaN payload hash distinctly. *)

val hex : t -> string
(** Current digest as 16 lowercase hex characters. *)

val of_string : string -> string
(** One-shot digest of a raw byte string (no separator). *)

(** Plain-text (de)serialisation of networks.

    A simple line-oriented format ("depnn-network v1") so trained
    predictors can be saved, shipped to the verifier, and inspected with
    standard tools. Floats are printed with 17 significant digits, which
    round-trips IEEE 754 doubles exactly.

    Loading validates the network before constructing it: NaN/Inf
    parameters and dimension-mismatched matrices are rejected with a
    typed {!error} instead of building a poisoned network that would
    only fail (or worse, silently corrupt predictions) at inference
    time. *)

type error =
  | Syntax of string
      (** malformed structure: bad magic, truncated input, unparsable
          float, bad layer header *)
  | Non_finite of { layer : int; what : string }
      (** a weight or bias of [layer] is NaN or infinite *)
  | Dimension_mismatch of string
      (** row lengths, bias lengths or consecutive layer dimensions
          disagree *)

exception Invalid_network of error

val error_message : error -> string

val content_hash : Network.t -> string
(** Canonical content hash of architecture + parameters (16 lowercase
    hex chars, FNV-1a 64). Hashes layer dimensions, activation names and
    the IEEE-754 bit patterns of biases and row-major weights — never
    printed text — so the hash is independent of file format and storage
    layout. Two networks hash equal iff they are bit-identical as
    functions; [-0.0] vs [0.0] and distinct NaN payloads hash
    differently. Used as the certificate key by [Certify] and as the
    content address of the future proof cache. *)

val to_string : Network.t -> string

val of_string : string -> Network.t
(** Raises {!Invalid_network} on malformed, non-finite or
    dimension-mismatched input, and no other exception. A declared
    layer count that the remaining lines cannot hold is a [Syntax]
    error, found before anything is allocated for it. *)

val of_string_result : string -> (Network.t, error) result
(** Non-raising variant of {!of_string}. *)

val save : string -> Network.t -> unit
(** [save path net] writes the network to [path]. *)

val load : string -> Network.t
(** Raises {!Invalid_network} like {!of_string}, or [Sys_error] if the
    file cannot be read. *)

(** The line format of certificates ({!Certificate}), shard manifests
    ({!Shard}) and [depnn serve] payloads ([Serve.Protocol]): one record
    per line, words separated by single spaces, every float a [%h] hex
    literal (a bit-exact round trip). The two file formats end with a
    [checksum <fnv1a>] line over everything before it ({!seal}), so a
    one-bit mutation anywhere is rejected before any parsing.

    Readers never trust their input: a count is bounded by the lines
    left to read ({!count}, {!box}) before it sizes an allocation, so
    memory stays proportional to the input, and {!parse} turns every
    failure into [Error] — a {!fail} keeps its reason, any other
    exception becomes ["malformed <what>"]. *)

(** {2 Writing} *)

val hex : float -> string
(** The [%h] literal, read back bit-exactly by {!float}. *)

val line : Buffer.t -> ('a, unit, string, unit) format4 -> 'a
(** Append one formatted line and its newline. *)

val floats_line : Buffer.t -> string -> float array -> unit
(** [prefix x1 ... xn] on one line, read back by {!floats}. *)

val box_lines : Buffer.t -> (float * float) array -> unit
(** [box <n>], then one [lo hi] line per dimension; read back by {!box}. *)

val seal : Buffer.t -> string
(** The buffer's contents followed by their [checksum] line. *)

(** {2 Reading} *)

type reader
(** A cursor over the lines of one payload. *)

val parse :
  ?sealed:bool -> string -> (reader -> 'a) -> string -> ('a, string) result
(** [parse what read s] runs [read] over the lines of [s], where [what]
    names the artefact in messages. With [~sealed:true] the checksum
    line is verified and [read] sees only the lines before it. Never
    raises. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Reject the input with a reason; for use inside a [read] function. *)

val next : reader -> string
(** The next line; fails with ["truncated <what>"] past the end. *)

val words : reader -> string list
(** {!next}, split on single spaces. *)

val kv : reader -> string -> string
(** [kv r key] reads a [key <value>] line and returns the value, which
    may contain spaces. *)

val at_end : reader -> bool
(** Only the empty string after a final newline is left. *)

val int : string -> int
val float : string -> float

val count : reader -> string -> string -> int
(** [count r what s] is the int [s] if it is at least 0 and at most
    the number of lines [r] has left: each counted item takes a line of
    its own, so a larger count cannot be honest. Otherwise it fails
    with ["bad <what> count <n>"]. *)

val floats : reader -> string -> int -> float array
(** Read a {!floats_line} with this prefix and exactly [n] values. *)

val box : reader -> (float * float) array
(** Read {!box_lines}; the dimension goes through {!count}. *)

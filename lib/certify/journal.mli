(** Crash-safe campaign journal.

    A certification directory holds one [journal.log] plus one
    certificate file per settled component. The journal is append-only:
    each line carries its own FNV checksum, is written with [O_APPEND]
    (atomic on POSIX) and fsynced before the campaign moves on — so
    after a kill at any instant, {!load} returns exactly the entries
    that were acknowledged, and a torn final line is skipped rather
    than trusted. Certificates are written via temp file + fsync +
    atomic rename. *)

type entry = {
  component : int;
  verdict : string;  (** ["proved"], ["disproved"] or ["unknown"] *)
  cert_file : string option;
      (** certificate file name within the directory, if any *)
  net_hash : string;   (** {!Nn.Io.content_hash} the verdict is about *)
  prop_hash : string;  (** {!Certificate.property_hash} ditto *)
}

val init : string -> unit
(** Create the directory (and parents) if needed. *)

val append : dir:string -> entry -> unit
(** Checksum, append, fsync; creates [dir] if needed. *)

val load : dir:string -> entry list
(** All well-formed entries in file order; lines failing their
    checksum (torn writes, foreign edits) are silently skipped.
    Missing journal = empty list. *)

val write_cert : dir:string -> name:string -> string -> unit
(** Atomic write of a certificate blob (temp + fsync + rename) into
    [dir], created if needed; the temp name is unique per pid and
    domain, so concurrent writers never rename each other's
    half-written file. *)

val read_cert : dir:string -> name:string -> (string, string) result

val latest : entry list -> entry list
(** The last entry per component, in component order. A later line
    supersedes an earlier one for the same component whichever
    question either answers — the certificate files are named by
    component alone, so the last line is the one that wrote the file. *)

val trusted :
  dir:string ->
  net_hash:string ->
  prop_hash:string ->
  entry ->
  (Certificate.t, [ `Unsettled | `Untrusted of string ]) result
(** The certificate with which a journal entry settles its component
    for the question ([net_hash], [prop_hash]). The entry must record
    a settled verdict about that network and property, its certificate
    file must read back and parse, and the certificate itself must name
    the entry's component, network and property and carry a body of the
    verdict's kind: a witness for a disproof, search-tree or presolve
    evidence for a proof. [`Unsettled] is an entry that recorded an
    honest unknown; [`Untrusted] says why any other entry is refused.
    Nothing is replayed here: {!Audit.run} replays the certificate
    afterwards, while a resume and the proof store rely on the
    self-audit the driver ran before journaling the line. *)

(** Content-addressed proof store: the cache behind [depnn serve].

    The store maps a full verification question — identified by the
    network's {!Nn.Io.content_hash} and the {!Certificate.property_hash}
    of (threshold, component count, bound mode, input box) — to a
    settled verdict backed by the certificate directory that proved it.
    Persistence is one subdirectory per question under the store root,
    each a standard certification directory (checksummed certificates
    plus the append-only fsynced {!Journal}), so every cached verdict
    remains independently replayable with [depnn audit] and a restarted
    server recovers its whole cache from disk — torn journal tails and
    mutated certificates are skipped exactly as a certified re-run in
    the same directory would skip them, and the question is re-proved,
    never trusted.

    Two kinds of hit:

    - {b exact}: the query's property hash matches a stored entry;
    - {b subsumed}: a stored {e proved} entry for the same network,
      bound mode and component count covers a query whose input box is
      contained in the proved box and whose threshold is no tighter; or
      a stored {e disproved} witness lies inside the query box and its
      replayed output already beats the query threshold. Both rules are
      client-checkable: box containment and point membership need no
      solver.

    Unknown verdicts are never cached — their certificate directory
    stays on disk so a later miss resumes the unfinished campaign, but
    an Unknown is always re-attempted.

    All operations are safe to call from multiple domains; internal
    state is guarded by a single mutex (lookups are hash probes and a
    per-network scan, never solver work). *)

type verdict =
  | Proved
  | Disproved of { witness : float array; achieved : float }

type entry = {
  net_hash : string;
  prop_hash : string;
  property : Certificate.property;
  verdict : verdict;
  dir : string;     (** certification directory backing the verdict *)
  certified : int;  (** parsed certificates backing the entry *)
}

type hit = { entry : entry; exact : bool }

type t

val open_ : dir:string -> t
(** Open (creating if needed) a store rooted at [dir] and recover every
    recoverable entry from its subdirectories. A subdirectory whose
    journal is missing, whose hashes are inconsistent, or whose settled
    components do not add up to a Proved or Disproved verdict
    contributes nothing (but is left on disk for a later resume). *)

val root : t -> string

val entry_dir : t -> prop_hash:string -> string
(** The on-disk certification directory for a question — where a miss
    should run its certifying campaign before calling {!record}. *)

val lookup : ?exact_only:bool -> t -> net_hash:string -> Certificate.property -> hit option
(** O(1) exact probe first; unless [exact_only] (default [false]), fall
    back to the subsumption scan over entries of the same network. *)

val record : t -> net_hash:string -> Certificate.property -> entry option
(** Re-read the question's certification directory from disk and, if it
    now settles to Proved or Disproved, index it. Returns the recovered
    entry. Reading back what was actually persisted (rather than
    trusting the in-process result) guarantees a cache hit is served
    exactly as it would be after a restart. *)

val size : t -> int
(** Number of cached (settled) questions. *)

val net_entries : t -> net_hash:string -> int
(** Number of indexed entries for one network. The per-net index is
    keyed by property hash, so re-recording the same question replaces
    its entry instead of accumulating duplicates. *)

val revalidation_candidates :
  t -> net_hash:string -> Certificate.property -> entry list
(** Entries answering the {e same} question (threshold, components,
    bound mode, box — {!Certificate.property_key}) about a {e different}
    network than [net_hash]. These are never served as hits directly:
    the caller must revalidate the evidence against the current
    network — replay a disproving witness forward, or re-establish a
    proved bound with a fresh analysis of the current weights. At most
    one entry per other network is kept. *)

(** Independent audit of a certification directory.

    The audit trusts only {!Nn.Io} (to load and hash the network), the
    deterministic encoder rebuild ([tighten_rounds = 0]) and its own
    outward arithmetic ({!Outward}, {!Checker}). Everything the solver
    concluded — LP pivots, warm starts, branch & bound pruning,
    portfolio scheduling — is outside the trusted base and is replayed
    from the certificates alone. A mutated, truncated or stale
    certificate is rejected with a reason, never silently accepted. *)

type status =
  | Confirmed        (** evidence replayed cleanly under outward rounding *)
  | Rejected of string
      (** evidence missing, mutated, stale or insufficient *)
  | Unverified of string
      (** the campaign itself recorded an honest unknown — nothing to
          confirm, nothing to reject *)

type component_report = {
  component : int;
  claimed : string;  (** journal verdict: proved / disproved / unknown *)
  status : status;
  detail : string;   (** human-readable replay summary when confirmed *)
}

type report = {
  net_hash : string;
  components : component_report list;
  total : int option;
      (** expected component count, read from the first valid
          certificate ([None] when no certificate parsed) *)
  verdict : [ `Proved | `Disproved | `Unknown ];
      (** [`Proved] only when {e every} expected component has a
          confirmed proof; [`Disproved] when any confirmed witness
          exists; [`Unknown] otherwise (including any rejection) *)
  ok : bool;  (** settled verdict and no rejected component *)
}

val check_certificate : Nn.Network.t -> Certificate.t -> (string, string) result
(** Replay one certificate body against the network: witness forward
    enclosure, independent outward symbolic bound, or full branch &
    bound tree replay (per-leaf dual/Farkas/empty-row evidence plus the
    coverage check that the recorded leaves tile the input box). [Ok]
    carries a replay summary; [Error] the rejection reason. The
    emitter calls this on freshly built certificates too, so a
    certificate is never journaled unless it already replays. *)

val run : net:Nn.Network.t -> dir:string -> report
(** Audit a whole campaign directory: load the journal (last entry per
    component wins), admit each entry through {!Journal.trusted} for
    the campaign's question (the property hash of the last journal
    line), replay its certificate, and aggregate the verdict. *)

val render : report -> string
(** Plain-text per-component summary for the CLI and CI logs. *)

(** {2 Sharded (partitioned) campaigns}

    A partition-and-conquer run leaves one certification directory per
    leaf box plus a {!Shard} manifest recording the split tree. The
    shard audit first re-establishes the geometry — recomputed tiles
    must hash to the very directories the manifest names — and then
    audits every leaf directory exactly as {!run} would. *)

type shard_leaf = {
  leaf_index : int;
  leaf_hash : string;  (** the leaf's property hash / directory name *)
  leaf_verdict : [ `Proved | `Disproved | `Unknown ];
  leaf_ok : bool;
  leaf_detail : string;  (** reason when not ok (missing, rejected …) *)
}

type shard_report = {
  shard_parent : string;  (** parent property hash *)
  shard_net : string;
  shard_leaves : shard_leaf array;
  shard_verdict : [ `Proved | `Disproved | `Unknown ];
      (** [`Proved] only when {e every} tile audits to a confirmed
          proof; [`Disproved] when any tile audits to a confirmed
          witness (the tiling check guarantees the tile — hence the
          witness — lies inside the parent box); [`Unknown] otherwise *)
  shard_ok : bool;
}

val shard_manifests : dir:string -> string list
(** Names (not paths) of the [*.shard] manifests in [dir], sorted. *)

val run_shard :
  net:Nn.Network.t -> dir:string -> name:string -> (shard_report, string) result
(** Audit the shard manifest [name] under root [dir]: checksum and
    parse it, reject it outright if it speaks about a different network
    or its file name does not match its parent question, verify the
    tiling ({!Shard.check}), then audit each leaf directory. A missing
    or rejected leaf degrades the parent verdict to [`Unknown] — except
    that one confirmed disproof settles the parent regardless of the
    other leaves. *)

val render_shard : shard_report -> string

(** Shard manifests: the proof that a set of leaf certificates tiles a
    partitioned verification question.

    Input-space partition-and-conquer settles a property over a box by
    recursively bisecting the box and settling every leaf separately;
    each leaf gets its own certification directory under the shard
    root, named by the leaf's {!Certificate.property_hash}. Soundness
    of reassembling the parent verdict from leaf verdicts rests on one
    geometric fact — the leaf boxes cover the parent box — and this
    module is how that fact is audited without trusting the splitter:
    the manifest records the {e split tree} (which dimension was cut
    where), the auditor {e recomputes} the tiles from the recorded cuts
    (any interior cut yields a valid tiling, so soundness never depends
    on where the splitter chose to bisect) and checks that each
    recomputed tile hashes to the leaf directory the manifest names.
    The leaf hash binds network, threshold, components, bound mode and
    the exact tile box, so a manifest cannot smuggle in a leaf about a
    different question or a shrunken box.

    Serialisation is the {!Text} line format, as for certificates: the
    parent question's lines ({!Certificate.property_lines}), the tree
    depth first, a trailing FNV-1a checksum line. *)

type tree =
  | Split of { dim : int; cut : float; below : tree; above : tree }
      (** bisect the current box at [cut] along input dimension [dim]:
          [below] covers [\[lo, cut\]], [above] covers [\[cut, hi\]] *)
  | Tile  (** a leaf of the partition — one certification directory *)

type manifest = {
  net_hash : string;            (** {!Nn.Io.content_hash} of the network *)
  property : Certificate.property;  (** the {e parent} question *)
  tree : tree;
  leaf_hashes : string array;
      (** per {!Tile}, left to right (below before above): the leaf's
          property hash, which is also its directory name under the
          shard root *)
}

val manifest_name : prop_hash:string -> string
(** File name of the manifest for a parent question, under the shard
    root: ["<prop_hash>.shard"]. *)

val parent_hash : manifest -> string
(** {!Certificate.property_hash} of the parent question. *)

val check : manifest -> ((float * float) array array, string) result
(** Verify the tiling: every cut lies inside its dimension's range at
    that point of the tree (so the tiles provably cover the parent
    box), and every recomputed tile's property hashes to the recorded
    leaf hash. Returns the tile boxes, in leaf order. *)

val to_string : manifest -> string
(** Serialise, ending with the checksum line. *)

val of_string : string -> (manifest, string) result
(** Parse and verify the checksum; never raises. A tree with more or
    fewer nodes than its [tree] line declares, or anything after it, is
    rejected. *)

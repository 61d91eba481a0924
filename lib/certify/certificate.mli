(** Auditable proof certificates.

    A certificate records everything an independent checker needs to
    replay one component's verdict without re-running any solver:
    which network (by {!Nn.Io.content_hash}), which property (threshold,
    component count, bound mode, input box — digested into a property
    hash), and a body holding the actual evidence. Serialisation is the
    {!Text} line format: every float a hex literal (bit-exact round
    trip) and a trailing FNV-1a checksum line, so a one-bit mutation
    anywhere is detected before any replay starts. *)

type property = {
  threshold : float;   (** the bound being proven, max sense *)
  components : int;    (** GMM mixture components of the campaign *)
  bound_mode : string; (** encoder bound mode, e.g. ["symbolic"] *)
  box : (float * float) array;  (** the input box, exact bounds *)
}

type evidence =
  | Ev_bounded of float array
      (** row duals whose weak-duality bound closes the leaf at or
          below the threshold (see {!Lp.Simplex.cert}) *)
  | Ev_infeasible of float array  (** Farkas ray: leaf region empty *)
  | Ev_empty_row of int
      (** row whose slack range is empty under the leaf box *)
  | Ev_unsupported of string
      (** the solver closed this leaf without replayable evidence; an
          auditor must reject the certificate (kept in the file so the
          rejection is explainable) *)

type leaf = {
  fixes : (int * float * float) array;
      (** branching bound fixes, root-first; each entry is the variable
          and the bounds in force at the leaf (already intersected with
          every ancestor fix on the same variable) *)
  evidence : evidence;
}

type body =
  | Milp_tree of { model_hash : string; leaves : leaf array }
      (** a completed branch & bound decision query: the leaves tile
          the branching tree of the model with fingerprint
          [model_hash] ({!model_fingerprint}), and every leaf carries
          LP evidence bounding its subtree by the threshold *)
  | Presolve of { coeffs : float array; const : float; bound : float }
      (** component discharged by analysis alone; [coeffs·x + const]
          is {!Absint.Symbolic}'s upper bounding hyperplane (a
          cross-check artifact — the auditor re-derives its own
          outward bound from the network directly) *)
  | Witness of { input : float array; achieved : float }
      (** falsification: a concrete input whose output provably
          exceeds the threshold (replayed with outward forward
          propagation) *)

type t = {
  net_hash : string;   (** {!Nn.Io.content_hash} of the network *)
  property : property;
  component : int;     (** which mixture component this body settles *)
  output : int;        (** network output index the claim is about *)
  body : body;
}

val property_hash : net_hash:string -> property -> string
(** Digest of the full verification question; journal entries carry it
    so a resumed campaign never reuses conclusions proved about a
    different threshold, box, mode or network. *)

val property_key : property -> string
(** Net-independent digest of the question alone (threshold, components,
    bound mode, box). Lets the proof store find entries about the same
    question under a {e different} network, whose evidence may
    revalidate against the current weights. Uses a distinct magic
    string, so it never collides with a {!property_hash}. *)

val leaf_of_search :
  (Milp.Model.var * float * float) list -> Milp.Solver.leaf_cert -> leaf
(** One closed search leaf as {!Milp.Solver.solve}'s [on_leaf] streams
    it (fixes leaf-first, the LP evidence that closed it), in
    certificate form. *)

val model_fingerprint : Milp.Model.t -> string
(** Digest of a MILP model's feasible set: rows (terms, sense, rhs),
    variable bounds and integer markings. The objective and all names
    are excluded — the audit reconstructs the objective from the
    certificate's output index. *)

val to_string : t -> string
(** Serialise, ending with the checksum line. *)

val of_string : string -> (t, string) result
(** Parse and verify the checksum. Any mutation, truncation or format
    drift yields [Error] with a human-readable reason; it never
    raises. *)

val property_lines : Buffer.t -> property -> unit
(** The property's lines as {!to_string} writes them: threshold,
    components, bound mode and box. {!Shard} manifests reuse them. *)

val read_property : Text.reader -> property
(** Read back {!property_lines} (at most a million box dimensions). *)

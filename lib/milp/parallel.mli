(** Domain plumbing on OCaml 5: core-count and portfolio-split parsing
    for the branch & bound pool ({!Solver.solve} takes [?cores] and
    [?portfolio]), and a generic work-stealing {!map} for independent
    work items such as OBBT probes or per-component queries. *)

val available_cores : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val cores_of_string : string -> int option
(** Parse a core count: a positive integer, else [None]. *)

val cores_of_env : unit -> int
(** Parse the [DEPNN_CORES] environment variable. Unset defaults to 1;
    a malformed value is rejected with a one-line [stderr] warning
    naming it (it used to be silently coerced to 1, hiding typos like
    [DEPNN_CORES=four] from CI logs) and also falls back to 1. *)

val portfolio_of_string : string -> (int * int) option
(** Parse a ["D:P"] portfolio split (divers [:] provers): two
    non-negative integers with [D + P >= 1], else [None]. *)

val portfolio_of_env : unit -> (int * int) option
(** Parse the [DEPNN_PORTFOLIO] environment variable as ["D:P"]. Unset
    means no explicit split ({!Solver.solve} then derives one from
    [cores]); a malformed value warns on [stderr] and is treated as
    unset. *)

val map : ?cores:int -> init:(unit -> 'state) -> ('state -> 'a -> 'b) -> 'a array -> 'b array
(** [map ~cores ~init f items]: apply [f state item] to every item, the
    items being claimed work-stealing style over a shared atomic index
    by [cores] domains. [init] runs once per domain and builds
    domain-private scratch state (e.g. an LP copy for OBBT probes).
    Results are returned in input order. Every spawned domain is joined
    before the call returns — even when [init] or [f] raises on any
    domain, including the coordinating one — and the first exception
    recorded is then re-raised in the caller. *)

(** Domain plumbing on OCaml 5: a generic work-stealing {!map} for
    independent work items such as OBBT probes, per-component queries or
    partition leaves. The branch & bound pool is {!Solver.solve}'s own
    ([?cores]). The library reads no environment: callers pass a core
    count. *)

val map : ?cores:int -> init:(unit -> 'state) -> ('state -> 'a -> 'b) -> 'a array -> 'b array
(** [map ~cores ~init f items]: apply [f state item] to every item, the
    items being claimed work-stealing style over a shared atomic index
    by [cores] domains. [init] runs once per domain and builds
    domain-private scratch state (e.g. an LP copy for OBBT probes).
    Results are returned in input order. Every spawned domain is joined
    before the call returns — even when [init] or [f] raises on any
    domain, including the coordinating one — and the first exception
    recorded is then re-raised in the caller. *)

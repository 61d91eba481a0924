(** The [depnn serve] daemon.

    One blocking accept loop (the calling domain) feeds a bounded work
    queue drained by a pool of worker domains. A worker keeps no state
    of its own: it answers each miss with one certified
    {!Verify.Driver.prove_lateral_velocity_le} call on one core, so
    domains are never oversubscribed. In front of the solvers sits a
    {!Certify.Store}: exact-key repeats and subsumed boxes are answered
    from cached certificates in the accept loop itself — a cache hit
    never touches the queue, let alone a solver.

    Connection lifecycle is one request per connection: read one frame,
    answer one frame, close — orderly even when the answer is an
    [error] line. Cheap operations ([status], [predict], cache hits,
    refusals) are answered inline by the accept loop; cache misses are
    enqueued (or refused with [error server saturated] when the queue
    is full, so a client is never left hanging).

    Robustness:
    - a worker that dies is logged, counted in [failed-workers] and
      respawned by the accept loop (the {!Fault.Campaign} pattern); its
      in-flight client receives a clean protocol error first;
    - SIGINT/SIGTERM (when [handle_signals]) or a [shutdown] request
      drain the queue: in-flight and queued queries finish — each under
      its own time limit, so the worst case is an honest [unknown] —
      then workers are joined, the socket is closed and
      unlinked, and {!run} returns;
    - every solved query is certified into the store's directory for
      that property hash, whose journal the driver always reads, so a
      server killed mid-solve loses at most the component in flight and
      the next miss on that key resumes from the journal instead of
      starting over. *)

type config = {
  address : Protocol.address;
  workers : int;            (** worker domains (≥ 1) *)
  cache_dir : string;       (** proof-store root, created if missing *)
  queue_capacity : int;     (** queued misses before [server saturated] *)
  max_time_limit : float;   (** cap on any query's requested budget *)
  stats_interval : float;   (** seconds between stats log lines; 0 = off *)
  handle_signals : bool;    (** install SIGINT/SIGTERM handlers (CLI);
                                tests leave the process signals alone *)
  split : Verify.Partition.policy option;
      (** partition-and-conquer policy for cache-miss solves: each
          query's box is split ({!Verify.Partition}) and its leaves are
          looked up, revalidated or solved individually — every settled
          leaf landing in the store as its own entry, so later queries
          (and re-verification after swapping the served network)
          answer leaves from cache. A split answer's [cert_dir] is the
          store root, which holds the question's shard manifest next to
          its leaf directories. [None] (default) solves each query
          monolithically. *)
  log : string -> unit;
}

val default_config :
  address:Protocol.address -> cache_dir:string -> unit -> config
(** 2 workers, queue capacity 64, 60 s cap, stats every 30 s, signals
    off, no split, log to [stderr]. *)

val run :
  ?worker_hook:(Protocol.query -> unit) ->
  config ->
  Nn.Network.t ->
  unit
(** Serve until shutdown. Blocks the calling domain (spawn a domain
    around it to run in-process, as the tests and bench do).
    [worker_hook] runs in the worker domain before each solve and
    exists so tests can inject a worker crash and watch the respawn;
    an exception it raises kills that worker {e after} the client got
    its protocol error. *)

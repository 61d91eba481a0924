type config = {
  address : Protocol.address;
  workers : int;
  cache_dir : string;
  queue_capacity : int;
  max_time_limit : float;
  stats_interval : float;
  handle_signals : bool;
  split : Verify.Partition.policy option;
  log : string -> unit;
}

let default_config ~address ~cache_dir () =
  {
    address;
    workers = 2;
    cache_dir;
    queue_capacity = 64;
    max_time_limit = 60.0;
    stats_interval = 30.0;
    handle_signals = false;
    split = None;
    log = (fun s -> Printf.eprintf "depnn-serve: %s\n%!" s);
  }

(* {1 Bounded work queue}

   Mutex + condition, closeable. [try_push] never blocks (a full queue
   is the client's [server saturated] refusal); [pop] blocks until an
   item arrives or the queue is closed {e and} drained — so closing at
   shutdown lets the workers finish everything already accepted. *)
module Bqueue = struct
  type 'a t = {
    buf : 'a Queue.t;
    cap : int;
    m : Mutex.t;
    nonempty : Condition.t;
    mutable closed : bool;
  }

  let create cap =
    {
      buf = Queue.create ();
      cap;
      m = Mutex.create ();
      nonempty = Condition.create ();
      closed = false;
    }

  let locked q f =
    Mutex.lock q.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock q.m) f

  let try_push q x =
    locked q (fun () ->
        if q.closed || Queue.length q.buf >= q.cap then false
        else begin
          Queue.push x q.buf;
          Condition.signal q.nonempty;
          true
        end)

  let pop q =
    locked q (fun () ->
        while Queue.is_empty q.buf && not q.closed do
          Condition.wait q.nonempty q.m
        done;
        if Queue.is_empty q.buf then None else Some (Queue.pop q.buf))

  let close q =
    locked q (fun () ->
        q.closed <- true;
        Condition.broadcast q.nonempty)

  let depth q = locked q (fun () -> Queue.length q.buf)
end

(* {1 In-flight solve registry}

   Two workers that pop identical cache-miss queries must never solve
   concurrently into the same certificate directory: their journal
   appends and certificate writes would interleave. A worker holds its
   query's property hash here for the duration of the solve; a worker
   that draws a duplicate blocks until the first settles, then serves
   the freshly recorded entry from the store. *)
module Inflight = struct
  type t = {
    m : Mutex.t;
    settled : Condition.t;
    keys : (string, unit) Hashtbl.t;
  }

  let create () =
    {
      m = Mutex.create ();
      settled = Condition.create ();
      keys = Hashtbl.create 8;
    }

  let acquire t key =
    Mutex.lock t.m;
    while Hashtbl.mem t.keys key do
      Condition.wait t.settled t.m
    done;
    Hashtbl.add t.keys key ();
    Mutex.unlock t.m

  let release t key =
    Mutex.lock t.m;
    Hashtbl.remove t.keys key;
    Condition.broadcast t.settled;
    Mutex.unlock t.m
end

type job = { fd : Unix.file_descr; query : Protocol.query }

type t = {
  config : config;
  net : Nn.Network.t;
  net_hash : string;
  store : Certify.Store.t;
  queue : job Bqueue.t;
  inflight : Inflight.t;
  stop : bool Atomic.t;
  started : float;
  (* stats *)
  queries : int Atomic.t;
  served_exact : int Atomic.t;
  served_subsumed : int Atomic.t;
  solved : int Atomic.t;
  rejected : int Atomic.t;
  failed_workers : int Atomic.t;
  (* worker supervision: flags written by workers, domains owned by the
     accept loop *)
  worker_dead : bool Atomic.t array;
}

let logf t fmt = Printf.ksprintf t.config.log fmt

(* {1 Per-connection IO}

   Best-effort replies: a peer that vanished mid-answer must never take
   the server with it (SIGPIPE is mapped to EPIPE by the sigpipe handler
   installed in [run], and any transport error is swallowed here). *)
let reply fd response =
  match Protocol.write_frame fd (Protocol.render_response response) with
  | () -> ()
  | exception (Unix.Unix_error _ | Sys_error _) -> ()

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let refuse t fd reason =
  Atomic.incr t.rejected;
  reply fd (Protocol.Refused reason)

(* {1 Query validation}

   Everything a malformed or stale client could get wrong is rejected
   here with a protocol error, before any queueing: the workers only
   ever see well-formed questions about the loaded network. *)
let validate t (q : Protocol.query) =
  let p = q.property in
  let input_dim = Nn.Network.input_dim t.net in
  if
    match q.net_hash with
    | Some h -> h <> t.net_hash
    | None -> false
  then
    Error
      (Printf.sprintf "network hash mismatch: server runs %s" t.net_hash)
  else if not (Float.is_finite p.Certify.Certificate.threshold) then
    Error "non-finite threshold"
  else if
    (* A NaN would slip through [Float.min] with the server's cap and
       reach the solver as a deadline no comparison ever trips. *)
    match q.Protocol.time_limit with
    | Some t -> not (Float.is_finite t) || t < 0.0
    | None -> false
  then Error "time limit must be finite and >= 0"
  else if p.Certify.Certificate.components < 1 then
    Error "components must be >= 1"
  else if
    Nn.Gmm.output_dim ~components:p.Certify.Certificate.components
    > Nn.Network.output_dim t.net
  then Error "components exceed the network's output head"
  else if Array.length p.Certify.Certificate.box <> input_dim then
    Error
      (Printf.sprintf "box has %d dims, network expects %d"
         (Array.length p.Certify.Certificate.box)
         input_dim)
  else if
    not
      (Array.for_all
         (fun (lo, hi) ->
           Float.is_finite lo && Float.is_finite hi && lo <= hi)
         p.Certify.Certificate.box)
  then Error "box bounds must be finite with lo <= hi"
  else
    match Certify.Checker.mode_of_string p.Certify.Certificate.bound_mode with
    | None ->
        Error
          (Printf.sprintf "unknown bound mode %S"
             p.Certify.Certificate.bound_mode)
    | Some mode -> Ok mode

let box_of (p : Certify.Certificate.property) =
  Array.map (fun (lo, hi) -> Interval.make lo hi) p.Certify.Certificate.box

let answer_of_entry ~cache (e : Certify.Store.entry) =
  let verdict =
    match e.Certify.Store.verdict with
    | Certify.Store.Proved -> Protocol.V_proved
    | Certify.Store.Disproved { witness; achieved } ->
        Protocol.V_disproved { witness; achieved }
  in
  Protocol.Answer
    {
      Protocol.verdict;
      cache;
      certified = e.Certify.Store.certified;
      prop_hash = e.Certify.Store.prop_hash;
      cert_dir = e.Certify.Store.dir;
      solve_s = 0.0;
    }

(* {1 Workers} *)

let handle_job t job =
  let q = job.query in
  let p = q.property in
  let prop_hash = Certify.Certificate.property_hash ~net_hash:t.net_hash p in
  (* Serialise duplicate misses on the exact key: a worker drawing a
     question another worker is already solving waits for it instead of
     racing into the same certificate directory. The re-probe below then
     catches both the freshly settled duplicate and the classic dogpile
     (the key was settled while this job sat in the queue). *)
  Inflight.acquire t.inflight prop_hash;
  Fun.protect
    ~finally:(fun () -> Inflight.release t.inflight prop_hash)
  @@ fun () ->
  match
    Certify.Store.lookup ~exact_only:true t.store ~net_hash:t.net_hash p
  with
  | Some { entry; _ } ->
      Atomic.incr t.served_exact;
      reply job.fd (answer_of_entry ~cache:Protocol.Cache_exact entry)
  | None ->
      let bound_mode =
        match Certify.Checker.mode_of_string p.Certify.Certificate.bound_mode with
        | Some m -> m
        | None -> assert false (* validated at accept *)
      in
      (* Under a [split] policy the leaves — not the parent question —
         are what lands in the store: each settles into its own
         hash-named directory under the store root, next to the
         question's shard manifest, so the *next* parent query
         re-answers its leaves from cache even though [record] below
         finds no parent entry. The root is then the directory that
         audits the answer, as for [depnn verify --split --certify].
         Concurrent workers touching the same leaf directory only
         duplicate work (O_APPEND journal, unique temp names), never
         corrupt it. *)
      let dir =
        match t.config.split with
        | None -> Certify.Store.entry_dir t.store ~prop_hash
        | Some _ -> Certify.Store.root t.store
      in
      let time_limit =
        Float.min t.config.max_time_limit
          (Option.value q.Protocol.time_limit
             ~default:t.config.max_time_limit)
      in
      let started = Linalg.Mclock.now () in
      let r =
        Verify.Driver.prove_lateral_velocity_le ~time_limit ~bound_mode
          ~certify_dir:dir ?split:t.config.split ~store:t.store
          ~components:p.Certify.Certificate.components
          ~threshold:p.Certify.Certificate.threshold t.net (box_of p)
      in
      let solve_s = Linalg.Mclock.now () -. started in
      Atomic.incr t.solved;
      let entry = Certify.Store.record t.store ~net_hash:t.net_hash p in
      let verdict =
        match r.Verify.Driver.proof with
        | Verify.Driver.Proved -> Protocol.V_proved
        | Verify.Driver.Disproved w ->
            Protocol.V_disproved
              {
                witness = w.Verify.Driver.input;
                achieved = w.Verify.Driver.achieved;
              }
        | Verify.Driver.Unknown { best_bound } ->
            Protocol.V_unknown { best_bound }
      in
      let certified =
        match entry with
        | Some e -> e.Certify.Store.certified
        | None -> r.Verify.Driver.certified
      in
      reply job.fd
        (Protocol.Answer
           {
             Protocol.verdict;
             cache = Protocol.Cache_miss;
             certified;
             prop_hash;
             cert_dir = dir;
             solve_s;
           })

let worker_loop t hook =
  let rec loop () =
    match Bqueue.pop t.queue with
    | None -> ()
    | Some job ->
        (match
           (try
              hook job.query;
              handle_job t job;
              `Done
            with e -> `Crashed e)
         with
         | `Done -> close_quietly job.fd
         | `Crashed e ->
             (* The client gets a clean protocol error before this
                worker dies and the accept loop respawns it. *)
             refuse t job.fd
               (Printf.sprintf "internal error: %s" (Printexc.to_string e));
             close_quietly job.fd;
             raise e);
        loop ()
  in
  loop ()

let worker_main t hook wid () =
  try worker_loop t hook
  with e ->
    Atomic.incr t.failed_workers;
    Atomic.set t.worker_dead.(wid) true;
    logf t "worker %d died: %s" wid (Printexc.to_string e)

(* {1 Accept loop} *)

let stats t =
  Protocol.Stats
    {
      Protocol.uptime_s = Linalg.Mclock.now () -. t.started;
      workers = t.config.workers;
      failed_workers = Atomic.get t.failed_workers;
      queue_depth = Bqueue.depth t.queue;
      queue_capacity = t.config.queue_capacity;
      queries = Atomic.get t.queries;
      served_exact = Atomic.get t.served_exact;
      served_subsumed = Atomic.get t.served_subsumed;
      solved = Atomic.get t.solved;
      rejected = Atomic.get t.rejected;
      store_entries = Certify.Store.size t.store;
    }

let stats_line t =
  Printf.sprintf
    "stats: %d queries, %d exact + %d subsumed from cache, %d solved, %d \
     rejected, queue %d/%d, %d entries, %d failed workers"
    (Atomic.get t.queries)
    (Atomic.get t.served_exact)
    (Atomic.get t.served_subsumed)
    (Atomic.get t.solved)
    (Atomic.get t.rejected)
    (Bqueue.depth t.queue) t.config.queue_capacity
    (Certify.Store.size t.store)
    (Atomic.get t.failed_workers)

let handle_connection t fd =
  (* Two stacked bounds on a stalled or adversarial peer: the socket
     timeouts cap each individual read/write, and the wall-clock
     deadline caps the whole request frame — so a slow-loris client
     dribbling one byte per read holds the accept loop for at most the
     deadline plus one socket timeout, then gets a protocol error. *)
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.0
   with Unix.Unix_error _ -> ());
  let deadline = Linalg.Mclock.now () +. 10.0 in
  let finished =
    match Protocol.read_frame ~deadline fd with
    | Error reason ->
        refuse t fd reason;
        true
    | Ok payload -> (
        match Protocol.parse_request payload with
        | Error reason ->
            refuse t fd reason;
            true
        | Ok Protocol.Status ->
            reply fd (stats t);
            true
        | Ok Protocol.Shutdown ->
            reply fd Protocol.Shutting_down;
            Atomic.set t.stop true;
            true
        | Ok (Protocol.Predict input) ->
            Atomic.incr t.queries;
            if Array.length input <> Nn.Network.input_dim t.net then
              refuse t fd
                (Printf.sprintf "input has %d dims, network expects %d"
                   (Array.length input)
                   (Nn.Network.input_dim t.net))
            else if not (Array.for_all Float.is_finite input) then
              refuse t fd "non-finite input"
            else
              reply fd (Protocol.Outputs (Nn.Network.forward t.net input));
            true
        | Ok (Protocol.Verify q) -> (
            Atomic.incr t.queries;
            match validate t q with
            | Error reason ->
                refuse t fd reason;
                true
            | Ok _mode -> (
                match
                  Certify.Store.lookup ~exact_only:q.Protocol.exact_only
                    t.store ~net_hash:t.net_hash q.Protocol.property
                with
                | Some { entry; exact } ->
                    let cache =
                      if exact then begin
                        Atomic.incr t.served_exact;
                        Protocol.Cache_exact
                      end
                      else begin
                        Atomic.incr t.served_subsumed;
                        Protocol.Cache_subsumed
                      end
                    in
                    reply fd (answer_of_entry ~cache entry);
                    true
                | None ->
                    if Bqueue.try_push t.queue { fd; query = q } then false
                    else begin
                      refuse t fd "server saturated (queue full)";
                      true
                    end)))
  in
  if finished then close_quietly fd

let listen_socket config =
  match config.address with
  | Protocol.Unix_socket path ->
      (* A stale socket file from a crashed predecessor would make bind
         fail; a live server would too — refuse to steal its address. *)
      if Sys.file_exists path then begin
        let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (match Unix.connect probe (Unix.ADDR_UNIX path) with
         | () ->
             Unix.close probe;
             failwith
               (Printf.sprintf "a server is already listening on %s" path)
         | exception Unix.Unix_error _ ->
             Unix.close probe;
             (try Unix.unlink path with Unix.Unix_error _ -> ()));
      end;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Protocol.Tcp (host, port) ->
      let addr =
        (* A typo'd host must fail loudly, never silently bind
           loopback and serve nobody the caller meant to reach. *)
        match (Unix.gethostbyname host).Unix.h_addr_list.(0) with
        | addr -> addr
        | exception (Not_found | Invalid_argument _) ->
            failwith (Printf.sprintf "cannot resolve host %S" host)
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 64;
      fd

let run ?(worker_hook = fun _ -> ()) config net =
  if config.workers < 1 then invalid_arg "Server.run: workers must be >= 1";
  (* A peer closing mid-reply must surface as EPIPE, not kill us. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let t =
    {
      config;
      net;
      net_hash = Nn.Io.content_hash net;
      store = Certify.Store.open_ ~dir:config.cache_dir;
      queue = Bqueue.create config.queue_capacity;
      inflight = Inflight.create ();
      stop = Atomic.make false;
      started = Linalg.Mclock.now ();
      queries = Atomic.make 0;
      served_exact = Atomic.make 0;
      served_subsumed = Atomic.make 0;
      solved = Atomic.make 0;
      rejected = Atomic.make 0;
      failed_workers = Atomic.make 0;
      worker_dead = Array.init config.workers (fun _ -> Atomic.make false);
    }
  in
  if config.handle_signals then begin
    let request_stop _ = Atomic.set t.stop true in
    (try
       Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
       Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop)
     with Invalid_argument _ | Sys_error _ -> ())
  end;
  let lfd = listen_socket config in
  let domains =
    Array.init config.workers (fun wid ->
        Domain.spawn (worker_main t worker_hook wid))
  in
  logf t "listening on %s (%d workers, cache %s: %d entries)"
    (Protocol.address_to_string config.address)
    config.workers config.cache_dir
    (Certify.Store.size t.store);
  let last_stats = ref (Linalg.Mclock.now ()) in
  let tick () =
    (* Respawn dead workers; join the finished domain first so every
       spawned domain is joined exactly once. *)
    Array.iteri
      (fun wid dead ->
        if Atomic.get dead && not (Atomic.get t.stop) then begin
          Domain.join domains.(wid);
          Atomic.set dead false;
          domains.(wid) <- Domain.spawn (worker_main t worker_hook wid);
          logf t "worker %d respawned" wid
        end)
      t.worker_dead;
    if
      config.stats_interval > 0.0
      && Linalg.Mclock.now () -. !last_stats >= config.stats_interval
    then begin
      last_stats := Linalg.Mclock.now ();
      t.config.log (stats_line t)
    end
  in
  (while not (Atomic.get t.stop) do
     match Unix.select [ lfd ] [] [] 0.2 with
     | [], _, _ -> tick ()
     | _ -> (
         (match Unix.accept lfd with
          | fd, _ -> handle_connection t fd
          | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _)
            -> ());
         tick ())
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
   done);
  (* Graceful drain: stop accepting, let the pool finish everything
     already queued (each query under its own budget), then join.
     Anything still queued after the join means every worker died
     mid-drain — those clients still get a clean error. *)
  let pending = Bqueue.depth t.queue in
  if pending > 0 then logf t "draining %d queued queries" pending;
  Bqueue.close t.queue;
  Array.iter Domain.join domains;
  let rec flush () =
    match Bqueue.pop t.queue with
    | None -> ()
    | Some job ->
        refuse t job.fd "server shutting down";
        close_quietly job.fd;
        flush ()
  in
  flush ();
  close_quietly lfd;
  (match config.address with
   | Protocol.Unix_socket path -> (
       try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
   | Protocol.Tcp _ -> ());
  t.config.log (stats_line t);
  logf t "shutdown complete"

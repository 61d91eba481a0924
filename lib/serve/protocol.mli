(** Wire protocol of [depnn serve]: length-prefixed frames around a
    line-oriented request/response grammar.

    {2 Framing}

    A frame is one header line followed by the payload bytes:

    {v depnn1 <payload-bytes> <fnv1a-checksum>\n<payload> v}

    The length is decimal, bounded by {!max_frame}; the checksum is the
    same FNV-1a construction every other artifact in the certification
    layer uses ({!Linalg.Chash}), so a truncated or corrupted frame is
    rejected before any parsing starts. Reads never trust the peer:
    oversized headers, lengths outside [1, max_frame], short payloads
    and checksum mismatches all yield [Error], never an exception or an
    unbounded allocation.

    {2 Grammar}

    The payload is the {!Certify.Text} line format without its checksum
    line (the frame header carries the checksum): floats printed as hex
    literals ([%h], bit-exact round trip — two processes computing the
    same scenario box serialise the same bytes and therefore the same
    cache key), every count bounded before it sizes an array. First line
    is the operation:

    {v
    verify | certify          certify = exact cache key only, no
    net <hash|->                subsumption (the returned certificates
    threshold <float>           then speak about precisely this box)
    components <int>
    bound-mode <mode>
    time-limit <float|->
    box <n>
    <lo> <hi>                 n lines

    predict
    input <n>
    <x>                       n lines

    status
    shutdown
    v}

    Responses mirror requests ([ok <op>] first line, [error <reason>]
    for refusals); see {!response}. *)

val max_frame : int
(** Maximum payload bytes accepted in one frame (1 MiB). *)

val write_frame : Unix.file_descr -> string -> unit
(** Raises [Invalid_argument] if the payload exceeds {!max_frame};
    [Unix.Unix_error] on transport failure. *)

val read_frame : ?deadline:float -> Unix.file_descr -> (string, string) result
(** Never raises: transport errors, timeouts and malformed frames are
    all [Error reason]. [deadline] is an absolute {!Linalg.Mclock}
    instant bounding the {e whole} frame: it is checked before every
    read, so together with a socket receive timeout (which bounds each
    individual read) a slow-loris peer dribbling bytes cannot hold the
    reader past [deadline] plus one socket timeout. *)

(** {2 Requests} *)

type query = {
  property : Certify.Certificate.property;
  net_hash : string option;
      (** the client's expected network content hash; the server
          refuses a mismatch so a stale client never gets a verdict
          about a different model *)
  time_limit : float option;  (** clamped by the server's own cap *)
  exact_only : bool;          (** [certify] op: no subsumption *)
}

type request =
  | Verify of query
  | Predict of float array
  | Status
  | Shutdown

val render_request : request -> string

val parse_request : string -> (request, string) result
(** Never raises: a malformed payload is [Error reason]. *)

(** {2 Responses} *)

type cache = Cache_exact | Cache_subsumed | Cache_miss

type verdict =
  | V_proved
  | V_disproved of { witness : float array; achieved : float }
  | V_unknown of { best_bound : float }

type answer = {
  verdict : verdict;
  cache : cache;
  certified : int;   (** certificates backing the verdict on disk *)
  prop_hash : string;
      (** property hash of the {e backing} entry (equals the query's
          hash for exact hits and misses; the subsuming entry's hash
          for subsumed hits) *)
  cert_dir : string;
      (** auditable with [depnn audit NETWORK dir]: the question's own
          certification directory, or under [depnn serve --split] the
          store root holding its shard manifest and leaf directories *)
  solve_s : float;   (** server-side solve seconds; ~0 for cache hits *)
}

type stats = {
  uptime_s : float;
  workers : int;
  failed_workers : int;
  queue_depth : int;
  queue_capacity : int;
  queries : int;
  served_exact : int;
  served_subsumed : int;
  solved : int;
  rejected : int;
  store_entries : int;
}

type response =
  | Answer of answer
  | Outputs of float array
  | Stats of stats
  | Shutting_down
  | Refused of string

val render_response : response -> string

val parse_response : string -> (response, string) result
(** Never raises, like {!parse_request}. *)

val cache_string : cache -> string
(** ["exact" | "subsumed" | "miss"] — the tokens scripts grep for. *)

(** {2 Addresses} *)

type address =
  | Unix_socket of string
  | Tcp of string * int

val address_of_string : string -> (address, string) result
(** ["unix:<path>"], ["tcp:<host>:<port>"], or a bare path (unix). *)

val address_to_string : address -> string

let max_frame = 1 lsl 20
let magic = "depnn1"
let max_header = 80

(* {1 Transport} *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write fd b !written (n - !written)
  done

let write_frame fd payload =
  if String.length payload > max_frame then
    invalid_arg "Protocol.write_frame: payload exceeds max_frame";
  let header =
    Printf.sprintf "%s %d %s\n" magic (String.length payload)
      (Linalg.Chash.of_string payload)
  in
  (* One write: the header is tiny, so header+payload usually lands in
     a single segment and a reader never observes a headerless tail. *)
  write_all fd (header ^ payload)

(* A socket receive timeout bounds each [Unix.read], not the frame: a
   slow-loris peer dribbling one byte per read would hold the reader
   forever. [deadline] (absolute {!Linalg.Mclock} time) is checked
   before every read, so a whole frame is bounded by the deadline plus
   at most one socket timeout. *)
let expired = function
  | None -> false
  | Some d -> Linalg.Mclock.now () > d

(* Byte-at-a-time header read: headers are ~40 bytes once per query,
   and it keeps the reader allocation-bounded with no look-ahead into
   the payload. *)
let read_header ?deadline fd =
  let buf = Buffer.create max_header in
  let one = Bytes.create 1 in
  let rec go () =
    if Buffer.length buf > max_header then Error "oversized frame header"
    else if expired deadline then Error "connection deadline exceeded"
    else
      match Unix.read fd one 0 1 with
      | 0 -> Error "connection closed before frame header"
      | _ ->
          let c = Bytes.get one 0 in
          if c = '\n' then Ok (Buffer.contents buf)
          else begin
            Buffer.add_char buf c;
            go ()
          end
  in
  go ()

let read_exact ?deadline fd n =
  let b = Bytes.create n in
  let got = ref 0 in
  let err = ref None in
  while !err = None && !got < n do
    if expired deadline then err := Some "connection deadline exceeded"
    else
      match Unix.read fd b !got (n - !got) with
      | 0 -> err := Some "connection closed mid-payload"
      | k -> got := !got + k
  done;
  match !err with
  | Some reason -> Error reason
  | None -> Ok (Bytes.to_string b)

let read_frame ?deadline fd =
  match
    match read_header ?deadline fd with
    | Error _ as e -> e
    | Ok header -> (
        match String.split_on_char ' ' header with
        | [ m; len; sum ] when m = magic -> (
            match int_of_string_opt len with
            | Some n when n >= 1 && n <= max_frame -> (
                match read_exact ?deadline fd n with
                | Error _ as e -> e
                | Ok payload ->
                    if Linalg.Chash.of_string payload <> sum then
                      Error "frame checksum mismatch"
                    else Ok payload)
            | Some _ | None -> Error "bad frame length")
        | _ -> Error "bad frame magic")
  with
  | r -> r
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "transport error: %s" (Unix.error_message e))

(* {1 Grammar} *)

type query = {
  property : Certify.Certificate.property;
  net_hash : string option;
  time_limit : float option;
  exact_only : bool;
}

type request =
  | Verify of query
  | Predict of float array
  | Status
  | Shutdown

type cache = Cache_exact | Cache_subsumed | Cache_miss

type verdict =
  | V_proved
  | V_disproved of { witness : float array; achieved : float }
  | V_unknown of { best_bound : float }

type answer = {
  verdict : verdict;
  cache : cache;
  certified : int;
  prop_hash : string;
  cert_dir : string;
  solve_s : float;
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

let cache_string = function
  | Cache_exact -> "exact"
  | Cache_subsumed -> "subsumed"
  | Cache_miss -> "miss"

module Text = Certify.Text

(* A [<key> <n>] line, then one float per line. *)
let column_lines b key xs =
  Text.line b "%s %d" key (Array.length xs);
  Array.iter (fun x -> Text.line b "%s" (Text.hex x)) xs

let column r key =
  let n = Text.count r key (Text.kv r key) in
  Array.init n (fun _ -> Text.float (Text.next r))

(* {2 Rendering} *)

let render_request request =
  let b = Buffer.create 1024 in
  let line fmt = Text.line b fmt in
  (match request with
   | Verify q ->
       let p = q.property in
       line "%s" (if q.exact_only then "certify" else "verify");
       line "net %s" (Option.value q.net_hash ~default:"-");
       line "threshold %s" (Text.hex p.Certify.Certificate.threshold);
       line "components %d" p.Certify.Certificate.components;
       line "bound-mode %s" p.Certify.Certificate.bound_mode;
       line "time-limit %s"
         (Option.fold ~none:"-" ~some:Text.hex q.time_limit);
       Text.box_lines b p.Certify.Certificate.box
   | Predict input ->
       line "predict";
       column_lines b "input" input
   | Status -> line "status"
   | Shutdown -> line "shutdown");
  Buffer.contents b

let render_response response =
  let b = Buffer.create 1024 in
  let line fmt = Text.line b fmt in
  (match response with
   | Answer a ->
       line "ok verify";
       (match a.verdict with
        | V_proved -> line "verdict proved"
        | V_disproved { witness; achieved } ->
            line "verdict disproved %s" (Text.hex achieved);
            column_lines b "witness" witness
        | V_unknown { best_bound } ->
            line "verdict unknown %s" (Text.hex best_bound));
       line "cache %s" (cache_string a.cache);
       line "certified %d" a.certified;
       line "prop %s" a.prop_hash;
       line "solve %s" (Text.hex a.solve_s);
       line "dir %s" a.cert_dir
   | Outputs out ->
       line "ok predict";
       column_lines b "output" out
   | Stats s ->
       line "ok status";
       line "uptime %s" (Text.hex s.uptime_s);
       line "workers %d" s.workers;
       line "failed-workers %d" s.failed_workers;
       line "queue-depth %d" s.queue_depth;
       line "queue-capacity %d" s.queue_capacity;
       line "queries %d" s.queries;
       line "served-exact %d" s.served_exact;
       line "served-subsumed %d" s.served_subsumed;
       line "solved %d" s.solved;
       line "rejected %d" s.rejected;
       line "entries %d" s.store_entries
   | Shutting_down -> line "ok shutdown"
   | Refused reason -> line "error %s" reason);
  Buffer.contents b

(* {2 Parsing}

   {!Certify.Text} readers: every failure is an [Error], never an
   exception, and every count is bounded by the lines left before it
   sizes an array. *)

let read_query r ~exact_only =
  let net_hash = match Text.kv r "net" with "-" -> None | h -> Some h in
  let threshold = Text.float (Text.kv r "threshold") in
  let components = Text.int (Text.kv r "components") in
  let bound_mode = Text.kv r "bound-mode" in
  let time_limit =
    match Text.kv r "time-limit" with
    | "-" -> None
    | s -> Some (Text.float s)
  in
  let box = Text.box r in
  let property =
    { Certify.Certificate.threshold; components; bound_mode; box }
  in
  Verify { property; net_hash; time_limit; exact_only }

let read_request r =
  match Text.next r with
  | "verify" -> read_query r ~exact_only:false
  | "certify" -> read_query r ~exact_only:true
  | "predict" -> Predict (column r "input")
  | "status" -> Status
  | "shutdown" -> Shutdown
  | op -> Text.fail "unknown operation %S" op

let parse_request payload = Text.parse "payload" read_request payload

let read_answer r =
  let verdict =
    match Text.words r with
    | [ "verdict"; "proved" ] -> V_proved
    | [ "verdict"; "disproved"; achieved ] ->
        let achieved = Text.float achieved in
        V_disproved { witness = column r "witness"; achieved }
    | [ "verdict"; "unknown"; bound ] ->
        V_unknown { best_bound = Text.float bound }
    | _ -> Text.fail "bad verdict line"
  in
  let cache =
    match Text.kv r "cache" with
    | "exact" -> Cache_exact
    | "subsumed" -> Cache_subsumed
    | "miss" -> Cache_miss
    | s -> Text.fail "bad cache status %S" s
  in
  let certified = Text.int (Text.kv r "certified") in
  let prop_hash = Text.kv r "prop" in
  let solve_s = Text.float (Text.kv r "solve") in
  let cert_dir = Text.kv r "dir" in
  Answer { verdict; cache; certified; prop_hash; cert_dir; solve_s }

let read_stats r =
  let i key = Text.int (Text.kv r key) in
  let uptime_s = Text.float (Text.kv r "uptime") in
  let workers = i "workers" in
  let failed_workers = i "failed-workers" in
  let queue_depth = i "queue-depth" in
  let queue_capacity = i "queue-capacity" in
  let queries = i "queries" in
  let served_exact = i "served-exact" in
  let served_subsumed = i "served-subsumed" in
  let solved = i "solved" in
  let rejected = i "rejected" in
  let store_entries = i "entries" in
  Stats
    { uptime_s; workers; failed_workers; queue_depth; queue_capacity;
      queries; served_exact; served_subsumed; solved; rejected;
      store_entries }

let read_response r =
  match Text.words r with
  | [ "ok"; "verify" ] -> read_answer r
  | [ "ok"; "predict" ] -> Outputs (column r "output")
  | [ "ok"; "status" ] -> read_stats r
  | [ "ok"; "shutdown" ] -> Shutting_down
  | "error" :: reason -> Refused (String.concat " " reason)
  | _ -> Text.fail "bad response header"

let parse_response payload = Text.parse "payload" read_response payload

(* {1 Addresses} *)

type address = Unix_socket of string | Tcp of string * int

let address_of_string s =
  let prefixed p =
    if
      String.length s > String.length p
      && String.sub s 0 (String.length p) = p
    then Some (String.sub s (String.length p) (String.length s - String.length p))
    else None
  in
  match prefixed "unix:" with
  | Some path -> Ok (Unix_socket path)
  | None -> (
      match prefixed "tcp:" with
      | Some rest -> (
          match String.rindex_opt rest ':' with
          | None -> Error "expected tcp:HOST:PORT"
          | Some i -> (
              let host = String.sub rest 0 i in
              let port = String.sub rest (i + 1) (String.length rest - i - 1) in
              match int_of_string_opt port with
              | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
              | Some _ | None -> Error "bad tcp port"))
      | None -> if s = "" then Error "empty address" else Ok (Unix_socket s))

let address_to_string = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

type entry = {
  component : int;
  verdict : string;  (* "proved" | "disproved" | "unknown" *)
  cert_file : string option;
  net_hash : string;
  prop_hash : string;
}

let journal_file dir = Filename.concat dir "journal.log"

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let init dir = mkdir_p dir

let entry_payload e =
  Printf.sprintf "component %d verdict %s cert %s net %s prop %s" e.component
    e.verdict
    (match e.cert_file with Some f -> f | None -> "-")
    e.net_hash e.prop_hash

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write fd b !written (n - !written)
  done

(* Does the file end in a newline? False for a torn final line left by
   a crash mid-write: the next append must open a fresh line or its
   entry would be glued onto the torn tail and fail its own checksum. *)
let ends_with_newline path =
  match Unix.stat path with
  | exception Unix.Unix_error _ -> true
  | { Unix.st_size = 0; _ } -> true
  | { Unix.st_size; _ } ->
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          seek_in ic (st_size - 1);
          input_char ic = '\n')

(* One entry = one line, prefixed by its own checksum. O_APPEND makes
   the write a single atomic append on POSIX; fsync before returning
   means a later crash cannot take an acknowledged entry with it. A
   torn final line (crash mid-write) simply fails its checksum and is
   skipped by [load] — the component gets re-proved, never trusted. *)
let append ~dir e =
  init dir;
  let path = journal_file dir in
  let payload = entry_payload e in
  let line =
    Printf.sprintf "%s %s\n" (Linalg.Chash.of_string payload) payload
  in
  let line = if ends_with_newline path then line else "\n" ^ line in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd line;
      Unix.fsync fd)

let parse_line line =
  match String.index_opt line ' ' with
  | None -> None
  | Some i ->
      let sum = String.sub line 0 i in
      let payload = String.sub line (i + 1) (String.length line - i - 1) in
      if Linalg.Chash.of_string payload <> sum then None
      else
        (match String.split_on_char ' ' payload with
         | [ "component"; c; "verdict"; v; "cert"; f; "net"; n; "prop"; p ]
           -> (
             match int_of_string_opt c with
             | Some c ->
                 Some
                   {
                     component = c;
                     verdict = v;
                     cert_file = (if f = "-" then None else Some f);
                     net_hash = n;
                     prop_hash = p;
                   }
             | None -> None)
         | _ -> None)

let load ~dir =
  let path = journal_file dir in
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let entries = ref [] in
        (try
           while true do
             match parse_line (input_line ic) with
             | Some e -> entries := e :: !entries
             | None -> ()  (* torn or foreign line: skip, never trust *)
           done
         with End_of_file -> ());
        List.rev !entries)
  end

(* Certificates are written next to the journal via a temp file, fsync
   and an atomic rename: a crash leaves either the old file, no file,
   or the complete new file — never a half-written certificate that a
   resume could half-trust (its checksum would fail anyway; the rename
   makes the common case clean). The temp name carries the writer's
   pid and domain id so two concurrent writers (server workers racing
   on a directory) can never interleave into — or rename — each
   other's half-written temp file. *)
let write_cert ~dir ~name content =
  init dir;
  let tmp =
    Filename.concat dir
      (Printf.sprintf "%s.%d.%d.tmp" name (Unix.getpid ())
         (Domain.self () :> int))
  in
  let path = Filename.concat dir name in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd content;
      Unix.fsync fd);
  Sys.rename tmp path

let read_cert ~dir ~name =
  let path = Filename.concat dir name in
  if not (Sys.file_exists path) then Error "certificate file missing"
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        Ok (really_input_string ic (in_channel_length ic)))
  end

let latest entries =
  let last = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace last e.component e) entries;
  List.sort
    (fun a b -> compare a.component b.component)
    (Hashtbl.fold (fun _ e acc -> e :: acc) last [])

(* The one place a journal line becomes evidence. The certificate file
   name carries no question, so the file an old line points at may have
   been overwritten by a later question asked in the same directory:
   the line's hashes alone prove nothing, the certificate must name the
   same component, network and property itself. *)
let trusted ~dir ~net_hash ~prop_hash e =
  let untrusted m = Error (`Untrusted m) in
  if e.net_hash <> net_hash then
    untrusted "journal entry is for a different network"
  else if e.prop_hash <> prop_hash then
    untrusted "journal entry is for a different property"
  else
    match (e.verdict, e.cert_file) with
    | "unknown", _ -> Error `Unsettled
    | ("proved" | "disproved"), None ->
        untrusted "settled verdict without a certificate"
    | (("proved" | "disproved") as verdict), Some name -> (
        match Result.bind (read_cert ~dir ~name) Certificate.of_string with
        | Error m -> untrusted m
        | Ok cert -> (
            if cert.Certificate.component <> e.component then
              untrusted "certificate component mismatch"
            else if cert.Certificate.net_hash <> net_hash then
              untrusted "certificate is for a different network"
            else if
              Certificate.property_hash ~net_hash cert.Certificate.property
              <> prop_hash
            then untrusted "certificate property hash mismatch"
            else
              match (verdict, cert.Certificate.body) with
              | "disproved", Certificate.Witness _
              | "proved", (Certificate.Milp_tree _ | Certificate.Presolve _) ->
                  Ok cert
              | _ -> untrusted "certificate body contradicts verdict"))
    | other, _ -> untrusted (Printf.sprintf "unknown verdict %S" other)

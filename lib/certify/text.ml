(* --- writing ----------------------------------------------------------- *)

let hex = Printf.sprintf "%h"

let line b fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt

let floats_line b prefix xs =
  Buffer.add_string b prefix;
  Array.iter (fun x -> Buffer.add_string b (" " ^ hex x)) xs;
  Buffer.add_char b '\n'

let box_lines b box =
  line b "box %d" (Array.length box);
  Array.iter (fun (lo, hi) -> line b "%s %s" (hex lo) (hex hi)) box

let seal b =
  let payload = Buffer.contents b in
  payload ^ "checksum " ^ Linalg.Chash.of_string payload ^ "\n"

(* --- reading ----------------------------------------------------------- *)

exception Malformed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* [left] is the length of [lines]. *)
type reader = {
  what : string;
  mutable lines : string list;
  mutable left : int;
}

(* Split off and verify the last line; blanks around it and a missing
   final newline are tolerated. *)
let unseal what raw =
  let len = String.length raw in
  if len = 0 then fail "empty %s" what;
  let body_end =
    match String.rindex_from_opt raw (len - 2) '\n' with
    | Some i -> i + 1
    | None -> fail "missing checksum line"
  in
  let payload = String.sub raw 0 body_end in
  let last = String.trim (String.sub raw body_end (len - body_end)) in
  (match String.split_on_char ' ' last with
   | [ "checksum"; sum ] ->
       if Linalg.Chash.of_string payload <> sum then
         fail "checksum mismatch (%s mutated or truncated)" what
   | _ -> fail "missing checksum line");
  payload

let parse ?(sealed = false) what read s =
  match
    let payload = if sealed then unseal what s else s in
    let lines = String.split_on_char '\n' payload in
    read { what; lines; left = List.length lines }
  with
  | v -> Ok v
  | exception Malformed reason -> Error reason
  | exception _ -> Error ("malformed " ^ what)

let next r =
  match r.lines with
  | [] -> fail "truncated %s" r.what
  | l :: rest ->
      r.lines <- rest;
      r.left <- r.left - 1;
      l

let words r = String.split_on_char ' ' (next r)

let kv r key =
  match words r with
  | k :: rest when k = key -> String.concat " " rest
  | _ -> fail "expected %S line" key

let at_end r = match r.lines with [] | [ "" ] -> true | _ -> false

let int s =
  match int_of_string_opt s with Some x -> x | None -> fail "bad int %S" s

let float s =
  match float_of_string_opt s with Some x -> x | None -> fail "bad float %S" s

let count r what s =
  let n = int s in
  if n < 0 || n > r.left then fail "bad %s count %d" what n;
  n

let floats r prefix n =
  match words r with
  | p :: rest when p = prefix ->
      if List.length rest <> n then
        fail "expected %d floats on %S line" n prefix;
      Array.of_list (List.map float rest)
  | _ -> fail "expected %S line" prefix

let box r =
  let n = count r "box" (kv r "box") in
  Array.init n (fun _ ->
      match words r with
      | [ lo; hi ] -> (float lo, float hi)
      | _ -> fail "bad box line")

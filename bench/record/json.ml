(* Just enough JSON for the benchmark's own files: the result line and
   the --json report it writes, and the bounds it reads back from
   BENCHMARK.json. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Integral values print as integers; everything else keeps all 17
   significant digits, so a measured value is never rounded away. *)
let number x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num x -> number x
  | Str s -> escape s
  | Arr xs -> "[" ^ String.concat ", " (List.map to_string xs) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> escape k ^ ": " ^ to_string v) kvs)
      ^ "}"

exception Parse_error of string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec skip () =
    if !pos < n then
      match text.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip ()
      | _ -> ()
  in
  let expect c =
    skip ();
    if !pos < n && text.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub text !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail "bad literal"
  in
  let string_ () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = text.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "unterminated escape";
          let e = text.[!pos] in
          incr pos;
          (match e with
           | 'n' -> Buffer.add_char b '\n'
           | 't' -> Buffer.add_char b '\t'
           | 'r' -> Buffer.add_char b '\r'
           | 'b' -> Buffer.add_char b '\b'
           | 'f' -> Buffer.add_char b '\012'
           | 'u' ->
               if !pos + 4 > n then fail "short \\u escape";
               (match int_of_string_opt ("0x" ^ String.sub text !pos 4) with
                | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
                | Some _ -> Buffer.add_char b '?'
                | None -> fail "bad \\u escape");
               pos := !pos + 4
           | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let number_ () =
    let start = !pos in
    while
      !pos < n
      && match text.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub text start (!pos - start)) with
    | Some x -> Num x
    | None -> fail "bad number"
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match text.[!pos] with
    | '{' ->
        incr pos;
        skip ();
        if !pos < n && text.[!pos] = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec members acc =
            let k = string_ () in
            expect ':';
            let v = value () in
            skip ();
            if !pos < n && text.[!pos] = ',' then begin
              incr pos;
              members ((k, v) :: acc)
            end
            else begin
              expect '}';
              Obj (List.rev ((k, v) :: acc))
            end
          in
          members []
    | '[' ->
        incr pos;
        skip ();
        if !pos < n && text.[!pos] = ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec items acc =
            let v = value () in
            skip ();
            if !pos < n && text.[!pos] = ',' then begin
              incr pos;
              items (v :: acc)
            end
            else begin
              expect ']';
              Arr (List.rev (v :: acc))
            end
          in
          items []
    | '"' -> Str (string_ ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number_ ()
  in
  match value () with
  | v ->
      skip ();
      if !pos <> n then Error "trailing bytes" else Ok v
  | exception Parse_error e -> Error e

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let magic = "depnn-network v1"

let float_to_string x = Printf.sprintf "%.17g" x

let to_string net =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "layers %d\n" (Network.num_layers net));
  for i = 0 to Network.num_layers net - 1 do
    let l = Network.layer net i in
    let out = Layer.output_dim l and inp = Layer.input_dim l in
    Buffer.add_string buf
      (Printf.sprintf "layer %d %d %s\n" out inp
         (Activation.name l.Layer.activation));
    let add_vec v =
      Array.iteri
        (fun j x ->
          if j > 0 then Buffer.add_char buf ' ';
          Buffer.add_string buf (float_to_string x))
        v;
      Buffer.add_char buf '\n'
    in
    add_vec l.Layer.bias;
    for r = 0 to out - 1 do
      add_vec (Linalg.Mat.row l.Layer.weights r)
    done
  done;
  Buffer.contents buf

(* Canonical content hash: FNV-1a 64 ({!Linalg.Chash}) over a byte
   stream derived from the architecture and parameters only. Weights
   are hashed as IEEE-754 bit patterns (row-major), never as printed
   text, so the hash is independent of serialisation format, float
   formatting and storage layout — the same network always keys the
   same certificates. *)
let content_hash net =
  let module H = Linalg.Chash in
  let h = H.create () in
  H.string h "depnn-content v1";
  H.int h (Network.num_layers net);
  for i = 0 to Network.num_layers net - 1 do
    let l = Network.layer net i in
    let out = Layer.output_dim l and inp = Layer.input_dim l in
    H.int h out;
    H.int h inp;
    H.string h (Activation.name l.Layer.activation);
    Array.iter (H.float h) l.Layer.bias;
    for r = 0 to out - 1 do
      Array.iter (H.float h) (Linalg.Mat.row l.Layer.weights r)
    done
  done;
  H.hex h

type error =
  | Syntax of string
  | Non_finite of { layer : int; what : string }
  | Dimension_mismatch of string

exception Invalid_network of error

let error_message = function
  | Syntax what -> "syntax error: " ^ what
  | Non_finite { layer; what } ->
      Printf.sprintf "non-finite parameter: layer %d %s" layer what
  | Dimension_mismatch what -> "dimension mismatch: " ^ what

let syntax fmt = Printf.ksprintf (fun s -> raise (Invalid_network (Syntax s))) fmt

let dimension fmt =
  Printf.ksprintf (fun s -> raise (Invalid_network (Dimension_mismatch s))) fmt

(* Reject NaN/Inf at parse time: a poisoned parameter would otherwise
   surface only as corrupted predictions at inference time. *)
let parse_floats line expected ~layer what =
  let parts =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  in
  if parts = [] then syntax "missing %s (truncated input?)" what;
  if List.length parts <> expected then
    dimension "%s: expected %d floats, got %d" what expected (List.length parts);
  Array.of_list
    (List.map
       (fun s ->
         match float_of_string_opt s with
         | Some f ->
             if not (Float.is_finite f) then
               raise (Invalid_network (Non_finite { layer; what }));
             f
         | None -> syntax "bad float %s in %s" s what)
       parts)

let of_string s =
  let lines = String.split_on_char '\n' s in
  let lines = Array.of_list lines in
  let pos = ref 0 in
  let next what =
    if !pos >= Array.length lines then
      syntax "unexpected end of input, wanted %s" what;
    let l = lines.(!pos) in
    incr pos;
    l
  in
  if String.trim (next "magic") <> magic then syntax "bad magic line";
  let nlayers =
    match String.split_on_char ' ' (String.trim (next "layer count")) with
    | [ "layers"; n ] -> (
        match int_of_string_opt n with
        | Some n when n > 0 -> n
        | Some _ | None -> syntax "bad layer count")
    | _ -> syntax "expected 'layers <n>'"
  in
  (* A layer takes at least three lines (header, bias, one weight row),
     so a count the rest of the input cannot hold is rejected before it
     sizes the layer array. *)
  if nlayers > (Array.length lines - !pos) / 3 then
    syntax "%d layers declared, more than the rest of the input holds"
      nlayers;
  let layers =
    Array.init nlayers (fun i ->
        let header = String.trim (next "layer header") in
        match String.split_on_char ' ' header with
        | [ "layer"; out; inp; act ] ->
            let out, inp =
              match (int_of_string_opt out, int_of_string_opt inp) with
              | Some out, Some inp when out > 0 && inp > 0 -> (out, inp)
              | _ -> syntax "bad layer dimensions in header: %s" header
            in
            let activation =
              try Activation.of_name act
              with _ -> syntax "unknown activation %s" act
            in
            let bias =
              parse_floats (next "bias") out ~layer:i
                (Printf.sprintf "layer %d bias" i)
            in
            let rows =
              Array.init out (fun r ->
                  parse_floats (next "weights") inp ~layer:i
                    (Printf.sprintf "layer %d row %d" i r))
            in
            (try Layer.make (Linalg.Mat.of_rows rows) bias activation
             with Invalid_argument msg -> dimension "layer %d: %s" i msg)
        | _ -> syntax "bad layer header: %s" header)
  in
  (* Consecutive layer dimensions are re-checked by [Network.make]; a
     mismatch there is a typed error, not an untyped invalid_arg. *)
  try Network.make layers
  with Invalid_argument msg -> dimension "%s" msg

let of_string_result s =
  match of_string s with
  | net -> Ok net
  | exception Invalid_network e -> Error e

let save path net =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string net))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      of_string s)

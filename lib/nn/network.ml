type t = { layers : Layer.t array }

let make layers =
  if Array.length layers = 0 then invalid_arg "Network.make: no layers";
  for i = 1 to Array.length layers - 1 do
    if Layer.input_dim layers.(i) <> Layer.output_dim layers.(i - 1) then
      invalid_arg
        (Printf.sprintf
           "Network.make: layer %d expects %d inputs but layer %d produces %d"
           i (Layer.input_dim layers.(i)) (i - 1)
           (Layer.output_dim layers.(i - 1)))
  done;
  { layers }

let input_dim t = Layer.input_dim t.layers.(0)
let output_dim t = Layer.output_dim t.layers.(Array.length t.layers - 1)
let num_layers t = Array.length t.layers

let num_hidden_neurons t =
  let total = ref 0 in
  for i = 0 to Array.length t.layers - 2 do
    total := !total + Layer.output_dim t.layers.(i)
  done;
  !total

let num_params t = Array.fold_left (fun acc l -> acc + Layer.num_params l) 0 t.layers

let layer t i = t.layers.(i)

let forward t x = Array.fold_left (fun acc l -> Layer.forward l acc) x t.layers

type trace = { pre : Linalg.Vec.t array; post : Linalg.Vec.t array }

let forward_trace t x =
  let n = Array.length t.layers in
  let pre = Array.make n [||] and post = Array.make n [||] in
  let cur = ref x in
  for i = 0 to n - 1 do
    let z = Layer.pre_activation t.layers.(i) !cur in
    pre.(i) <- z;
    post.(i) <- Activation.apply_vec t.layers.(i).Layer.activation z;
    cur := post.(i)
  done;
  { pre; post }

let forward_batch t x =
  if Linalg.Mat.rows x <> input_dim t then
    invalid_arg
      (Printf.sprintf "Network.forward_batch: %d input rows, expected %d"
         (Linalg.Mat.rows x) (input_dim t));
  Array.fold_left (fun acc l -> Layer.forward_batch l acc) x t.layers

let chunk_width = 128

let forward_each t xs =
  let scalar x = match forward t x with y -> Ok y | exception e -> Error e in
  let in_dim = input_dim t in
  if Array.exists (fun x -> Array.length x <> in_dim) xs then
    Array.map scalar xs
  else begin
    let n = Array.length xs in
    let results = Array.make n (Ok [||]) in
    let off = ref 0 in
    while !off < n do
      let len = min chunk_width (n - !off) in
      let chunk = Array.sub xs !off len in
      (match forward_batch t (Linalg.Mat.of_cols ~rows:in_dim chunk) with
       | y ->
           for j = 0 to len - 1 do
             results.(!off + j) <- Ok (Linalg.Mat.col y j)
           done
       | exception _ ->
           for j = 0 to len - 1 do
             results.(!off + j) <- scalar chunk.(j)
           done);
      off := !off + len
    done;
    results
  end

type batch_trace = { pres : Linalg.Mat.t array; posts : Linalg.Mat.t array }

let forward_trace_batch t x =
  if Linalg.Mat.rows x <> input_dim t then
    invalid_arg
      (Printf.sprintf "Network.forward_trace_batch: %d input rows, expected %d"
         (Linalg.Mat.rows x) (input_dim t));
  let n = Array.length t.layers in
  let empty = Linalg.Mat.zeros 0 0 in
  let pres = Array.make n empty and posts = Array.make n empty in
  let cur = ref x in
  for i = 0 to n - 1 do
    let z = Layer.pre_activation_batch t.layers.(i) !cur in
    pres.(i) <- z;
    let a = Linalg.Mat.copy z in
    Activation.apply_mat_in_place t.layers.(i).Layer.activation a;
    posts.(i) <- a;
    cur := a
  done;
  { pres; posts }

let architecture t =
  input_dim t :: Array.to_list (Array.map Layer.output_dim t.layers)

let describe t =
  let dims = architecture t in
  let hidden = List.filteri (fun i _ -> i > 0 && i < List.length dims - 1) dims in
  (* [make] rejects empty networks, so layer 0 always exists; the old
     [0 | 1 -> Identity] match mislabelled every 1-layer network. *)
  let act = t.layers.(0).Layer.activation in
  let widths_equal =
    match hidden with
    | [] -> false
    | w :: rest -> List.for_all (( = ) w) rest
  in
  let prefix =
    if widths_equal then
      Printf.sprintf "I%dx%d" (List.length hidden) (List.nth hidden 0)
    else "custom"
  in
  Printf.sprintf "%s (%s, %s)" prefix
    (String.concat "-" (List.map string_of_int dims))
    (Activation.name act)

let copy t = { layers = Array.map Layer.copy t.layers }

let create ~rng ?(hidden_activation = Activation.Relu) dims =
  match dims with
  | [] | [ _ ] -> invalid_arg "Network.create: need at least input and output dims"
  | _ :: _ ->
      let pairs =
        let rec zip = function
          | a :: (b :: _ as rest) -> (a, b) :: zip rest
          | [ _ ] | [] -> []
        in
        zip dims
      in
      let n = List.length pairs in
      let layers =
        List.mapi
          (fun i (fan_in, fan_out) ->
            let activation =
              if i = n - 1 then Activation.Identity else hidden_activation
            in
            (* He initialisation keeps ReLU pre-activation variance stable
               across depth. *)
            let scale = sqrt (2.0 /. float_of_int fan_in) in
            let weights =
              Linalg.Mat.init fan_out fan_in (fun _ _ ->
                  Linalg.Rng.gaussian rng *. scale)
            in
            let bias = Linalg.Vec.zeros fan_out in
            Layer.make weights bias activation)
          pairs
      in
      make (Array.of_list layers)

let i4xn ~rng ?(output_dim = Gmm.output_dim ~components:3)
    ?(hidden_activation = Activation.Relu) n =
  create ~rng ~hidden_activation [ 84; n; n; n; n; output_dim ]

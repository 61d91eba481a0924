(* Row-major dense matrix: element (i, j) lives at [data.(i * cols + j)]. *)
type t = { rows : int; cols : int; data : float array }

let create rows cols x =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) x }

let zeros rows cols = create rows cols 0.0

let init rows cols f =
  let data = Array.make (rows * cols) 0.0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.((i * cols) + j) <- f i j
    done
  done;
  { rows; cols; data }

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let of_rows r =
  let rows = Array.length r in
  if rows = 0 then { rows = 0; cols = 0; data = [||] }
  else begin
    let cols = Array.length r.(0) in
    Array.iter
      (fun row ->
        if Array.length row <> cols then
          invalid_arg "Mat.of_rows: ragged rows")
      r;
    init rows cols (fun i j -> r.(i).(j))
  end

external pack_cols_stub : Vec.t array -> float array -> int -> int -> unit
  = "depnn_mat_pack_cols"
[@@noalloc]

let of_cols ~rows vs =
  let n = Array.length vs in
  Array.iter
    (fun v ->
      if Array.length v <> rows then invalid_arg "Mat.of_cols: ragged columns")
    vs;
  let data = Array.make (rows * n) 0.0 in
  if rows > 0 && n > 0 then pack_cols_stub vs data rows n;
  { rows; cols = n; data }

let copy m = { m with data = Array.copy m.data }
let rows m = m.rows
let cols m = m.cols
let data m = m.data

let get m i j = m.data.((i * m.cols) + j)
let set m i j x = m.data.((i * m.cols) + j) <- x

let row m i = Array.sub m.data (i * m.cols) m.cols
let col m j = Array.init m.rows (fun i -> get m i j)

let set_row m i v =
  if Array.length v <> m.cols then invalid_arg "Mat.set_row: dimension mismatch";
  Array.blit v 0 m.data (i * m.cols) m.cols

let mul_vec m x =
  if Array.length x <> m.cols then
    invalid_arg
      (Printf.sprintf "Mat.mul_vec: %dx%d matrix, %d vector" m.rows m.cols
         (Array.length x));
  let y = Array.make m.rows 0.0 in
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    let acc = ref 0.0 in
    for j = 0 to m.cols - 1 do
      acc := !acc +. (m.data.(base + j) *. x.(j))
    done;
    y.(i) <- !acc
  done;
  y

let mul_vec_transpose m y =
  if Array.length y <> m.rows then
    invalid_arg "Mat.mul_vec_transpose: dimension mismatch";
  (* No [yi <> 0.0] short-circuit: skipping a zero coefficient would
     also skip [0.0 *. nan], silently suppressing NaN propagation from
     [m] (same bug class as the one fixed in [mul]). *)
  let x = Array.make m.cols 0.0 in
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    let yi = y.(i) in
    for j = 0 to m.cols - 1 do
      x.(j) <- x.(j) +. (m.data.(base + j) *. yi)
    done
  done;
  x

let mul_naive a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: dimension mismatch";
  (* Reference kernel and qcheck oracle for the blocked [mul_into].
     The historical [if aik <> 0.0] sparsity short-circuit is gone: it
     suppressed NaN/inf propagation from [b] (0 * nan must be nan under
     the library's fail-fast contracts). *)
  let c = zeros a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      for j = 0 to b.cols - 1 do
        set c i j (get c i j +. (aik *. get b k j))
      done
    done
  done;
  c

(* Cache-blocked product kernel (mat_stubs.c). Accumulates each output
   element in ascending-k order with separate multiply and add per term,
   so results are bit-identical to [mul_naive] and to column-wise
   [mul_vec] — the batched-vs-scalar parity tests rely on this. *)
external mul_into_stub :
  float array -> float array -> float array -> int -> int -> int -> unit
  = "depnn_mat_mul_into_byte" "depnn_mat_mul_into"
[@@noalloc]

let mul_into ~dst a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul_into: dimension mismatch";
  if dst.rows <> a.rows || dst.cols <> b.cols then
    invalid_arg "Mat.mul_into: destination shape mismatch";
  if dst.data == a.data || dst.data == b.data then
    invalid_arg "Mat.mul_into: destination aliases an operand";
  Array.fill dst.data 0 (Array.length dst.data) 0.0;
  if a.rows > 0 && a.cols > 0 && b.cols > 0 then
    mul_into_stub a.data b.data dst.data a.rows a.cols b.cols

let mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: dimension mismatch";
  (* A fresh [zeros] is already zero-filled, so call the kernel directly
     rather than paying [mul_into]'s refill. *)
  let dst = zeros a.rows b.cols in
  if a.rows > 0 && a.cols > 0 && b.cols > 0 then
    mul_into_stub a.data b.data dst.data a.rows a.cols b.cols;
  dst

external add_col_broadcast_stub : float array -> float array -> int -> int -> unit
  = "depnn_mat_add_col_broadcast"
[@@noalloc]

let add_col_broadcast m v =
  if Array.length v <> m.rows then
    invalid_arg "Mat.add_col_broadcast: dimension mismatch";
  if m.rows > 0 && m.cols > 0 then
    add_col_broadcast_stub m.data v m.rows m.cols

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let row_sums m =
  Array.init m.rows (fun i ->
      let base = i * m.cols in
      let acc = ref 0.0 in
      for j = 0 to m.cols - 1 do
        acc := !acc +. Array.unsafe_get m.data (base + j)
      done;
      !acc)

let zip name f a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (Printf.sprintf "Mat.%s: dimension mismatch" name);
  { a with data = Array.init (Array.length a.data) (fun i -> f a.data.(i) b.data.(i)) }

let add = zip "add" ( +. )
let sub = zip "sub" ( -. )
let scale s m = { m with data = Array.map (fun x -> s *. x) m.data }

let add_in_place a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Mat.add_in_place: dimension mismatch";
  for i = 0 to Array.length a.data - 1 do
    a.data.(i) <- a.data.(i) +. b.data.(i)
  done

let outer u v = init (Array.length u) (Array.length v) (fun i j -> u.(i) *. v.(j))

let map f m = { m with data = Array.map f m.data }

let frobenius m =
  let acc = ref 0.0 in
  for i = 0 to Array.length m.data - 1 do
    acc := !acc +. (m.data.(i) *. m.data.(i))
  done;
  sqrt !acc

let approx_equal ?(eps = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && begin
       let ok = ref true in
       for i = 0 to Array.length a.data - 1 do
         if Float.abs (a.data.(i) -. b.data.(i)) > eps then ok := false
       done;
       !ok
     end

let to_rows m = Array.init m.rows (fun i -> row m i)

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf fmt "%a@," Vec.pp (row m i)
  done;
  Format.fprintf fmt "@]"

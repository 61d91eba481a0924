(* The splitmix64 state lives unboxed in an 8-byte buffer, read and
   written with [Bytes.get_int64_le]/[set_int64_le], so advancing it
   allocates nothing (a mutable [int64] field would box every new
   state). *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* splitmix64 finaliser: the output of one step of the generator. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] int64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix s

let split t = of_state (int64 t)

(* 53 random mantissa bits mapped to [0, 1). *)
let[@inline] unit_float t =
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let float t bound =
  assert (bound > 0.0);
  unit_float t *. bound

let uniform t lo hi =
  assert (lo <= hi);
  lo +. (unit_float t *. (hi -. lo))

let int t bound =
  assert (bound > 0);
  if bound land (bound - 1) = 0 then
    Int64.to_int (Int64.logand (int64 t) (Int64.of_int (bound - 1)))
  else begin
    (* Rejection sampling over the smallest covering power of two keeps
       the distribution exactly uniform. *)
    let p = ref 1 in
    while !p < bound do
      p := !p * 2
    done;
    let m = Int64.of_int (!p - 1) in
    let candidate = ref (Int64.to_int (Int64.logand (int64 t) m)) in
    while !candidate >= bound do
      candidate := Int64.to_int (Int64.logand (int64 t) m)
    done;
    !candidate
  end

let bool t = Int64.logand (int64 t) 1L = 1L

(* Box-Muller's cosine half. u1 is redrawn while it is (nearly) zero,
   before u2 is drawn: that order is part of every stream. *)
let gaussian t =
  let u1 = ref (unit_float t) in
  while not (!u1 > 1e-300) do
    u1 := unit_float t
  done;
  let u2 = unit_float t in
  sqrt (-2.0 *. log !u1) *. cos (2.0 *. Float.pi *. u2)

let gaussian_scaled t ~mean ~stddev = mean +. (stddev *. gaussian t)

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let check_float = Alcotest.(check (float 1e-9))

(* {1 Rng} *)

let test_rng_determinism () =
  let a = Linalg.Rng.create 42 and b = Linalg.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Linalg.Rng.int64 a) (Linalg.Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Linalg.Rng.create 1 and b = Linalg.Rng.create 2 in
  Alcotest.(check bool) "different first draw" false
    (Linalg.Rng.int64 a = Linalg.Rng.int64 b)

let test_rng_float_range () =
  let rng = Linalg.Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Linalg.Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_rng_uniform_range () =
  let rng = Linalg.Rng.create 4 in
  for _ = 1 to 1000 do
    let x = Linalg.Rng.uniform rng (-3.0) 7.0 in
    Alcotest.(check bool) "in [-3, 7)" true (x >= -3.0 && x < 7.0)
  done

let test_rng_int_range () =
  let rng = Linalg.Rng.create 5 in
  let seen = Array.make 7 false in
  for _ = 1 to 2000 do
    let k = Linalg.Rng.int rng 7 in
    Alcotest.(check bool) "in [0, 7)" true (k >= 0 && k < 7);
    seen.(k) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_rng_int_power_of_two () =
  let rng = Linalg.Rng.create 6 in
  for _ = 1 to 500 do
    let k = Linalg.Rng.int rng 8 in
    Alcotest.(check bool) "in [0, 8)" true (k >= 0 && k < 8)
  done

let test_rng_gaussian_moments () =
  let rng = Linalg.Rng.create 7 in
  let n = 20000 in
  let xs = Array.init n (fun _ -> Linalg.Rng.gaussian rng) in
  let mean = Linalg.Stats.mean xs and std = Linalg.Stats.stddev xs in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "stddev near 1" true (Float.abs (std -. 1.0) < 0.05)

let test_rng_split_independent () =
  let a = Linalg.Rng.create 11 in
  let b = Linalg.Rng.split a in
  let xa = Linalg.Rng.int64 a and xb = Linalg.Rng.int64 b in
  Alcotest.(check bool) "split streams differ" false (xa = xb)

let test_rng_shuffle_is_permutation () =
  let rng = Linalg.Rng.create 8 in
  let a = Array.init 50 Fun.id in
  Linalg.Rng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_rng_copy () =
  let a = Linalg.Rng.create 9 in
  ignore (Linalg.Rng.int64 a);
  let b = Linalg.Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Linalg.Rng.int64 a)
    (Linalg.Rng.int64 b)

(* Golden streams: the first eight draws of each kind, captured as
   literals, from a fresh generator, from a [split] of one and from a
   [copy] taken after one [int64] draw. Every recording, trained
   weight and fault campaign is a function of these streams, so a
   change to the generator's representation must leave them bit for
   bit as they are. *)
type rng_golden = {
  seed : int;
  variant : string;
  int64s : int64 list;
  floats : float list;  (** [float _ 1.0] *)
  ints7 : int list;
  ints8 : int list;
  gaussians : float list;
}

let rng_golden =
  [
    {
      seed = 0;
      variant = "fresh";
      int64s =
        [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x6c45d188009454fL;
          0xf88bb8a8724c81ecL; 0x1b39896a51a8749bL; 0x53cb9f0c747ea2eaL;
          0x2c829abe1f4532e1L; 0xc584133ac916ab3cL ];
      floats =
        [ 0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6;
          0x1.f1177150e499p-1; 0x1.b39896a51a87p-4; 0x1.4f2e7c31d1fa8p-2;
          0x1.6414d5f0fa298p-3; 0x1.8b082675922d5p-1 ];
      ints7 = [ 4; 4; 3; 2; 1; 4; 3; 6 ];
      ints8 = [ 7; 4; 7; 4; 3; 2; 1; 4 ];
      gaussians =
        [ -0x1.cf9fb99cfab92p-2; 0x1.53470d1ebc1f5p+1; -0x1.fa2a51dfe785dp-1;
          0x1.0285969ebe6b7p-2; 0x1.99992ecac5d52p+0; 0x1.81fae2d6ddccbp-4;
          -0x1.11c125d48b7fep+0; -0x1.a66ed714dc55fp-1 ];
    };
    {
      seed = 0;
      variant = "split";
      int64s =
        [ 0xa706dd2f4d197e6fL; 0xb382a305f4414f5eL; 0x631a9154fbabf717L;
          0xa80aba8c86640906L; 0xc9b5ae106698f0bbL; 0x256fa269a2420ea1L;
          0xc755bbac848bcebeL; 0x43dec8be6926a4deL ];
      floats =
        [ 0x1.4e0dba5e9a32fp-1; 0x1.6705460be8829p-1; 0x1.8c6a4553eeafcp-2;
          0x1.501575190cc81p-1; 0x1.936b5c20cd31ep-1; 0x1.2b7d134d12104p-3;
          0x1.8eab775909179p-1; 0x1.0f7b22f9a49a8p-2 ];
      ints7 = [ 6; 6; 3; 1; 6; 6; 1; 1 ];
      ints8 = [ 7; 6; 7; 6; 3; 1; 6; 6 ];
      gaussians =
        [ -0x1.1d916340baa7bp-2; -0x1.8748380e74bp-1; 0x1.acfad820a59b8p-2;
          -0x1.12d00471a3746p-4; -0x1.45941b226e684p+0; 0x1.13607cf15c957p+0;
          -0x1.0dd7b334d7487p+1; -0x1.42c72588cbfp-1 ];
    };
    {
      seed = 0;
      variant = "copy";
      int64s =
        [ 0x6e789e6aa1b965f4L; 0x6c45d188009454fL; 0xf88bb8a8724c81ecL;
          0x1b39896a51a8749bL; 0x53cb9f0c747ea2eaL; 0x2c829abe1f4532e1L;
          0xc584133ac916ab3cL; 0x3ee5789041c98ac3L ];
      floats =
        [ 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6; 0x1.f1177150e499p-1;
          0x1.b39896a51a87p-4; 0x1.4f2e7c31d1fa8p-2; 0x1.6414d5f0fa298p-3;
          0x1.8b082675922d5p-1; 0x1.f72bc4820e4c4p-3 ];
      ints7 = [ 4; 4; 3; 2; 1; 4; 3; 6 ];
      ints8 = [ 4; 7; 4; 3; 2; 1; 4; 3 ];
      gaussians =
        [ 0x1.47548823b8b06p+0; 0x1.86cecad299cffp-3; 0x1.603b8eb7ea964p-1;
          0x1.3f975dfaf135p-6; -0x1.ff035fc5ff126p-3; -0x1.761a57b837886p-1;
          -0x1.20468be07318ap-2; -0x1.24b5151fd87a3p+0 ];
    };
    {
      seed = 42;
      variant = "fresh";
      int64s =
        [ 0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L;
          0x581ce1ff0e4ae394L; 0x9bc585a244823f2L; 0xde4431fa3c80db06L;
          0x37e9671c45376d5dL; 0xccf635ee9e9e2fa4L ];
      floats =
        [ 0x1.7bae644c5fd6dp-1; 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e6p-2;
          0x1.607387fc392b8p-2; 0x1.378b0b448904p-5; 0x1.bc8863f47901bp-1;
          0x1.bf4b38e229bb4p-3; 0x1.99ec6bdd3d3c5p-1 ];
      ints7 = [ 5; 3; 2; 4; 2; 6; 5; 4 ];
      ints8 = [ 5; 3; 2; 4; 2; 6; 5; 4 ];
      gaussians =
        [ 0x1.a8ac4b546f509p-2; -0x1.c8a54f4e91a7cp-1; 0x1.bac69cd4142bfp+0;
          0x1.175b8fd2de8bap-1; -0x1.1495f183d321dp+0; -0x1.c76296a7a60e6p+0;
          -0x1.25473fd96d151p+0; 0x1.0ab38bced1168p-2 ];
    };
    {
      seed = 42;
      variant = "split";
      int64s =
        [ 0x57e1faba65107204L; 0xf4abd143feb24055L; 0x7c816738c12903b2L;
          0x113e5dec6f8fd8a8L; 0xad4a599062fd1739L; 0x11485b98a7ea20b7L;
          0x32028f50341ebd74L; 0xbc16a3d4cc48678eL ];
      floats =
        [ 0x1.5f87eae99441cp-2; 0x1.e957a287fd648p-1; 0x1.f2059ce304a4p-2;
          0x1.13e5dec6f8fd8p-4; 0x1.5a94b320c5fa2p-1; 0x1.1485b98a7ea2p-4;
          0x1.90147a81a0f5cp-3; 0x1.782d47a99890cp-1 ];
      ints7 = [ 4; 5; 2; 0; 1; 4; 6; 0 ];
      ints8 = [ 4; 5; 2; 0; 1; 7; 4; 6 ];
      gaussians =
        [ 0x1.67f91dc3a5377p+0; 0x1.1841bdc5164edp+0; 0x1.9c38d4031ed02p-1;
          -0x1.62c6c879f4602p-3; -0x1.b38b2d1aa2fc8p-2; 0x1.b43dd39b85593p-2;
          -0x1.2ccf7c932afddp-3; 0x1.d05d568beacbp-5 ];
    };
    {
      seed = 42;
      variant = "copy";
      int64s =
        [ 0x28efe333b266f103L; 0x47526757130f9f52L; 0x581ce1ff0e4ae394L;
          0x9bc585a244823f2L; 0xde4431fa3c80db06L; 0x37e9671c45376d5dL;
          0xccf635ee9e9e2fa4L; 0x5705b8770b3d7dd5L ];
      floats =
        [ 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e6p-2; 0x1.607387fc392b8p-2;
          0x1.378b0b448904p-5; 0x1.bc8863f47901bp-1; 0x1.bf4b38e229bb4p-3;
          0x1.99ec6bdd3d3c5p-1; 0x1.5c16e1dc2cf5ep-2 ];
      ints7 = [ 3; 2; 4; 2; 6; 5; 4; 5 ];
      ints8 = [ 3; 2; 4; 2; 6; 5; 4; 5 ];
      gaussians =
        [ -0x1.5e753f17cbbccp-2; 0x1.6b4508469ee03p+0; 0x1.ad6c9ffc2c253p-4;
          -0x1.6da652115bdeap-2; 0x1.18a6bf75b1098p-2; -0x1.2f64d257b46ddp+0;
          -0x1.298c661c932dbp-1; 0x1.6b7bbc0d59909p+0 ];
    };
    {
      seed = -3;
      variant = "fresh";
      int64s =
        [ 0xf75f04cbb5a1a1ddL; 0xec779c3693f88501L; 0xfed9eeb4936de39dL;
          0x6f9fb04b092bd30aL; 0x260ffb0260bbbe5fL; 0x82cfe8866fac366L;
          0x7a5f67e38e997e3fL; 0xd7c07017388fa2afL ];
      floats =
        [ 0x1.eebe09976b434p-1; 0x1.d8ef386d27f1p-1; 0x1.fdb3dd6926dbcp-1;
          0x1.be7ec12c24af4p-2; 0x1.307fd81305ddcp-3; 0x1.059fd10cdf58p-5;
          0x1.e97d9f8e3a65ep-2; 0x1.af80e02e711f4p-1 ];
      ints7 = [ 5; 1; 5; 2; 6; 0; 3; 1 ];
      ints8 = [ 5; 1; 5; 2; 7; 6; 7; 7 ];
      gaussians =
        [ 0x1.dbd91d49c1302p-3; -0x1.6580a87dff4b4p-4; 0x1.e9c9a04c5de9fp+0;
          0x1.567302cb1a177p-1; -0x1.9d6e21807586fp-1; -0x1.3f9394723847dp+0;
          -0x1.ec78c173a1f75p+0; -0x1.060cd28eb6ccfp-3 ];
    };
    {
      seed = -3;
      variant = "split";
      int64s =
        [ 0x7d93d2ae0779ab16L; 0x75642efe96062fd4L; 0xdd85cf50e730d8f6L;
          0x51dac6620fd87b1bL; 0x2c75e5aa09a9791aL; 0x76c3a264ae153b79L;
          0x903596b1d0ac3067L; 0x1656cd81dbbd4a7aL ];
      floats =
        [ 0x1.f64f4ab81de6ap-2; 0x1.d590bbfa5818ap-2; 0x1.bb0b9ea1ce61bp-1;
          0x1.476b19883f61ep-2; 0x1.63af2d504d4bcp-3; 0x1.db0e8992b854ep-2;
          0x1.206b2d63a1586p-1; 0x1.656cd81dbbd48p-4 ];
      ints7 = [ 6; 4; 6; 3; 2; 1; 2; 5 ];
      ints8 = [ 6; 4; 6; 3; 2; 1; 7; 2 ];
      gaussians =
        [ -0x1.273e90d5813dbp+0; -0x1.d36b96db760b1p-3; -0x1.d2c1b7e145533p+0;
          0x1.d4226563a12f9p-1; -0x1.0bfa88ea78eafp-5; -0x1.7d864f184286dp-7;
          -0x1.de5e1366f3b3bp-1; -0x1.b5cf65820f2c3p+0 ];
    };
    {
      seed = -3;
      variant = "copy";
      int64s =
        [ 0xec779c3693f88501L; 0xfed9eeb4936de39dL; 0x6f9fb04b092bd30aL;
          0x260ffb0260bbbe5fL; 0x82cfe8866fac366L; 0x7a5f67e38e997e3fL;
          0xd7c07017388fa2afL; 0x4f6d6a273422e220L ];
      floats =
        [ 0x1.d8ef386d27f1p-1; 0x1.fdb3dd6926dbcp-1; 0x1.be7ec12c24af4p-2;
          0x1.307fd81305ddcp-3; 0x1.059fd10cdf58p-5; 0x1.e97d9f8e3a65ep-2;
          0x1.af80e02e711f4p-1; 0x1.3db5a89cd08b8p-2 ];
      ints7 = [ 1; 5; 2; 6; 0; 3; 1; 5 ];
      ints8 = [ 1; 5; 2; 7; 6; 7; 7; 0 ];
      gaussians =
        [ 0x1.97d0f764687eap-2; 0x1.882914af36fbbp-1; -0x1.4cbcb593e1fedp+1;
          -0x1.bacd89df9149fp-3; -0x1.62530ca297002p+0; 0x1.f7a411b63750dp-1;
          0x1.f2ba979c83d7dp-1; -0x1.48ceccc794723p+0 ];
    };
  ]

let test_rng_golden () =
  List.iter
    (fun g ->
      let make () =
        match g.variant with
        | "fresh" -> Linalg.Rng.create g.seed
        | "split" -> Linalg.Rng.split (Linalg.Rng.create g.seed)
        | _ ->
            let r = Linalg.Rng.create g.seed in
            ignore (Linalg.Rng.int64 r);
            Linalg.Rng.copy r
      in
      let draws f =
        let r = make () in
        List.init 8 (fun _ -> f r)
      in
      let bits = List.map Int64.bits_of_float in
      let tag what = Printf.sprintf "seed %d, %s: %s" g.seed g.variant what in
      Alcotest.(check (list int64)) (tag "int64") g.int64s
        (draws Linalg.Rng.int64);
      Alcotest.(check (list int64)) (tag "float bits") (bits g.floats)
        (bits (draws (fun r -> Linalg.Rng.float r 1.0)));
      Alcotest.(check (list int)) (tag "int 7") g.ints7
        (draws (fun r -> Linalg.Rng.int r 7));
      Alcotest.(check (list int)) (tag "int 8") g.ints8
        (draws (fun r -> Linalg.Rng.int r 8));
      Alcotest.(check (list int64)) (tag "gaussian bits") (bits g.gaussians)
        (bits (draws Linalg.Rng.gaussian)))
    rng_golden

(* {1 Vec} *)

let test_vec_add_sub () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 0.5; -1.0; 2.0 |] in
  Alcotest.(check bool) "add" true
    (Linalg.Vec.approx_equal (Linalg.Vec.add a b) [| 1.5; 1.0; 5.0 |]);
  Alcotest.(check bool) "sub" true
    (Linalg.Vec.approx_equal (Linalg.Vec.sub a b) [| 0.5; 3.0; 1.0 |])

let test_vec_dot_norm () =
  let a = [| 3.0; 4.0 |] in
  check_float "dot" 25.0 (Linalg.Vec.dot a a);
  check_float "norm2" 5.0 (Linalg.Vec.norm2 a);
  check_float "norm_inf" 4.0 (Linalg.Vec.norm_inf a)

let test_vec_dim_mismatch () =
  Alcotest.check_raises "add mismatch"
    (Invalid_argument "Vec.add: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Linalg.Vec.add [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |]))

let test_vec_axpy () =
  let y = [| 1.0; 1.0 |] in
  Linalg.Vec.axpy 2.0 [| 3.0; -1.0 |] y;
  Alcotest.(check bool) "axpy" true (Linalg.Vec.approx_equal y [| 7.0; -1.0 |])

let test_vec_argmax_argmin () =
  let v = [| 1.0; 5.0; -2.0; 5.0 |] in
  Alcotest.(check int) "argmax first winner" 1 (Linalg.Vec.argmax v);
  Alcotest.(check int) "argmin" 2 (Linalg.Vec.argmin v)

let test_vec_stats () =
  let v = [| 2.0; 4.0; 6.0 |] in
  check_float "sum" 12.0 (Linalg.Vec.sum v);
  check_float "mean" 4.0 (Linalg.Vec.mean v);
  check_float "min" 2.0 (Linalg.Vec.min v);
  check_float "max" 6.0 (Linalg.Vec.max v)

let test_vec_empty_errors () =
  Alcotest.check_raises "mean of empty" (Invalid_argument "Vec.mean: empty vector")
    (fun () -> ignore (Linalg.Vec.mean [||]))

(* {1 Mat} *)

let test_mat_identity_mul () =
  let id = Linalg.Mat.identity 3 in
  let m = Linalg.Mat.of_rows [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |]; [| 7.0; 8.0; 10.0 |] |] in
  Alcotest.(check bool) "I*m = m" true
    (Linalg.Mat.approx_equal (Linalg.Mat.mul id m) m);
  Alcotest.(check bool) "m*I = m" true
    (Linalg.Mat.approx_equal (Linalg.Mat.mul m id) m)

let test_mat_mul_known () =
  let a = Linalg.Mat.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Linalg.Mat.of_rows [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let expected = Linalg.Mat.of_rows [| [| 19.0; 22.0 |]; [| 43.0; 50.0 |] |] in
  Alcotest.(check bool) "2x2 product" true
    (Linalg.Mat.approx_equal (Linalg.Mat.mul a b) expected)

let test_mat_mul_vec () =
  let m = Linalg.Mat.of_rows [| [| 1.0; 2.0; 3.0 |]; [| 0.0; -1.0; 1.0 |] |] in
  let y = Linalg.Mat.mul_vec m [| 1.0; 1.0; 1.0 |] in
  Alcotest.(check bool) "mat-vec" true (Linalg.Vec.approx_equal y [| 6.0; 0.0 |])

let test_mat_mul_vec_transpose () =
  let m = Linalg.Mat.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |]; [| 5.0; 6.0 |] |] in
  let y = [| 1.0; 1.0; 1.0 |] in
  let expected = Linalg.Mat.mul_vec (Linalg.Mat.transpose m) y in
  Alcotest.(check bool) "m^T y" true
    (Linalg.Vec.approx_equal (Linalg.Mat.mul_vec_transpose m y) expected)

let test_mat_transpose_involution () =
  let m = Linalg.Mat.of_rows [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  Alcotest.(check bool) "(m^T)^T = m" true
    (Linalg.Mat.approx_equal (Linalg.Mat.transpose (Linalg.Mat.transpose m)) m)

let test_mat_outer () =
  let o = Linalg.Mat.outer [| 1.0; 2.0 |] [| 3.0; 4.0; 5.0 |] in
  Alcotest.(check int) "rows" 2 (Linalg.Mat.rows o);
  Alcotest.(check int) "cols" 3 (Linalg.Mat.cols o);
  check_float "o(1,2)" 10.0 (Linalg.Mat.get o 1 2)

let test_mat_add_in_place () =
  let a = Linalg.Mat.of_rows [| [| 1.0; 1.0 |] |] in
  Linalg.Mat.add_in_place a (Linalg.Mat.of_rows [| [| 2.0; -1.0 |] |]);
  Alcotest.(check bool) "in place add" true
    (Linalg.Mat.approx_equal a (Linalg.Mat.of_rows [| [| 3.0; 0.0 |] |]))

let test_mat_row_col () =
  let m = Linalg.Mat.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check bool) "row" true (Linalg.Vec.approx_equal (Linalg.Mat.row m 1) [| 3.0; 4.0 |]);
  Alcotest.(check bool) "col" true (Linalg.Vec.approx_equal (Linalg.Mat.col m 1) [| 2.0; 4.0 |])

let test_mat_ragged_rejected () =
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_rows: ragged rows")
    (fun () -> ignore (Linalg.Mat.of_rows [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

let test_mat_frobenius () =
  let m = Linalg.Mat.of_rows [| [| 3.0; 0.0 |]; [| 0.0; 4.0 |] |] in
  check_float "frobenius" 5.0 (Linalg.Mat.frobenius m)

(* Regression: a zero coefficient multiplying a NaN must still produce
   NaN (0 * nan = nan). The old [mul] short-circuited [aik <> 0.0] and
   silently suppressed NaN propagation — exactly the corruption the
   fault campaign's NaN detection relies on observing. *)
let test_mat_mul_zero_times_nan () =
  let a = Linalg.Mat.of_rows [| [| 0.0; 1.0 |] |] in
  let b = Linalg.Mat.of_rows [| [| Float.nan |]; [| 2.0 |] |] in
  Alcotest.(check bool) "mul: 0 * nan is nan" true
    (Float.is_nan (Linalg.Mat.get (Linalg.Mat.mul a b) 0 0));
  Alcotest.(check bool) "mul_naive agrees" true
    (Float.is_nan (Linalg.Mat.get (Linalg.Mat.mul_naive a b) 0 0));
  Alcotest.(check bool) "mul_vec: 0 * nan is nan" true
    (Float.is_nan (Linalg.Mat.mul_vec a [| Float.nan; 2.0 |]).(0));
  let m = Linalg.Mat.of_rows [| [| Float.nan; 2.0 |] |] in
  Alcotest.(check bool) "mul_vec_transpose: nan row, zero coeff" true
    (Float.is_nan (Linalg.Mat.mul_vec_transpose m [| 0.0 |]).(0))

let test_mat_of_cols () =
  let m =
    Linalg.Mat.of_cols ~rows:2 [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |]; [| 5.0; 6.0 |] |]
  in
  Alcotest.(check int) "rows" 2 (Linalg.Mat.rows m);
  Alcotest.(check int) "cols" 3 (Linalg.Mat.cols m);
  Alcotest.(check bool) "column layout" true
    (Linalg.Vec.approx_equal (Linalg.Mat.col m 1) [| 3.0; 4.0 |]);
  let empty = Linalg.Mat.of_cols ~rows:4 [||] in
  Alcotest.(check int) "empty batch rows" 4 (Linalg.Mat.rows empty);
  Alcotest.(check int) "empty batch cols" 0 (Linalg.Mat.cols empty);
  let single = Linalg.Mat.of_cols ~rows:3 [| [| 7.0; 8.0; 9.0 |] |] in
  Alcotest.(check bool) "single column" true
    (Linalg.Vec.approx_equal (Linalg.Mat.col single 0) [| 7.0; 8.0; 9.0 |]);
  Alcotest.(check bool) "ragged column rejected" true
    (match Linalg.Mat.of_cols ~rows:2 [| [| 1.0; 2.0 |]; [| 3.0 |] |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_mat_mul_into () =
  let rng = Linalg.Rng.create 33 in
  let a = Linalg.Mat.init 5 7 (fun _ _ -> Linalg.Rng.uniform rng (-2.0) 2.0) in
  let b = Linalg.Mat.init 7 4 (fun _ _ -> Linalg.Rng.uniform rng (-2.0) 2.0) in
  let dst = Linalg.Mat.create 5 4 42.0 in
  Linalg.Mat.mul_into ~dst a b;
  Alcotest.(check bool) "overwrites dst with a*b" true
    (Linalg.Mat.approx_equal ~eps:0.0 dst (Linalg.Mat.mul a b));
  Alcotest.(check bool) "shape mismatch rejected" true
    (match Linalg.Mat.mul_into ~dst:(Linalg.Mat.zeros 4 4) a b with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_mat_row_sums_broadcast () =
  let m = Linalg.Mat.of_rows [| [| 1.0; 2.0; 3.0 |]; [| -1.0; 0.5; 0.5 |] |] in
  Alcotest.(check bool) "row sums" true
    (Linalg.Vec.approx_equal (Linalg.Mat.row_sums m) [| 6.0; 0.0 |]);
  Linalg.Mat.add_col_broadcast m [| 10.0; 20.0 |];
  Alcotest.(check bool) "bias broadcast over columns" true
    (Linalg.Mat.approx_equal m
       (Linalg.Mat.of_rows [| [| 11.0; 12.0; 13.0 |]; [| 19.0; 20.5; 20.5 |] |]))

(* {1 Stats} *)

let test_stats_mean_var () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Linalg.Stats.mean xs);
  check_float "variance" 4.0 (Linalg.Stats.variance xs);
  check_float "stddev" 2.0 (Linalg.Stats.stddev xs)

let test_stats_correlation () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = [| 2.0; 4.0; 6.0; 8.0 |] in
  check_float "perfect positive" 1.0 (Linalg.Stats.correlation xs ys);
  let zs = [| 8.0; 6.0; 4.0; 2.0 |] in
  check_float "perfect negative" (-1.0) (Linalg.Stats.correlation xs zs);
  let flat = [| 5.0; 5.0; 5.0; 5.0 |] in
  check_float "degenerate" 0.0 (Linalg.Stats.correlation xs flat)

let test_stats_percentile () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  check_float "p0" 1.0 (Linalg.Stats.percentile xs 0.0);
  check_float "p100" 4.0 (Linalg.Stats.percentile xs 100.0);
  check_float "p50" 2.5 (Linalg.Stats.percentile xs 50.0)

let test_stats_histogram () =
  let xs = [| 0.1; 0.2; 0.9; -5.0; 5.0 |] in
  let h = Linalg.Stats.histogram ~bins:2 ~lo:0.0 ~hi:1.0 xs in
  Alcotest.(check (array int)) "clamped bins" [| 3; 2 |] h

let test_stats_welford_matches_direct () =
  let rng = Linalg.Rng.create 21 in
  let xs = Array.init 500 (fun _ -> Linalg.Rng.uniform rng (-5.0) 5.0) in
  let push, finish = Linalg.Stats.welford () in
  Array.iter push xs;
  let mean, var, count = finish () in
  Alcotest.(check int) "count" 500 count;
  Alcotest.(check (float 1e-9)) "mean" (Linalg.Stats.mean xs) mean;
  Alcotest.(check (float 1e-9)) "variance" (Linalg.Stats.variance xs) var

(* {1 Properties} *)

let prop_dot_commutative =
  QCheck.Test.make ~name:"dot commutative" ~count:200
    QCheck.(pair (list_of_size (Gen.return 5) (float_range (-10.0) 10.0))
              (list_of_size (Gen.return 5) (float_range (-10.0) 10.0)))
    (fun (a, b) ->
      let a = Array.of_list a and b = Array.of_list b in
      Float.abs (Linalg.Vec.dot a b -. Linalg.Vec.dot b a) < 1e-9)

let prop_matvec_linear =
  QCheck.Test.make ~name:"mat-vec linearity" ~count:100
    QCheck.(triple (list_of_size (Gen.return 4) (float_range (-5.0) 5.0))
              (list_of_size (Gen.return 4) (float_range (-5.0) 5.0))
              (float_range (-3.0) 3.0))
    (fun (x, y, s) ->
      let rng = Linalg.Rng.create 77 in
      let m = Linalg.Mat.init 3 4 (fun _ _ -> Linalg.Rng.uniform rng (-2.0) 2.0) in
      let x = Array.of_list x and y = Array.of_list y in
      let lhs =
        Linalg.Mat.mul_vec m
          (Linalg.Vec.add (Linalg.Vec.scale s x) y)
      in
      let rhs =
        Linalg.Vec.add
          (Linalg.Vec.scale s (Linalg.Mat.mul_vec m x))
          (Linalg.Mat.mul_vec m y)
      in
      Linalg.Vec.approx_equal ~eps:1e-6 lhs rhs)

let prop_transpose_mul =
  QCheck.Test.make ~name:"(AB)^T = B^T A^T" ~count:50
    QCheck.(int_range 1 5)
    (fun n ->
      let rng = Linalg.Rng.create (n + 100) in
      let a = Linalg.Mat.init n 3 (fun _ _ -> Linalg.Rng.uniform rng (-1.0) 1.0) in
      let b = Linalg.Mat.init 3 4 (fun _ _ -> Linalg.Rng.uniform rng (-1.0) 1.0) in
      Linalg.Mat.approx_equal ~eps:1e-9
        (Linalg.Mat.transpose (Linalg.Mat.mul a b))
        (Linalg.Mat.mul (Linalg.Mat.transpose b) (Linalg.Mat.transpose a)))

(* The blocked kernel must be bit-identical to the triple loop: same
   ascending-k accumulation order, no contraction. [eps:0.0] on purpose. *)
let prop_mul_matches_naive =
  QCheck.Test.make ~name:"blocked mul = naive mul (bit-exact)" ~count:60
    QCheck.(
      quad (int_range 1 40) (int_range 1 40) (int_range 1 40) (int_range 0 10000))
    (fun (m, k, n, seed) ->
      let rng = Linalg.Rng.create seed in
      let a = Linalg.Mat.init m k (fun _ _ -> Linalg.Rng.uniform rng (-3.0) 3.0) in
      let b = Linalg.Mat.init k n (fun _ _ -> Linalg.Rng.uniform rng (-3.0) 3.0) in
      Linalg.Mat.approx_equal ~eps:0.0 (Linalg.Mat.mul a b)
        (Linalg.Mat.mul_naive a b))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "linalg"
    [
      ( "rng",
        [
          quick "determinism" test_rng_determinism;
          quick "seeds differ" test_rng_seeds_differ;
          quick "float range" test_rng_float_range;
          quick "uniform range" test_rng_uniform_range;
          quick "int range" test_rng_int_range;
          quick "int power of two" test_rng_int_power_of_two;
          quick "gaussian moments" test_rng_gaussian_moments;
          quick "split independent" test_rng_split_independent;
          quick "shuffle permutation" test_rng_shuffle_is_permutation;
          quick "copy" test_rng_copy;
          quick "golden streams" test_rng_golden;
        ] );
      ( "vec",
        [
          quick "add/sub" test_vec_add_sub;
          quick "dot/norm" test_vec_dot_norm;
          quick "dim mismatch" test_vec_dim_mismatch;
          quick "axpy" test_vec_axpy;
          quick "argmax/argmin" test_vec_argmax_argmin;
          quick "aggregates" test_vec_stats;
          quick "empty errors" test_vec_empty_errors;
        ] );
      ( "mat",
        [
          quick "identity" test_mat_identity_mul;
          quick "known product" test_mat_mul_known;
          quick "mat-vec" test_mat_mul_vec;
          quick "mat-vec transpose" test_mat_mul_vec_transpose;
          quick "transpose involution" test_mat_transpose_involution;
          quick "outer" test_mat_outer;
          quick "add in place" test_mat_add_in_place;
          quick "row/col" test_mat_row_col;
          quick "ragged rejected" test_mat_ragged_rejected;
          quick "frobenius" test_mat_frobenius;
          quick "0 * nan propagates" test_mat_mul_zero_times_nan;
          quick "of_cols" test_mat_of_cols;
          quick "mul_into" test_mat_mul_into;
          quick "row sums / broadcast" test_mat_row_sums_broadcast;
        ] );
      ( "stats",
        [
          quick "mean/var" test_stats_mean_var;
          quick "correlation" test_stats_correlation;
          quick "percentile" test_stats_percentile;
          quick "histogram" test_stats_histogram;
          quick "welford" test_stats_welford_matches_direct;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_dot_commutative;
            prop_matvec_linear;
            prop_transpose_mul;
            prop_mul_matches_naive;
          ] );
    ]

(* FNV-1a 64 running hash, one for every digest (network content hash,
   certificate fingerprints, checksums). Not cryptographic: the threat
   model is bit rot, truncation and stale files, not an adversary
   forging proofs. *)

type t = { mutable h : int64 }

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let create () = { h = fnv_offset }

let byte t b =
  t.h <- Int64.mul (Int64.logxor t.h (Int64.of_int (b land 0xff))) fnv_prime

let string t s =
  String.iter (fun c -> byte t (Char.code c)) s;
  byte t 0x1f

let int t i = string t (string_of_int i)

let float t x =
  let bits = Int64.bits_of_float x in
  for k = 0 to 7 do
    byte t (Int64.to_int (Int64.shift_right_logical bits (8 * k)))
  done

let hex t = Printf.sprintf "%016Lx" t.h

let of_string s =
  let t = create () in
  String.iter (fun c -> byte t (Char.code c)) s;
  hex t

(* Usage: write_scaled_net SEED EXPONENT OUT

   Writes the scaled network of {!Scaled_nets.net} to OUT and prints
   its threshold (half the box centre's component-0 output) with every
   digit, so that [depnn verify OUT --threshold=T] asks the question the
   reproduction property asks. *)

let () =
  match Sys.argv with
  | [| _; seed; exponent; out |] ->
      let net =
        Scaled_nets.net ~seed:(int_of_string seed)
          ~exponent:(int_of_string exponent)
      in
      Nn.Io.save out net;
      Printf.printf "%.17g\n" (Scaled_nets.threshold net)
  | _ ->
      prerr_endline "usage: write_scaled_net SEED EXPONENT OUT";
      exit 2

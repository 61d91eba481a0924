(* The pinned models: the recipe of the `table2` mode of bench/main.ml
   (seed 7, 1,500 scenes recorded under [Risky 0.25], sanitized, 15 MDN
   epochs, 3 components). Nothing here depends on the benchmark's
   --seed, so every run of every workload measures the same networks. *)

let seed = 7
let components = 3

let n_samples = 1500
let epochs = 15

let record () =
  Highway.Recorder.record ~rng:(Linalg.Rng.create seed)
    ~style:(Highway.Policy.Risky 0.25) ~n_samples ()

let sanitize samples = fst (Sanitizer.sanitize (Dataset.of_samples samples))

let train clean width =
  let net =
    Nn.Network.i4xn
      ~rng:(Linalg.Rng.create (seed + 1000 + width))
      ~output_dim:(Nn.Gmm.output_dim ~components)
      width
  in
  let config =
    {
      (Train.Trainer.default ~loss:(Train.Loss.Mdn { components }) ()) with
      Train.Trainer.epochs;
      seed;
    }
  in
  ignore (Train.Trainer.fit config net (Dataset.pairs clean) ());
  net

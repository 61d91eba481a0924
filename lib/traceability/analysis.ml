type association = {
  feature : int;
  feature_name : string;
  correlation : float;
  lift : float option;
}

type neuron_profile = {
  layer : int;
  neuron : int;
  activation_rate : float;
  mean_activation : float;
  top : association list;
}

type t = {
  profiles : neuron_profile array;
  n_probes : int;
  dead : (int * int) list;
  saturated : (int * int) list;
}

let is_binary_feature column =
  Array.for_all (fun x -> x = 0.0 || x = 1.0) column

let analyze ?(top_k = 3) ?feature_names net probes =
  if Array.length probes = 0 then invalid_arg "Analysis.analyze: no probes";
  let input_dim = Nn.Network.input_dim net in
  Array.iter
    (fun p ->
      if Array.length p <> input_dim then
        invalid_arg "Analysis.analyze: probe dimension mismatch")
    probes;
  let feature_names =
    match feature_names with
    | Some names ->
        if Array.length names <> input_dim then
          invalid_arg "Analysis.analyze: feature_names length mismatch";
        names
    | None -> Array.init input_dim (Printf.sprintf "x%d")
  in
  let n = Array.length probes in
  let traces = Array.map (Nn.Network.forward_trace net) probes in
  let feature_columns =
    Array.init input_dim (fun f -> Array.map (fun p -> p.(f)) probes)
  in
  let binary = Array.map is_binary_feature feature_columns in
  let profiles = ref [] and dead = ref [] and saturated = ref [] in
  for li = 0 to Nn.Network.num_layers net - 2 do
    let width = Nn.Layer.output_dim (Nn.Network.layer net li) in
    for r = 0 to width - 1 do
      let pre = Array.map (fun t -> t.Nn.Network.pre.(li).(r)) traces in
      let post = Array.map (fun t -> t.Nn.Network.post.(li).(r)) traces in
      let active = Array.map (fun x -> x > 0.0) post in
      let n_active = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 active in
      let activation_rate = float_of_int n_active /. float_of_int n in
      if n_active = 0 then dead := (li, r) :: !dead;
      if n_active = n then saturated := (li, r) :: !saturated;
      let associations =
        List.init input_dim (fun f ->
            let correlation = Linalg.Stats.correlation feature_columns.(f) pre in
            let lift =
              if binary.(f) then begin
                (* P(active | f=1) / P(active | f=0), with add-one
                   smoothing so an empty branch does not divide by 0. *)
                let a1 = ref 1 and n1 = ref 2 and a0 = ref 1 and n0 = ref 2 in
                Array.iteri
                  (fun i fv ->
                    if fv = 1.0 then begin
                      incr n1;
                      if active.(i) then incr a1
                    end
                    else begin
                      incr n0;
                      if active.(i) then incr a0
                    end)
                  feature_columns.(f);
                let p1 = float_of_int !a1 /. float_of_int !n1 in
                let p0 = float_of_int !a0 /. float_of_int !n0 in
                Some (p1 /. p0)
              end
              else None
            in
            { feature = f; feature_name = feature_names.(f); correlation; lift })
      in
      let sorted =
        List.sort
          (fun a b ->
            compare (Float.abs b.correlation) (Float.abs a.correlation))
          associations
      in
      let top = List.filteri (fun i _ -> i < top_k) sorted in
      profiles :=
        {
          layer = li;
          neuron = r;
          activation_rate;
          mean_activation = Linalg.Stats.mean post;
          top;
        }
        :: !profiles
    done
  done;
  {
    profiles = Array.of_list (List.rev !profiles);
    n_probes = n;
    dead = List.rev !dead;
    saturated = List.rev !saturated;
  }

let traceable_fraction t =
  let live =
    Array.to_list t.profiles
    |> List.filter (fun p -> p.activation_rate > 0.0 && p.activation_rate < 1.0)
  in
  match live with
  | [] -> 0.0
  | _ :: _ ->
      let traceable =
        List.filter
          (fun p ->
            List.exists
              (fun a -> Float.abs a.correlation >= 0.3)
              p.top)
          live
      in
      float_of_int (List.length traceable) /. float_of_int (List.length live)

let render ?(max_neurons = 20) t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "neuron-to-feature traceability (%d probes): %d neurons, %d dead, %d saturated\n"
       t.n_probes (Array.length t.profiles) (List.length t.dead)
       (List.length t.saturated));
  Buffer.add_string buf
    (Printf.sprintf "traceable fraction (|corr| >= 0.3): %.1f%%\n"
       (100.0 *. traceable_fraction t));
  let shown = ref 0 in
  Array.iter
    (fun p ->
      if !shown < max_neurons then begin
        incr shown;
        Buffer.add_string buf
          (Printf.sprintf "  L%d/n%02d act=%4.0f%% " p.layer p.neuron
             (100.0 *. p.activation_rate));
        List.iteri
          (fun i a ->
            if i > 0 then Buffer.add_string buf ", ";
            Buffer.add_string buf
              (Printf.sprintf "%s (r=%+.2f%s)" a.feature_name a.correlation
                 (match a.lift with
                  | Some l -> Printf.sprintf ", lift=%.1f" l
                  | None -> "")))
          p.top;
        Buffer.add_char buf '\n'
      end)
    t.profiles;
  Buffer.contents buf

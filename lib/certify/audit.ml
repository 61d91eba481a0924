type status = Confirmed | Rejected of string | Unverified of string

type component_report = {
  component : int;
  claimed : string;
  status : status;
  detail : string;
}

type report = {
  net_hash : string;
  components : component_report list;
  total : int option;
  verdict : [ `Proved | `Disproved | `Unknown ];
  ok : bool;
}

(* Audit tolerance: the solver prunes to an absolute 1e-6 gap and its
   maintained reduced costs can drift by a few ulps per pivot since the
   last refresh; a relative 1e-4 band absorbs both while staying far
   below any engineering-meaningful violation of the property. *)
let audit_tol threshold = 1e-4 *. (1.0 +. Float.abs threshold)

let box_of (p : Certificate.property) =
  Array.map (fun (lo, hi) -> Interval.make lo hi) p.box

(* --- witness replay ------------------------------------------------ *)

let check_witness net (p : Certificate.property) ~output input =
  if Array.length input <> Nn.Network.input_dim net then
    Error "witness dimension mismatch"
  else if not (Array.for_all Float.is_finite input) then
    Error "non-finite witness input"
  else if
    not
      (Array.for_all2
         (fun x (lo, hi) -> x >= lo && x <= hi)
         input p.box)
  then Error "witness lies outside the input box"
  else begin
    let out = Checker.forward_enclosure net input in
    if output < 0 || output >= Array.length out then
      Error "witness output index out of range"
    else if out.(output).Outward.lo > p.threshold then
      Ok
        (Printf.sprintf "witness output >= %.9g > threshold %.9g"
           out.(output).Outward.lo p.threshold)
    else
      Error
        (Printf.sprintf
           "witness does not beat the threshold under outward replay \
            (output <= %.9g)"
           out.(output).Outward.hi)
  end

(* --- presolve replay ----------------------------------------------- *)

let check_presolve net (p : Certificate.property) ~output coeffs =
  if Array.length coeffs <> Nn.Network.input_dim net then
    Error "presolve form dimension mismatch"
  else if not (Array.for_all Float.is_finite coeffs) then
    Error "non-finite presolve form"
  else begin
    let bound =
      try Checker.symbolic_output_upper net (box_of p) ~output
      with Invalid_argument _ -> infinity
    in
    if bound <= p.threshold +. audit_tol p.threshold then
      Ok
        (Printf.sprintf "independent outward bound %.9g <= threshold %.9g"
           bound p.threshold)
    else
      Error
        (Printf.sprintf
           "independent outward bound %.9g exceeds threshold %.9g" bound
           p.threshold)
  end

(* --- branch & bound tree replay ------------------------------------ *)

(* The leaves must tile the root box: recurse over the shared fix
   prefix; at each branching position all siblings must split the same
   integer variable into child ranges that cover every integer of the
   variable's current range. This checks coverage from the recorded
   fixes alone — no search replay. *)
let check_coverage ~is_int ~lo0 ~hi0 (leaves : Certificate.leaf array) =
  let eps = 1e-9 in
  let bnd = Hashtbl.create 16 in
  let cur v =
    match Hashtbl.find_opt bnd v with
    | Some b -> b
    | None -> (lo0.(v), hi0.(v))
  in
  let rec go depth idxs =
    let terminal, deeper =
      List.partition
        (fun i -> Array.length leaves.(i).Certificate.fixes <= depth)
        idxs
    in
    match (terminal, deeper) with
    | [ _ ], [] -> Ok ()
    | [], [] -> Error "coverage: empty leaf group"
    | _ :: _, _ ->
        Error "coverage: duplicate or overlapping leaves share a prefix"
    | [], _ ->
        let fix i = leaves.(i).Certificate.fixes.(depth) in
        let v0, _, _ = fix (List.hd deeper) in
        if
          not
            (List.for_all
               (fun i ->
                 let v, _, _ = fix i in
                 v = v0)
               deeper)
        then Error "coverage: siblings branch on different variables"
        else if not (is_int v0) then
          Error "coverage: branching recorded on a continuous variable"
        else begin
          let cl, ch = cur v0 in
          let groups = Hashtbl.create 8 in
          List.iter
            (fun i ->
              let _, l, h = fix i in
              let prev =
                Option.value (Hashtbl.find_opt groups (l, h)) ~default:[]
              in
              Hashtbl.replace groups (l, h) (i :: prev))
            deeper;
          let pairs =
            List.sort
              (fun ((l1, _), _) ((l2, _), _) -> compare l1 l2)
              (Hashtbl.fold (fun k v acc -> (k, v) :: acc) groups [])
          in
          let first_int = Float.ceil (cl -. eps) in
          let last_int = Float.floor (ch +. eps) in
          (* Integer coverage: consecutive child ranges may leave open
             gaps narrower than one — no integer point fits there. *)
          let rec covered prev = function
            | [] ->
                if prev >= last_int -. eps then Ok ()
                else Error "coverage: top of the variable range uncovered"
            | ((l, h), _) :: rest ->
                if l > prev +. 1.0 +. eps then
                  Error "coverage: gap between sibling child ranges"
                else covered (Float.max prev h) rest
          in
          match covered (first_int -. 1.0) pairs with
          | Error _ as e -> e
          | Ok () ->
              let saved = Hashtbl.find_opt bnd v0 in
              let rec each = function
                | [] -> Ok ()
                | ((l, h), group) :: rest -> (
                    Hashtbl.replace bnd v0 (Float.max cl l, Float.min ch h);
                    match go (depth + 1) group with
                    | Error _ as e -> e
                    | Ok () -> each rest)
              in
              let r = each pairs in
              (match saved with
               | Some b -> Hashtbl.replace bnd v0 b
               | None -> Hashtbl.remove bnd v0);
              r
        end
  in
  if Array.length leaves = 0 then Error "coverage: no leaves recorded"
  else go 0 (List.init (Array.length leaves) Fun.id)

let check_tree net (p : Certificate.property) ~output ~model_hash leaves =
  match Checker.mode_of_string p.bound_mode with
  | None -> Error (Printf.sprintf "unknown bound mode %S" p.bound_mode)
  | Some mode -> (
      match
        try
          Ok
            (Encoding.Encoder.encode ~bound_mode:mode ~tighten_rounds:0 net
               (box_of p))
        with Invalid_argument m -> Error ("cannot rebuild encoding: " ^ m)
      with
      | Error _ as e -> e
      | Ok enc ->
          let fp = Certificate.model_fingerprint enc.Encoding.Encoder.model in
          if fp <> model_hash then
            Error
              "stale certificate: rebuilt model fingerprint does not match"
          else begin
            let problem = Milp.Model.lp enc.Encoding.Encoder.model in
            let rows = Lp.Problem.rows problem in
            let lo0 = Lp.Problem.var_lo problem in
            let hi0 = Lp.Problem.var_hi problem in
            let n = Lp.Problem.num_vars problem in
            let obj = Array.make n 0.0 in
            (try
               List.iter
                 (fun (v, c) -> obj.(v) <- c)
                 (Encoding.Encoder.output_objective enc output)
             with Invalid_argument _ | Failure _ -> ());
            let ints = Array.make n false in
            List.iter
              (fun v -> if v >= 0 && v < n then ints.(v) <- true)
              (Milp.Model.integer_vars enc.Encoding.Encoder.model);
            let tol = audit_tol p.threshold in
            let check_leaf (leaf : Certificate.leaf) =
              let lo = Array.copy lo0 and hi = Array.copy hi0 in
              let bad = ref None in
              Array.iter
                (fun (v, flo, fhi) ->
                  if v < 0 || v >= n || not (Float.is_finite flo)
                     || not (Float.is_finite fhi)
                  then bad := Some "malformed fix"
                  else begin
                    lo.(v) <- Float.max lo.(v) flo;
                    hi.(v) <- Float.min hi.(v) fhi
                  end)
                leaf.Certificate.fixes;
              match !bad with
              | Some m -> Error m
              | None ->
                  if
                    Array.exists2 (fun l h -> l > h) lo hi
                  then Ok ()  (* leaf region certainly empty: vacuous *)
                  else (
                    match leaf.Certificate.evidence with
                    | Certificate.Ev_bounded y -> (
                        match
                          Checker.dual_upper { rows; lo; hi; obj } y
                        with
                        | Error _ as e -> e
                        | Ok ub ->
                            if ub <= p.threshold +. tol then Ok ()
                            else
                              Error
                                (Printf.sprintf
                                   "leaf dual bound %.9g exceeds \
                                    threshold %.9g"
                                   ub p.threshold))
                    | Certificate.Ev_infeasible y -> (
                        match
                          Checker.dual_upper
                            { rows; lo; hi; obj = Array.make n 0.0 }
                            y
                        with
                        | Error _ as e -> e
                        | Ok ub ->
                            if ub < 0.0 then Ok ()
                            else
                              Error
                                "Farkas ray does not certify \
                                 infeasibility under outward replay")
                    | Certificate.Ev_empty_row i ->
                        if Checker.row_certainly_empty { rows; lo; hi; obj } i
                        then Ok ()
                        else Error "claimed empty row is not certainly empty"
                    | Certificate.Ev_unsupported reason ->
                        Error ("uncertified leaf: " ^ reason))
            in
            let rec all i =
              if i >= Array.length leaves then Ok ()
              else
                match check_leaf leaves.(i) with
                | Error m -> Error (Printf.sprintf "leaf %d: %s" i m)
                | Ok () -> all (i + 1)
            in
            match all 0 with
            | Error _ as e -> e
            | Ok () -> (
                match
                  check_coverage
                    ~is_int:(fun v -> ints.(v))
                    ~lo0 ~hi0 leaves
                with
                | Error _ as e -> e
                | Ok () ->
                    Ok
                      (Printf.sprintf
                         "replayed %d leaves; tree covers the box"
                         (Array.length leaves)))
          end)

(* --- one certificate ----------------------------------------------- *)

let check_certificate net (cert : Certificate.t) =
  let net_hash = Nn.Io.content_hash net in
  if cert.Certificate.net_hash <> net_hash then
    Error "certificate is for a different network"
  else begin
    let p = cert.Certificate.property in
    if Array.length p.box <> Nn.Network.input_dim net then
      Error "certificate box dimension mismatch"
    else if
      not
        (Array.for_all
           (fun (lo, hi) ->
             Float.is_finite lo && Float.is_finite hi && lo <= hi)
           p.box)
    then Error "malformed certificate box"
    else
      match cert.Certificate.body with
      | Certificate.Witness { input; achieved = _ } ->
          check_witness net p ~output:cert.Certificate.output input
      | Certificate.Presolve { coeffs; const = _; bound = _ } ->
          check_presolve net p ~output:cert.Certificate.output coeffs
      | Certificate.Milp_tree { model_hash; leaves } ->
          check_tree net p ~output:cert.Certificate.output ~model_hash leaves
  end

(* --- full campaign audit -------------------------------------------- *)

let run ~net ~dir =
  let net_hash = Nn.Io.content_hash net in
  let entries = Journal.load ~dir in
  (* Resume may append a later entry for the same component: last one
     wins, matching what the driver itself trusts. *)
  let latest = Journal.latest entries in
  let campaign_prop =
    match List.rev entries with e :: _ -> e.Journal.prop_hash | [] -> ""
  in
  let total = ref None in
  let audit_entry (e : Journal.entry) =
    let status, detail =
      match Journal.trusted ~dir ~net_hash ~prop_hash:campaign_prop e with
      | Error `Unsettled ->
          (Unverified "campaign recorded an honest unknown", "")
      | Error (`Untrusted m) -> (Rejected m, "")
      | Ok cert -> (
          if !total = None then
            total := Some cert.Certificate.property.components;
          match check_certificate net cert with
          | Ok d -> (Confirmed, d)
          | Error m -> (Rejected m, ""))
    in
    { component = e.component; claimed = e.verdict; status; detail }
  in
  let components = List.map audit_entry latest in
  let confirmed pred =
    List.exists (fun c -> c.status = Confirmed && pred c) components
  in
  let verdict =
    if confirmed (fun c -> c.claimed = "disproved") then `Disproved
    else
      match !total with
      | Some k
        when List.for_all
               (fun i ->
                 confirmed (fun c -> c.component = i && c.claimed = "proved"))
               (List.init k Fun.id) ->
          `Proved
      | _ -> `Unknown
  in
  let ok =
    (match verdict with `Unknown -> false | `Proved | `Disproved -> true)
    && List.for_all
         (fun c -> match c.status with Rejected _ -> false | _ -> true)
         components
  in
  { net_hash; components; total = !total; verdict; ok }

let render r =
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "audit of network %s\n" r.net_hash);
  List.iter
    (fun c ->
      let s, why =
        match c.status with
        | Confirmed -> ("CONFIRMED", c.detail)
        | Rejected m -> ("REJECTED", m)
        | Unverified m -> ("unverified", m)
      in
      Buffer.add_string b
        (Printf.sprintf "  component %d: claimed %s — %s%s\n" c.component
           c.claimed s
           (if why = "" then "" else " (" ^ why ^ ")")))
    r.components;
  Buffer.add_string b
    (Printf.sprintf "verdict: %s%s\n"
       (match r.verdict with
        | `Proved -> "Proved"
        | `Disproved -> "Disproved"
        | `Unknown -> "Unknown")
       (match r.total with
        | Some k -> Printf.sprintf " (%d component(s) expected)" k
        | None -> ""));
  Buffer.contents b

(* --- sharded campaigns ---------------------------------------------- *)

type shard_leaf = {
  leaf_index : int;
  leaf_hash : string;
  leaf_verdict : [ `Proved | `Disproved | `Unknown ];
  leaf_ok : bool;
  leaf_detail : string;
}

type shard_report = {
  shard_parent : string;
  shard_net : string;
  shard_leaves : shard_leaf array;
  shard_verdict : [ `Proved | `Disproved | `Unknown ];
  shard_ok : bool;
}

let shard_manifests ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      List.sort compare
        (List.filter
           (fun n -> Filename.check_suffix n ".shard")
           (Array.to_list names))

let run_shard ~net ~dir ~name =
  let net_hash = Nn.Io.content_hash net in
  match Journal.read_cert ~dir ~name with
  | Error m -> Error m
  | Ok blob -> (
      match Shard.of_string blob with
      | Error m -> Error m
      | Ok m ->
          if m.Shard.net_hash <> net_hash then
            Error "manifest is for a different network"
          else begin
            let parent = Shard.parent_hash m in
            if Shard.manifest_name ~prop_hash:parent <> name then
              Error "manifest name does not match its question"
            else
              match Shard.check m with
              | Error reason -> Error ("tiling rejected: " ^ reason)
              | Ok _tiles ->
                  let audit_leaf i leaf_hash =
                    let leaf_dir = Filename.concat dir leaf_hash in
                    match Journal.load ~dir:leaf_dir with
                    | [] ->
                        {
                          leaf_index = i;
                          leaf_hash;
                          leaf_verdict = `Unknown;
                          leaf_ok = false;
                          leaf_detail = "no certification directory";
                        }
                    | entries
                      when List.exists
                             (fun (e : Journal.entry) ->
                               e.Journal.prop_hash <> leaf_hash)
                             entries ->
                        (* [run] only checks internal consistency; the
                           shard audit additionally pins the directory
                           to the tile the manifest claims it covers. *)
                        {
                          leaf_index = i;
                          leaf_hash;
                          leaf_verdict = `Unknown;
                          leaf_ok = false;
                          leaf_detail = "leaf directory answers a different question";
                        }
                    | _ ->
                        let r = run ~net ~dir:leaf_dir in
                        {
                          leaf_index = i;
                          leaf_hash;
                          leaf_verdict = r.verdict;
                          leaf_ok = r.ok;
                          leaf_detail =
                            (if r.ok then ""
                             else
                               match
                                 List.find_opt
                                   (fun c ->
                                     match c.status with
                                     | Rejected _ -> true
                                     | _ -> false)
                                   r.components
                               with
                               | Some { status = Rejected why; _ } -> why
                               | _ -> "unsettled");
                        }
                  in
                  let leaves = Array.mapi audit_leaf m.Shard.leaf_hashes in
                  let disproved =
                    Array.exists
                      (fun l -> l.leaf_ok && l.leaf_verdict = `Disproved)
                      leaves
                  in
                  let all_proved =
                    Array.for_all
                      (fun l -> l.leaf_ok && l.leaf_verdict = `Proved)
                      leaves
                  in
                  let shard_verdict =
                    if disproved then `Disproved
                    else if all_proved then `Proved
                    else `Unknown
                  in
                  Ok
                    {
                      shard_parent = parent;
                      shard_net = net_hash;
                      shard_leaves = leaves;
                      shard_verdict;
                      shard_ok = disproved || all_proved;
                    }
          end)

let render_shard r =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "shard audit of question %s (network %s)\n" r.shard_parent
       r.shard_net);
  let count p = Array.fold_left (fun n l -> if p l then n + 1 else n) 0 in
  Buffer.add_string b
    (Printf.sprintf "  %d leaves: %d proved, %d disproved, %d unsettled\n"
       (Array.length r.shard_leaves)
       (count (fun l -> l.leaf_ok && l.leaf_verdict = `Proved) r.shard_leaves)
       (count (fun l -> l.leaf_ok && l.leaf_verdict = `Disproved) r.shard_leaves)
       (count (fun l -> not l.leaf_ok) r.shard_leaves));
  Array.iter
    (fun l ->
      if not l.leaf_ok then
        Buffer.add_string b
          (Printf.sprintf "  leaf %d (%s): %s\n" l.leaf_index l.leaf_hash
             l.leaf_detail))
    r.shard_leaves;
  Buffer.add_string b
    (Printf.sprintf "verdict: %s\n"
       (match r.shard_verdict with
        | `Proved -> "Proved"
        | `Disproved -> "Disproved"
        | `Unknown -> "Unknown"));
  Buffer.contents b

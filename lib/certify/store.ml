type verdict =
  | Proved
  | Disproved of { witness : float array; achieved : float }

type entry = {
  net_hash : string;
  prop_hash : string;
  property : Certificate.property;
  verdict : verdict;
  dir : string;
  certified : int;
}

type hit = { entry : entry; exact : bool }

type t = {
  root : string;
  lock : Mutex.t;
  exact : (string, entry) Hashtbl.t;
      (* prop_hash -> entry *)
  by_net : (string, (string, entry) Hashtbl.t) Hashtbl.t;
      (* net_hash -> prop_hash -> entry. Keyed twice so [record] is an
         O(1) replace: a flat per-net list needed an O(n) de-duplicating
         filter per record, which made recording n partition leaves
         O(n²). *)
  by_key : (string, (string, entry) Hashtbl.t) Hashtbl.t;
      (* Certificate.property_key -> net_hash -> entry: the same
         question asked about other networks (revalidation candidates
         after a retrain or weight perturbation). *)
}

let root t = t.root
let entry_dir t ~prop_hash = Filename.concat t.root prop_hash

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Rebuild one entry from its certification directory, trusting only
   what survives the existing integrity checks: journal lines carry
   their own checksum (a torn tail parses to nothing), certificates
   their own, and {!Journal.trusted} admits a settled component only on
   a certificate about the directory's own network and property. The
   last journal entry per component wins, mirroring [Audit.run] and a
   certified verify re-run in the same directory. *)
let recover_dir root name =
  let dir = Filename.concat root name in
  match Journal.load ~dir with
  | [] -> None
  | first :: _ as entries -> (
      let net_hash = first.Journal.net_hash in
      let prop_hash = first.Journal.prop_hash in
      if
        not
          (List.for_all
             (fun (e : Journal.entry) ->
               e.Journal.net_hash = net_hash && e.Journal.prop_hash = prop_hash)
             entries)
      then None (* mixed questions in one directory: never trust *)
      else
        (* An [unknown] entry can carry a certificate file — the emitter
           journals a failed self-audit that way — and is never
           settled. *)
        let settled =
          List.filter_map
            (fun e ->
              Result.to_option (Journal.trusted ~dir ~net_hash ~prop_hash e))
            (Journal.latest entries)
        in
        match settled with
        | [] -> None
        | c :: _ ->
            let property = c.Certificate.property in
            let disproof (c : Certificate.t) =
              match c.Certificate.body with
              | Certificate.Witness { input; achieved } ->
                  Some (Disproved { witness = input; achieved })
              | Certificate.Milp_tree _ | Certificate.Presolve _ -> None
            in
            let proved k =
              List.exists
                (fun (c : Certificate.t) ->
                  c.Certificate.component = k && disproof c = None)
                settled
            in
            let verdict =
              match List.find_map disproof settled with
              | Some d -> Some d
              | None
                when List.for_all proved
                       (List.init property.Certificate.components Fun.id) ->
                  Some Proved
              | None -> None
            in
            Option.map
              (fun verdict ->
                {
                  net_hash;
                  prop_hash;
                  property;
                  verdict;
                  dir;
                  certified = List.length settled;
                })
              verdict)

let sub_table tbl key =
  match Hashtbl.find_opt tbl key with
  | Some sub -> sub
  | None ->
      let sub = Hashtbl.create 16 in
      Hashtbl.add tbl key sub;
      sub

let add_locked t e =
  Hashtbl.replace t.exact e.prop_hash e;
  Hashtbl.replace (sub_table t.by_net e.net_hash) e.prop_hash e;
  Hashtbl.replace
    (sub_table t.by_key (Certificate.property_key e.property))
    e.net_hash e

let open_ ~dir =
  Journal.init dir;
  let t =
    {
      root = dir;
      lock = Mutex.create ();
      exact = Hashtbl.create 64;
      by_net = Hashtbl.create 8;
      by_key = Hashtbl.create 64;
    }
  in
  Array.iter
    (fun name ->
      match Sys.is_directory (Filename.concat dir name) with
      | true -> Option.iter (add_locked t) (recover_dir dir name)
      | false | (exception Sys_error _) -> ())
    (Sys.readdir dir);
  t

(* Subsumption. A proved box covers any contained box at any
   no-tighter threshold; a disproving witness refutes any box that
   contains it at any threshold its replayed output still beats. Both
   implications are checkable without a solver, which is what makes
   serving them from the cache honest: the backing certificates replay
   for the stored property, and the step from stored to queried
   property is pure interval arithmetic. *)
let box_subset inner outer =
  Array.length inner = Array.length outer
  && Array.for_all2
       (fun (lo', hi') (lo, hi) -> lo <= lo' && hi' <= hi)
       inner outer

let point_in_box x box =
  Array.length x = Array.length box
  && Array.for_all2 (fun v (lo, hi) -> lo <= v && v <= hi) x box

let subsumes (e : entry) (q : Certificate.property) =
  e.property.Certificate.components = q.Certificate.components
  && e.property.Certificate.bound_mode = q.Certificate.bound_mode
  &&
  match e.verdict with
  | Proved ->
      q.Certificate.threshold >= e.property.Certificate.threshold
      && box_subset q.Certificate.box e.property.Certificate.box
  | Disproved { witness; achieved } ->
      achieved > q.Certificate.threshold
      && point_in_box witness q.Certificate.box

let lookup ?(exact_only = false) t ~net_hash property =
  let prop_hash = Certificate.property_hash ~net_hash property in
  locked t (fun () ->
      match Hashtbl.find_opt t.exact prop_hash with
      | Some entry -> Some { entry; exact = true }
      | None ->
          if exact_only then None
          else
            Option.map
              (fun entry -> { entry; exact = false })
              (match Hashtbl.find_opt t.by_net net_hash with
               | None -> None
               | Some sub ->
                   let found = ref None in
                   (try
                      Hashtbl.iter
                        (fun _ e ->
                          if subsumes e property then begin
                            found := Some e;
                            raise Exit
                          end)
                        sub
                    with Exit -> ());
                   !found))

let record t ~net_hash property =
  let prop_hash = Certificate.property_hash ~net_hash property in
  match recover_dir t.root prop_hash with
  | None -> None
  | Some e ->
      (* The directory name is the key; a directory whose contents hash
         to a different question is never indexed under it. *)
      if e.prop_hash <> prop_hash || e.net_hash <> net_hash then None
      else begin
        locked t (fun () -> add_locked t e);
        Some e
      end

let size t = locked t (fun () -> Hashtbl.length t.exact)

let net_entries t ~net_hash =
  locked t (fun () ->
      match Hashtbl.find_opt t.by_net net_hash with
      | None -> 0
      | Some sub -> Hashtbl.length sub)

let revalidation_candidates t ~net_hash property =
  let key = Certificate.property_key property in
  locked t (fun () ->
      match Hashtbl.find_opt t.by_key key with
      | None -> []
      | Some sub ->
          Hashtbl.fold
            (fun nh e acc -> if nh = net_hash then acc else e :: acc)
            sub [])

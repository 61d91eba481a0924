(* Domain plumbing shared by the independent-work fan-outs (OBBT probes,
   per-component queries, partition leaves): a generic work-stealing map
   over OCaml 5 domains. *)

(* [map ~cores ~init f items] applies [f state item] to every item,
   work-stealing over a shared atomic index. [init] runs once per domain
   to build domain-private scratch state (e.g. an LP copy). Results come
   back in input order; the first exception is re-raised after all
   domains have been joined. *)
let map ?(cores = 1) ~init f items =
  let n = Array.length items in
  if n = 0 then [||]
  else begin
    let cores = max 1 (min cores n) in
    if cores = 1 then begin
      let state = init () in
      Array.map (f state) items
    end
    else begin
      let results = Array.make n None in
      let next = Atomic.make 0 in
      let failure = Atomic.make None in
      let record e = ignore (Atomic.compare_and_set failure None (Some e)) in
      let work () =
        let state = init () in
        let rec go () =
          if Atomic.get failure = None then begin
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              (match f state items.(i) with
               | r -> results.(i) <- Some r
               | exception e -> record e);
              go ()
            end
          end
        in
        go ()
      in
      let domains = Array.init (cores - 1) (fun _ -> Domain.spawn work) in
      (* Every spawned domain must be joined exactly once, whatever
         raises where: [init] throwing on the coordinating domain used
         to skip the joins entirely (leaking the domains), and a join
         re-raising a worker's [init] exception used to abandon the
         domains after it. Record the first exception, join everything,
         re-raise at the end. *)
      Fun.protect
        ~finally:(fun () ->
          Array.iter
            (fun d ->
              match Domain.join d with () -> () | exception e -> record e)
            domains)
        (fun () -> match work () with () -> () | exception e -> record e);
      (match Atomic.get failure with Some e -> raise e | None -> ());
      Array.map (function Some r -> r | None -> assert false) results
    end
  end

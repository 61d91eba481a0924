(* Domain plumbing shared by the branch & bound pool ({!Solver.solve})
   and the independent-LP fan-outs (OBBT probes, per-component queries,
   partition leaves): core-count and portfolio parsing, and a generic
   work-stealing map over OCaml 5 domains. *)

let available_cores () = Domain.recommended_domain_count ()

let cores_of_string s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some n
  | Some _ | None -> None

let cores_of_env () =
  match Sys.getenv_opt "DEPNN_CORES" with
  | None -> 1
  | Some s -> (
      match cores_of_string s with
      | Some n -> n
      | None ->
          (* Silently coercing garbage to 1 once sent misconfigured CI
             jobs into sequential runs with nobody the wiser. *)
          Printf.eprintf
            "depnn: ignoring malformed DEPNN_CORES=%S (want a positive \
             integer); running on 1 core\n%!"
            s;
          1)

let portfolio_of_string s =
  match String.index_opt s ':' with
  | None -> None
  | Some i -> (
      let divers = String.sub s 0 i
      and provers = String.sub s (i + 1) (String.length s - i - 1) in
      match
        ( int_of_string_opt (String.trim divers),
          int_of_string_opt (String.trim provers) )
      with
      | Some d, Some p when d >= 0 && p >= 0 && d + p >= 1 -> Some (d, p)
      | _ -> None)

let portfolio_of_env () =
  match Sys.getenv_opt "DEPNN_PORTFOLIO" with
  | None -> None
  | Some s -> (
      match portfolio_of_string s with
      | Some split -> Some split
      | None ->
          Printf.eprintf
            "depnn: ignoring malformed DEPNN_PORTFOLIO=%S (want D:P with \
             D + P >= 1); using the default split\n%!"
            s;
          None)

(* {1 Generic domain fan} *)

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

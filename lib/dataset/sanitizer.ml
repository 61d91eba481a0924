type rule = {
  rule_name : string;
  check : features:Linalg.Vec.t -> target:Linalg.Vec.t -> string option;
}

let risky_left_rule =
  {
    rule_name = "no-risky-left-move";
    check =
      (fun ~features ~target ->
        if Highway.Risk.risky_left_move ~features ~lat_velocity:target.(0) then
          Highway.Risk.describe ~features ~lat_velocity:target.(0)
        else None);
  }

let risky_right_rule =
  {
    rule_name = "no-risky-right-move";
    check =
      (fun ~features ~target ->
        if Highway.Risk.risky_right_move ~features ~lat_velocity:target.(0)
        then Highway.Risk.describe ~features ~lat_velocity:target.(0)
        else None);
  }

let extreme_action_rule =
  let max_lat = 4.0 and max_lon = 6.0 in
  {
    rule_name = "plausible-action";
    check =
      (fun ~features:_ ~target ->
        if Float.abs target.(0) > max_lat then
          Some (Printf.sprintf "lateral velocity %.2f m/s beyond %.1f" target.(0) max_lat)
        else if Float.abs target.(1) > max_lon then
          Some
            (Printf.sprintf "longitudinal acceleration %.2f m/s2 beyond %.1f"
               target.(1) max_lon)
        else None);
  }

let in_domain_rule =
  {
    rule_name = "in-sensor-domain";
    check =
      (fun ~features ~target:_ ->
        if Interval.Box.contains Highway.Features.domain features then None
        else begin
          (* Name the first offending feature for the audit log. *)
          let offender = ref None in
          Array.iteri
            (fun i x ->
              if !offender = None
                 && not (Interval.contains Highway.Features.domain.(i) x)
              then offender := Some (i, x))
            features;
          match !offender with
          | Some (i, x) ->
              Some
                (Printf.sprintf "feature %s = %g outside %s"
                   Highway.Features.names.(i) x
                   (Format.asprintf "%a" Interval.pp Highway.Features.domain.(i)))
          | None -> Some "dimension mismatch"
        end);
  }

let default_rules =
  [ in_domain_rule; extreme_action_rule; risky_left_rule; risky_right_rule ]

type rejection = { index : int; rule_name : string; reason : string }

type report = { total : int; accepted : int; rejections : rejection list }

let sanitize ?(rules = default_rules) dataset =
  let rejections = ref [] in
  let keep i =
    let features = dataset.Dataset.inputs.(i)
    and target = dataset.Dataset.targets.(i) in
    let rec apply = function
      | [] -> true
      | rule :: rest -> (
          match rule.check ~features ~target with
          | Some reason ->
              rejections :=
                { index = i; rule_name = rule.rule_name; reason } :: !rejections;
              false
          | None -> apply rest)
    in
    apply rules
  in
  let clean = Dataset.filteri keep dataset in
  let rejections = List.rev !rejections in
  ( clean,
    {
      total = Dataset.size dataset;
      accepted = Dataset.size clean;
      rejections;
    } )

let render_report r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "data audit: %d samples, %d accepted, %d rejected\n"
       r.total r.accepted (List.length r.rejections));
  let by_rule = Hashtbl.create 8 in
  List.iter
    (fun rej ->
      let count = try Hashtbl.find by_rule rej.rule_name with Not_found -> 0 in
      Hashtbl.replace by_rule rej.rule_name (count + 1))
    r.rejections;
  Hashtbl.iter
    (fun rule count ->
      Buffer.add_string buf (Printf.sprintf "  rule %-22s rejected %d\n" rule count))
    by_rule;
  let shown = ref 0 in
  List.iter
    (fun rej ->
      if !shown < 5 then begin
        incr shown;
        Buffer.add_string buf
          (Printf.sprintf "  e.g. sample %d: %s\n" rej.index rej.reason)
      end)
    r.rejections;
  Buffer.contents buf

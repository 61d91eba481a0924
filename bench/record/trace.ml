(* Spans and counters recorded from the benchmark around calls into each
   layer's public functions. Everything stays in memory until the run
   ends; the untraced run never creates a [t], so it pays nothing. *)

type span = {
  id : int;
  workload : string;
  op : int;          (** operation index; -1 for set-up *)
  name : string;     (** "<layer>.<call>" *)
  parent : int option;
  start : float;     (** seconds since the trace began *)
  stop : float;
}

type t = {
  origin : float;
  mutable current : string;  (** workload new spans belong to *)
  mutable next_id : int;
  mutable spans : span list;  (** newest first *)
  counters : (string * string, float * int) Hashtbl.t;
      (** (workload, key) -> (sum, samples) *)
}

let create () =
  {
    origin = Linalg.Mclock.now ();
    current = "";
    next_id = 0;
    spans = [];
    counters = Hashtbl.create 32;
  }

let set_workload t w = t.current <- w

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Run [f id] inside a span; [id] lets [f] open child spans. *)
let span t ~op ?parent name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let start = Linalg.Mclock.now () -. t.origin in
  let finish () =
    let stop = Linalg.Mclock.now () -. t.origin in
    t.spans <- { id; workload = t.current; op; name; parent; start; stop } :: t.spans
  in
  Fun.protect ~finally:finish (fun () -> f id)

let add t key v =
  let k = (t.current, key) in
  let sum, n = Option.value (Hashtbl.find_opt t.counters k) ~default:(0.0, 0) in
  Hashtbl.replace t.counters k (sum +. v, n + 1)

let counter_sum t ~workload key =
  Option.fold ~none:0.0 ~some:fst (Hashtbl.find_opt t.counters (workload, key))

(* Mean and sample count of a counter. *)
let counter_mean t ~workload key =
  match Hashtbl.find_opt t.counters (workload, key) with
  | Some (sum, n) when n > 0 -> Some (sum /. float_of_int n, n)
  | Some _ | None -> None

let spans_of t ~workload name =
  List.filter (fun s -> s.workload = workload && s.name = name) t.spans

let duration s = s.stop -. s.start

(* Mean duration of the named spans, in seconds. *)
let mean_s t ~workload name =
  match spans_of t ~workload name with
  | [] -> None
  | ss ->
      Some
        (List.fold_left (fun acc s -> acc +. duration s) 0.0 ss
        /. float_of_int (List.length ss))

let total_s t ~workload name =
  List.fold_left (fun acc s -> acc +. duration s) 0.0 (spans_of t ~workload name)

(* Sum over operations of the named spans' durations, divided by the
   number of operations that had at least one: a per-operation total
   for calls made once per component. *)
let per_op_s t ~workload name =
  match spans_of t ~workload name with
  | [] -> None
  | ss ->
      let ops = List.sort_uniq compare (List.map (fun s -> s.op) ss) in
      Some
        (List.fold_left (fun acc s -> acc +. duration s) 0.0 ss
        /. float_of_int (List.length ops))

(* Self time: a span's duration minus the part of it its children
   cover (children are merged first, so overlapping children are not
   subtracted twice). *)
let self_times t =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Option.iter (fun p -> Hashtbl.add children p (s.start, s.stop)) s.parent)
    t.spans;
  List.map
    (fun s ->
      let kids = List.sort compare (Hashtbl.find_all children s.id) in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0.0, s.start) kids
      in
      (s, duration s -. covered))
    t.spans

type layer_total = { layer : string; total_s : float; self_s : float; calls : int }

let layer_totals t ~workload =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      if s.workload = workload then begin
        let l = layer_of s.name in
        let total, self', calls =
          Option.value (Hashtbl.find_opt acc l) ~default:(0.0, 0.0, 0)
        in
        Hashtbl.replace acc l (total +. duration s, self' +. self, calls + 1)
      end)
    (self_times t);
  Hashtbl.fold
    (fun layer (total_s, self_s, calls) l -> { layer; total_s; self_s; calls } :: l)
    acc []
  |> List.sort (fun a b -> Float.compare b.total_s a.total_s)

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("workload", Json.Str s.workload);
                    ("op", Json.Num (float_of_int s.op));
                    ("id", Json.Num (float_of_int s.id));
                    ( "parent",
                      match s.parent with
                      | Some p -> Json.Num (float_of_int p)
                      | None -> Json.Null );
                    ("name", Json.Str s.name);
                    ("layer", Json.Str (layer_of s.name));
                    ("start_us", Json.Num (Float.round (s.start *. 1e6)));
                    ("end_us", Json.Num (Float.round (s.stop *. 1e6)));
                  ]));
          output_char oc '\n')
        (List.rev t.spans))

(* Benchmark of record: four seeded workloads through the public APIs of
   verify, certify, serve and fault, with end-to-end metrics from an
   untraced run and per-layer metrics from a separate traced run.

     main.exe run [--seed N] [--workload W] [--repeats K] [--trace FILE]
                  [--json FILE] [--quick]
         every workload (or W) at its full operation count, each run in
         its own child process so it gets a fresh GC heap and its own
         peak RSS; prints every metric by name with unit and sample
         count. --repeats K prints the median, IQR, min and N per metric
         and flags a spread above the metric's bound in BENCHMARK.json.
         --trace FILE adds one traced child and writes its spans to FILE
         as JSON lines.

     main.exe one --workload W [--seed N] [--seconds S] [--trace 0|1]
                  [--quick] [--spans FILE]
         untraced: workload W in this process, for S seconds or, without
         --seconds, for its full operation count. Traced (--trace 1):
         every workload in turn, each for S/4 seconds or its full
         operation count, since no one workload reaches every layer; W
         only names the run. Before the last line, one JSON line per
         workload holds its full report; the last line of standard
         output is one JSON object with "correct", "attempted", "failed"
         and "metrics": the end-to-end metrics BENCHMARK.json lists, or
         with --trace 1 its per-layer metrics (everything measured when
         there is no BENCHMARK.json in the working directory).

     main.exe rank W
         for table2-max or certify-audit: the operation once on every
         corpus scene, printing the rank table (rank-W.txt) the workload
         walks its corpus by.

   Run from the repository root:
     dune exec --root . bench/record/main.exe -- run --seed 1

   Exit status: 0 when every answer check held, 1 on a wrong answer, 2
   on a usage error. A failed operation (time-out, Unknown, refusal,
   audit not ok) is counted, not fatal. *)

module W = Workloads

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* The metric catalogue of BENCHMARK.json in the working directory:
   (name, bound) for each entry of [section] ("end_to_end" or
   "per_layer", whose entries have no bound). [None] without a readable
   file. *)
let catalogue section =
  match Option.map Json.parse (read_file "BENCHMARK.json") with
  | Some (Ok doc) -> (
      match Json.member section doc with
      | Some (Json.Arr items) ->
          Some
            (List.filter_map
               (fun item ->
                 match (Json.member "name" item, Json.member "bound" item) with
                 | Some (Json.Str n), Some (Json.Num b) -> Some (n, Some b)
                 | Some (Json.Str n), _ -> Some (n, None)
                 | _ -> None)
               items)
      | _ -> None)
  | Some (Error _) | None -> None

(* {1 Provenance} *)

let first_line s = List.hd (String.split_on_char '\n' s)

let cpu_model () =
  match read_file "/proc/cpuinfo" with
  | None -> "unknown"
  | Some text -> (
      let model =
        List.find_map
          (fun line ->
            match String.index_opt line ':' with
            | Some i when String.trim (String.sub line 0 i) = "model name" ->
                Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
            | _ -> None)
          (String.split_on_char '\n' text)
      in
      match model with Some m -> m | None -> "unknown")

(* The commit of the enclosing git checkout, read from .git without
   running git; "unknown" outside one (an exported tree). *)
let git_commit () =
  let rec find dir depth =
    let git = Filename.concat dir ".git" in
    if Sys.file_exists git && Sys.is_directory git then Some git
    else
      let parent = Filename.dirname dir in
      if parent = dir || depth = 0 then None else find parent (depth - 1)
  in
  match find (Sys.getcwd ()) 8 with
  | None -> "unknown"
  | Some git -> (
      match Option.map (fun s -> String.trim (first_line s)) (read_file (Filename.concat git "HEAD")) with
      | None -> "unknown"
      | Some head when String.starts_with ~prefix:"ref: " head -> (
          let ref_ = String.sub head 5 (String.length head - 5) in
          match read_file (Filename.concat git ref_) with
          | Some hash -> String.trim hash
          | None -> (
              let packed = Option.value (read_file (Filename.concat git "packed-refs")) ~default:"" in
              let hit =
                List.find_opt
                  (fun l -> String.ends_with ~suffix:(" " ^ ref_) l)
                  (String.split_on_char '\n' packed)
              in
              match hit with
              | Some l -> List.hd (String.split_on_char ' ' l)
              | None -> "unknown"))
      | Some hash -> hash)

let provenance ~seed =
  [
    ("host", Unix.gethostname ());
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("cpu", cpu_model ());
    ("ocaml", Sys.ocaml_version);
    ("commit", git_commit ());
    ("seed", string_of_int seed);
  ]

let render_provenance p =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) p)

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let from_proc =
    Option.bind (read_file "/proc/self/status") (fun text ->
        List.find_map
          (fun line ->
            if String.starts_with ~prefix:"VmHWM:" line then
              Scanf.sscanf_opt (String.sub line 6 (String.length line - 6)) " %d kB"
                (fun kb -> float_of_int kb /. 1024.0)
            else None)
          (String.split_on_char '\n' text))
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.0

(* {1 Reports} *)

type report = {
  workload : string;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : W.metric list;   (** end-to-end, plus extras *)
  layers : W.metric list;    (** traced runs only *)
  layer_totals : Trace.layer_total list;
  notes : string list;
  wrong : string list;
  prov : (string * string) list;  (** host, nproc, CPU, OCaml, commit, seed *)
}

let end_to_end_metrics ~setup_times (o : W.outcome) =
  let lat = Array.map W.ms o.W.latencies in
  let n = Array.length lat in
  let pct p = if n = 0 then nan else Stats.percentile lat p in
  let m = W.metric in
  let p50 name xs =
    if Array.length xs = 0 then []
    else [ m name "ms" (Stats.median (Array.map W.ms xs)) ~n:(Array.length xs) ]
  in
  List.concat
    [
      [
        m "setup_s" "s" (Stats.median setup_times) ~n:(Array.length setup_times);
        m "ops_per_s" "1/s" (float_of_int n /. o.W.phase_s) ~n;
        m "op_p50_ms" "ms" (pct 50.0) ~n;
        m "op_p90_ms" "ms" (pct 90.0) ~n;
        m "peak_rss_mb" "MiB" (peak_rss_mb ()) ~n:1;
        m "failed_frac" "ratio" (W.ratio (float_of_int o.W.failed) (float_of_int n)) ~n;
      ];
      (* The highest percentile the sample supports, when above p90. *)
      (match Stats.tail lat with
       | Some t when t.Stats.permille > 900 ->
           [ m (Printf.sprintf "op_%s_ms" (Stats.tail_name t.Stats.permille)) "ms" t.Stats.value ~n ]
       | Some _ | None -> []);
      p50 "hit_p50_ms" o.W.hit_latencies;
      p50 "miss_p50_ms" o.W.miss_latencies;
    ]

let report_of ~prov ~traced ~setup_times ~layers ~layer_totals (o : W.outcome) =
  {
    workload = o.W.spec.W.name;
    traced;
    correct = o.W.wrong = [];
    attempted = Array.length o.W.latencies;
    failed = o.W.failed;
    metrics = end_to_end_metrics ~setup_times o;
    layers;
    layer_totals;
    notes = o.W.notes;
    wrong = o.W.wrong;
    prov;
  }

let json_of_metric (x : W.metric) =
  Json.Obj [ ("value", Json.Num x.W.value); ("unit", Json.Str x.W.unit); ("n", Json.Num (float_of_int x.W.n)) ]

let json_of_report (r : report) =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("provenance", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) r.prov));
      ("traced", Json.Bool r.traced);
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("metrics", Json.Obj (List.map (fun (x : W.metric) -> (x.W.name, json_of_metric x)) r.metrics));
      ("layers", Json.Obj (List.map (fun (x : W.metric) -> (x.W.name, json_of_metric x)) r.layers));
      ( "layer_time_s",
        Json.Obj
          (List.map
             (fun l ->
               ( l.Trace.layer,
                 Json.Obj
                   [
                     ("total", Json.Num l.Trace.total_s);
                     ("self", Json.Num l.Trace.self_s);
                     ("calls", Json.Num (float_of_int l.Trace.calls));
                   ] ))
             r.layer_totals) );
      ("notes", Json.Arr (List.map (fun s -> Json.Str s) r.notes));
      ("wrong", Json.Arr (List.map (fun s -> Json.Str s) r.wrong));
    ]

(* The inverse of [json_of_report]; [None] for any other JSON value. A
   metric whose value printed as null (nothing to measure) is left
   out. *)
let report_of_json j =
  let field k = Json.member k j in
  let obj k = match field k with Some (Json.Obj kvs) -> kvs | _ -> [] in
  let strings k =
    match field k with
    | Some (Json.Arr xs) -> List.filter_map (function Json.Str s -> Some s | _ -> None) xs
    | _ -> []
  in
  let metrics k =
    List.filter_map
      (fun (name, m) ->
        match (Json.member "value" m, Json.member "unit" m, Json.member "n" m) with
        | Some (Json.Num value), Some (Json.Str unit), Some (Json.Num n) ->
            Some { W.name; unit; value; n = int_of_float n }
        | _ -> None)
      (obj k)
  in
  let layer_totals =
    List.filter_map
      (fun (layer, v) ->
        match (Json.member "total" v, Json.member "self" v, Json.member "calls" v) with
        | Some (Json.Num total_s), Some (Json.Num self_s), Some (Json.Num calls) ->
            Some { Trace.layer; total_s; self_s; calls = int_of_float calls }
        | _ -> None)
      (obj "layer_time_s")
  in
  match (field "workload", field "traced", field "correct", field "attempted", field "failed") with
  | ( Some (Json.Str workload),
      Some (Json.Bool traced),
      Some (Json.Bool correct),
      Some (Json.Num attempted),
      Some (Json.Num failed) ) ->
      Some
        {
          workload;
          traced;
          correct;
          attempted = int_of_float attempted;
          failed = int_of_float failed;
          metrics = metrics "metrics";
          layers = metrics "layers";
          layer_totals;
          notes = strings "notes";
          wrong = strings "wrong";
          prov = List.filter_map (function k, Json.Str v -> Some (k, v) | _ -> None) (obj "provenance");
        }
  | _ -> None

let print_metric ?(indent = "  ") (x : W.metric) =
  Printf.printf "%s%-34s %14.6g %-8s N=%d\n" indent x.W.name x.W.value x.W.unit x.W.n

let print_layer_totals ~indent (r : report) =
  List.iter
    (fun l ->
      Printf.printf "%s%-10s %10.4f %10.4f  %d spans\n" indent l.Trace.layer l.Trace.total_s
        l.Trace.self_s l.Trace.calls)
    r.layer_totals

let print_report (r : report) =
  let why = Option.fold ~none:"" ~some:(fun s -> s.W.why) (W.find r.workload) in
  Printf.printf "workload %s (%s): %s\n" r.workload (if r.traced then "traced" else "untraced") why;
  List.iter (Printf.printf "  %s\n") r.notes;
  List.iter (Printf.printf "  WRONG ANSWER: %s\n") r.wrong;
  Printf.printf "  %d operations, %d failed\n" r.attempted r.failed;
  List.iter print_metric r.metrics;
  if r.traced then begin
    Printf.printf "  per-layer metrics:\n";
    List.iter (print_metric ~indent:"    ") r.layers;
    Printf.printf "  layer time (total / self, s):\n";
    print_layer_totals ~indent:"    " r
  end

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (x : W.metric) ->
                  (x.W.name, Json.Obj [ ("value", Json.Num x.W.value); ("unit", Json.Str x.W.unit) ]))
                metrics) );
       ])

(* {1 One run} *)

let scratch_root = ".bench_record"

(* Set-ups per untraced run: their median is setup_s, so work moved
   into set-up shows without one slow set-up deciding the number. *)
let setup_repeats = 5

(* Workload [spec], untraced: set up [setup_repeats] times, then run the
   last instance. Returns the outcome and the set-up times. *)
let measure ctx (spec : W.spec) ~budget_s ~max_ops =
  let repeats = if ctx.W.quick then 1 else setup_repeats in
  let setup_times = Array.make repeats 0.0 in
  let inst = ref None in
  for k = 0 to repeats - 1 do
    Option.iter W.close !inst;
    let i, s = W.setup ctx spec ~index:k in
    inst := Some i;
    setup_times.(k) <- s
  done;
  let inst = Option.get !inst in
  let o = Fun.protect ~finally:(fun () -> W.close inst) (fun () -> W.run ctx inst spec ~budget_s ~max_ops) in
  (o, setup_times)

(* Every workload traced in turn, each with its own budget. *)
let trace_all ctx ~prov ~budget =
  let t = Option.get ctx.W.trace in
  List.map
    (fun (spec : W.spec) ->
      Trace.set_workload t spec.W.name;
      let budget_s, max_ops = budget spec in
      let inst, setup_s = W.setup ctx spec ~index:0 in
      let o = Fun.protect ~finally:(fun () -> W.close inst) (fun () -> W.run ctx inst spec ~budget_s ~max_ops) in
      report_of ~prov ~traced:true ~setup_times:[| setup_s |]
        ~layers:(W.setup_layers t spec @ o.W.layers)
        ~layer_totals:(Trace.layer_totals t ~workload:spec.W.name)
        o)
    W.all

(* Each per-layer metric once, from the first workload (in [W.all]
   order) that measures it. *)
let merged_layers reports =
  List.fold_left
    (fun acc (r : report) ->
      acc
      @ List.filter
          (fun (x : W.metric) -> not (List.exists (fun (y : W.metric) -> y.W.name = x.W.name) acc))
          r.layers)
    [] reports

(* Runs [f scratch] with a private scratch directory under
   [scratch_root], removed afterwards. *)
let with_scratch f =
  let scratch = Filename.concat scratch_root (string_of_int (Unix.getpid ())) in
  W.mkdir_p scratch;
  let cleanup () =
    W.rm_rf scratch;
    try Unix.rmdir scratch_root with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () -> f scratch)

let one ~(spec : W.spec) ~seed ~seconds ~traced ~quick ~spans =
  with_scratch @@ fun scratch ->
  let prov = provenance ~seed in
  Printf.printf "provenance: %s\n%!" (render_provenance prov);
  let full_size (s : W.spec) = (infinity, if quick then s.W.quick_ops else s.W.ops) in
  let reports =
    if traced then
      let ctx = { W.seed; quick; scratch; trace = Some (Trace.create ()); ranking = false } in
      let share = Option.map (fun s -> s /. float_of_int (List.length W.all)) seconds in
      let reports =
        trace_all ctx ~prov ~budget:(fun s ->
            match share with Some b -> (b, max_int) | None -> full_size s)
      in
      Option.iter (Trace.write_jsonl (Option.get ctx.W.trace)) spans;
      reports
    else
      let ctx = { W.seed; quick; scratch; trace = None; ranking = false } in
      let budget_s, max_ops =
        match seconds with Some s -> (s, max_int) | None -> full_size spec
      in
      let o, setup_times = measure ctx spec ~budget_s ~max_ops in
      [ report_of ~prov ~traced:false ~setup_times ~layers:[] ~layer_totals:[] o ]
  in
  List.iter print_report reports;
  List.iter (fun r -> print_endline (Json.to_string (json_of_report r))) reports;
  let correct = List.for_all (fun (r : report) -> r.correct) reports in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  (* The result line carries the metrics BENCHMARK.json lists, in its
     order; without the file, everything measured. *)
  let measured = if traced then merged_layers reports else (List.hd reports).metrics in
  let chosen =
    match catalogue (if traced then "per_layer" else "end_to_end") with
    | Some names ->
        List.filter_map
          (fun (name, _) -> List.find_opt (fun (x : W.metric) -> x.W.name = name) measured)
          names
    | None -> measured
  in
  print_endline
    (result_line ~correct
       ~attempted:(sum (fun r -> r.attempted))
       ~failed:(sum (fun r -> r.failed))
       chosen);
  correct

(* {1 Rank tables} *)

(* Runs [spec]'s operation once on every scene of the corpus, in
   recording order, and prints the rank table the workload walks: one
   "index cost_ms" line per scene, cheapest first. *)
let rank (spec : W.spec) =
  let table =
    match spec.W.kind with
    | W.Table2_max | W.Certify_audit -> "rank-" ^ spec.W.name ^ ".txt"
    | W.Serve_mixed | W.Fault_campaign ->
        Printf.eprintf "%s walks no rank table\n" spec.W.name;
        exit 2
  in
  let o =
    with_scratch @@ fun scratch ->
    let ctx = { W.seed = 1; quick = false; scratch; trace = None; ranking = true } in
    let inst, _ = W.setup ctx spec ~index:0 in
    Fun.protect
      ~finally:(fun () -> W.close inst)
      (fun () ->
        W.run ctx inst spec ~budget_s:infinity ~max_ops:(Array.length inst.W.corpus))
  in
  if o.W.wrong <> [] || o.W.failed > 0 then begin
    List.iter prerr_endline o.W.wrong;
    Printf.eprintf "%d operations failed\n" o.W.failed;
    exit 1
  end;
  let order = Array.mapi (fun i t -> (t, i)) o.W.latencies in
  Array.sort compare order;
  Printf.printf
    "# %s: cost of each corpus scene's operation in ms, cheapest first; one run\n\
     # on %s, %s. Regenerate from the repository root with\n\
     #   dune exec --root . bench/record/main.exe -- rank %s > bench/record/%s\n"
    spec.W.name (cpu_model ()) (git_commit ()) spec.W.name table;
  Array.iter (fun (t, i) -> Printf.printf "%d %.2f\n" i (W.ms t)) order

(* {1 Every workload, each in a child process} *)

(* Runs [main.exe args] and returns its exit status and the reports it
   printed. Its other output goes to our standard error as it arrives;
   our standard output carries the summary. *)
let run_child args =
  let exe = Sys.executable_name in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let rec read acc =
    match In_channel.input_line ic with
    | None -> List.rev acc
    | Some line -> (
        match Option.bind (Result.to_option (Json.parse line)) report_of_json with
        | Some r -> read (r :: acc)
        | None ->
            prerr_endline line;
            read acc)
  in
  let reports = read [] in
  close_in ic;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 255
  in
  (code, reports)

let find_metric name (r : report) =
  List.find_opt (fun (x : W.metric) -> x.W.name = name) (r.metrics @ r.layers)

let run ~seed ~specs ~repeats ~trace_file ~json_file ~quick =
  let bounds =
    List.filter_map
      (fun (n, b) -> Option.map (fun b -> (n, b)) b)
      (Option.value (catalogue "end_to_end") ~default:[])
  in
  let prov = provenance ~seed in
  let ok = ref true in
  let child args =
    let args = args @ [ "--seed"; string_of_int seed ] @ if quick then [ "--quick" ] else [] in
    let code, reports = run_child args in
    if code <> 0 || reports = [] || not (List.for_all (fun (r : report) -> r.correct) reports)
    then begin
      ok := false;
      Printf.printf "%s: exited with status %d\n%!" (String.concat " " args) code
    end;
    reports
  in
  let runs =
    List.map
      (fun (spec : W.spec) ->
        ( spec,
          List.concat
            (List.init repeats (fun _ -> child [ "one"; "--workload"; spec.W.name ])) ))
      specs
  in
  let traced =
    match trace_file with
    | None -> []
    | Some f ->
        child [ "one"; "--workload"; (List.hd specs).W.name; "--trace"; "1"; "--spans"; f ]
  in
  Printf.printf "\nbenchmark of record — %s\n" (render_provenance prov);
  List.iter
    (fun ((spec : W.spec), runs) ->
      Printf.printf "\n%s (I4x%d): %s\n" spec.W.name spec.W.width spec.W.why;
      (match runs with
       | r :: _ ->
           List.iter (Printf.printf "  %s\n") r.notes;
           Printf.printf "  %d run%s, %d operations each, %d failed in total\n"
             (List.length runs)
             (if List.length runs = 1 then "" else "s")
             r.attempted
             (List.fold_left (fun acc (r : report) -> acc + r.failed) 0 runs)
       | [] -> Printf.printf "  no successful run\n");
      match runs with
      | [ r ] -> List.iter print_metric r.metrics
      | _ :: _ :: _ as runs ->
          Printf.printf "  %-18s %12s %10s %12s %-6s %4s\n" "metric" "median" "IQR" "min" "unit" "N";
          List.iter
            (fun (x : W.metric) ->
              let values =
                Array.of_list
                  (List.filter_map (fun r -> Option.map (fun (m : W.metric) -> m.W.value) (find_metric x.W.name r)) runs)
              in
              let spread = Stats.relative_spread values in
              let flag =
                match List.assoc_opt x.W.name bounds with
                | Some b when spread > b ->
                    Printf.sprintf "  SPREAD %.1f%% > bound %.0f%%" (100.0 *. spread) (100.0 *. b)
                | Some _ | None -> ""
              in
              Printf.printf "  %-18s %12.6g %10.4g %12.6g %-6s %4d%s\n" x.W.name (Stats.median values)
                (Stats.iqr values) (Stats.minimum values) x.W.unit (Array.length values) flag)
            (List.hd runs).metrics
      | [] -> ())
    runs;
  if traced <> [] then Printf.printf "\nper-layer metrics (one traced run of every workload)\n";
  List.iter
    (fun (t : report) ->
      Printf.printf "\n%s, traced: %d operations\n" t.workload t.attempted;
      List.iter (print_metric ~indent:"    ") t.layers;
      Printf.printf "  layer time (total / self, s):\n";
      print_layer_totals ~indent:"    " t;
      (match List.find_opt (fun ((s : W.spec), _) -> s.W.name = t.workload) runs with
       | Some (_, u :: _) ->
           List.iter
             (fun name ->
               match (find_metric name u, find_metric name t) with
               | Some u, Some t ->
                   Printf.printf "  trace overhead: %s %.4g untraced vs %.4g traced (%+.1f%%)\n" name
                     u.W.value t.W.value
                     (100.0 *. ((t.W.value /. u.W.value) -. 1.0))
               | _ -> ())
             [ "ops_per_s"; "op_p50_ms" ]
       | Some (_, []) | None -> ());
      if t.workload = W.table2.W.name then
        match
          List.map
            (fun n -> Option.map (fun (m : W.metric) -> m.W.value) (find_metric n t))
            [ "encoding.encode_ms"; "encoding.obbt_ms"; "milp.solve_ms"; "verify.max_query_ms" ]
        with
        | [ Some e; Some o; Some s; Some q ] ->
            Printf.printf "  encode + obbt + milp.solve = %.1f%% of verify.max_query\n"
              (100.0 *. (e +. o +. s) /. q)
        | _ -> ())
    traced;
  Option.iter
    (fun path ->
      let doc =
        Json.Obj
          [
            ( "workloads",
              Json.Obj
                (List.map
                   (fun ((spec : W.spec), runs) ->
                     (spec.W.name, Json.Arr (List.map json_of_report runs)))
                   runs) );
            ("traced", Json.Arr (List.map json_of_report traced));
          ]
      in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Json.to_string doc);
          output_char oc '\n'))
    json_file;
  if not !ok then exit 1

(* {1 Command line} *)

let usage () =
  prerr_endline
    "usage: main.exe run [--seed N] [--workload W] [--repeats K] [--trace FILE] [--json FILE] [--quick]\n\
    \       main.exe one --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick] [--spans FILE]\n\
    \       main.exe rank table2-max|certify-audit\n\
     workloads: table2-max certify-audit serve-mixed fault-campaign";
  exit 2

let parse_flags ~bools ~valued args =
  let rec go acc = function
    | [] -> List.rev acc
    | f :: rest when List.mem f bools -> go ((f, "") :: acc) rest
    | f :: v :: rest when List.mem f valued -> go ((f, v) :: acc) rest
    | f :: _ ->
        Printf.eprintf "unexpected argument %S\n" f;
        usage ()
  in
  go [] args

let int_flag flags name ~default ~min =
  match List.assoc_opt name flags with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= min -> n
      | Some _ | None ->
          Printf.eprintf "%s wants an integer >= %d, got %S\n" name min v;
          usage ())

let bool_flag flags name ~default =
  match List.assoc_opt name flags with
  | None -> default
  | Some "0" -> false
  | Some "1" -> true
  | Some v ->
      Printf.eprintf "%s wants 0 or 1, got %S\n" name v;
      usage ()

let workload_flag flags =
  Option.map
    (fun name ->
      match W.find name with
      | Some s -> s
      | None ->
          Printf.eprintf "unknown workload %S\n" name;
          usage ())
    (List.assoc_opt "--workload" flags)

let () =
  match Array.to_list Sys.argv with
  | _ :: "one" :: args ->
      let flags =
        parse_flags ~bools:[ "--quick" ]
          ~valued:[ "--workload"; "--seed"; "--seconds"; "--trace"; "--spans" ]
          args
      in
      let spec = match workload_flag flags with Some s -> s | None -> usage () in
      let correct =
        one ~spec
          ~seed:(int_flag flags "--seed" ~default:1 ~min:0)
          ~seconds:
            (if List.mem_assoc "--seconds" flags then
               Some (float_of_int (int_flag flags "--seconds" ~default:0 ~min:1))
             else None)
          ~traced:(bool_flag flags "--trace" ~default:false)
          ~quick:(List.mem_assoc "--quick" flags)
          ~spans:(List.assoc_opt "--spans" flags)
      in
      if not correct then exit 1
  | _ :: "run" :: args ->
      let flags =
        parse_flags ~bools:[ "--quick" ]
          ~valued:[ "--seed"; "--workload"; "--repeats"; "--trace"; "--json" ]
          args
      in
      run
        ~seed:(int_flag flags "--seed" ~default:1 ~min:0)
        ~specs:(match workload_flag flags with Some s -> [ s ] | None -> W.all)
        ~repeats:(int_flag flags "--repeats" ~default:1 ~min:1)
        ~trace_file:(List.assoc_opt "--trace" flags)
        ~json_file:(List.assoc_opt "--json" flags)
        ~quick:(List.mem_assoc "--quick" flags)
  | [ _; "rank"; name ] -> (
      match W.find name with
      | Some spec -> rank spec
      | None ->
          Printf.eprintf "unknown workload %S\n" name;
          usage ())
  | _ -> usage ()

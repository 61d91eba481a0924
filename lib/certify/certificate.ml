type property = {
  threshold : float;
  components : int;
  bound_mode : string;
  box : (float * float) array;
}

type evidence =
  | Ev_bounded of float array
  | Ev_infeasible of float array
  | Ev_empty_row of int
  | Ev_unsupported of string

type leaf = {
  fixes : (int * float * float) array;  (* root-first *)
  evidence : evidence;
}

type body =
  | Milp_tree of { model_hash : string; leaves : leaf array }
  | Presolve of { coeffs : float array; const : float; bound : float }
  | Witness of { input : float array; achieved : float }

type t = {
  net_hash : string;
  property : property;
  component : int;
  output : int;
  body : body;
}

let property_hash ~net_hash p =
  let h = Chash.create () in
  Chash.string h "depnn-property v1";
  Chash.string h net_hash;
  Chash.float h p.threshold;
  Chash.int h p.components;
  Chash.string h p.bound_mode;
  Chash.int h (Array.length p.box);
  Array.iter
    (fun (lo, hi) ->
      Chash.float h lo;
      Chash.float h hi)
    p.box;
  Chash.hex h

(* Net-independent digest of the question alone. The proof store keys a
   secondary index on it so the same leaf box asked about a retrained
   or perturbed network can be found and revalidated against the new
   weights — a distinct magic string keeps it from ever colliding with
   a real property hash. *)
let property_key p =
  let h = Chash.create () in
  Chash.string h "depnn-property-key v1";
  Chash.float h p.threshold;
  Chash.int h p.components;
  Chash.string h p.bound_mode;
  Chash.int h (Array.length p.box);
  Array.iter
    (fun (lo, hi) ->
      Chash.float h lo;
      Chash.float h hi)
    p.box;
  Chash.hex h

(* Fingerprint of the MILP model a tree certificate talks about: rows
   (terms, sense, rhs), variable bounds and the integer marking — the
   complete semantics of the feasible set. Names and the objective are
   excluded: the objective is reconstructed from the certificate's
   output index, so it cannot drift from the claim. *)
let leaf_of_search fixes cert =
  {
    fixes = Array.of_list (List.rev fixes);
    evidence =
      (match cert with
       | Milp.Solver.Leaf_bounded y -> Ev_bounded y
       | Milp.Solver.Leaf_infeasible y -> Ev_infeasible y
       | Milp.Solver.Leaf_empty_row i -> Ev_empty_row i
       | Milp.Solver.Leaf_uncertified reason -> Ev_unsupported reason);
  }

let model_fingerprint model =
  let problem = Milp.Model.lp model in
  let h = Chash.create () in
  Chash.string h "depnn-model v1";
  let n = Lp.Problem.num_vars problem in
  Chash.int h n;
  let lo = Lp.Problem.var_lo problem and hi = Lp.Problem.var_hi problem in
  for v = 0 to n - 1 do
    Chash.float h lo.(v);
    Chash.float h hi.(v)
  done;
  let rows = Lp.Problem.rows problem in
  Chash.int h (Array.length rows);
  Array.iter
    (fun (row : Lp.Problem.row) ->
      Chash.int h (Array.length row.Lp.Problem.terms);
      Array.iter
        (fun (v, c) ->
          Chash.int h v;
          Chash.float h c)
        row.Lp.Problem.terms;
      Chash.int h
        (match row.Lp.Problem.cmp with Lp.Problem.Le -> 0 | Ge -> 1 | Eq -> 2);
      Chash.float h row.Lp.Problem.rhs)
    rows;
  let ints = Milp.Model.integer_vars model in
  Chash.int h (List.length ints);
  List.iter (Chash.int h) ints;
  Chash.hex h

(* --- serialisation ---------------------------------------------------

   Line-oriented text; every float is printed as a hex float ("%h"), so
   the round trip is bit-exact. The final line is an FNV-1a checksum of
   everything before it — a one-bit mutation anywhere flips it. *)

let fl = Printf.sprintf "%h"

let floats_line prefix a =
  let b = Buffer.create (16 * Array.length a + 8) in
  Buffer.add_string b prefix;
  Array.iter
    (fun x ->
      Buffer.add_char b ' ';
      Buffer.add_string b (fl x))
    a;
  Buffer.add_char b '\n';
  Buffer.contents b

let to_string t =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "depnn-certificate v1";
  line "net %s" t.net_hash;
  line "component %d" t.component;
  line "output %d" t.output;
  line "threshold %s" (fl t.property.threshold);
  line "components %d" t.property.components;
  line "bound-mode %s" t.property.bound_mode;
  line "box %d" (Array.length t.property.box);
  Array.iter
    (fun (lo, hi) -> line "%s %s" (fl lo) (fl hi))
    t.property.box;
  (match t.body with
   | Milp_tree { model_hash; leaves } ->
       line "body milp-tree %s %d" model_hash (Array.length leaves);
       Array.iter
         (fun lf ->
           let nf = Array.length lf.fixes in
           (match lf.evidence with
            | Ev_bounded y -> line "leaf %d bounded %d" nf (Array.length y)
            | Ev_infeasible y ->
                line "leaf %d infeasible %d" nf (Array.length y)
            | Ev_empty_row i -> line "leaf %d empty-row %d" nf i
            | Ev_unsupported reason -> line "leaf %d unsupported %s" nf reason);
           Array.iter
             (fun (v, lo, hi) -> line "fix %d %s %s" v (fl lo) (fl hi))
             lf.fixes;
           match lf.evidence with
           | Ev_bounded y | Ev_infeasible y ->
               Buffer.add_string b (floats_line "y" y)
           | Ev_empty_row _ | Ev_unsupported _ -> ())
         leaves
   | Presolve { coeffs; const; bound } ->
       line "body presolve %s %s %d" (fl bound) (fl const)
         (Array.length coeffs);
       Buffer.add_string b (floats_line "c" coeffs)
   | Witness { input; achieved } ->
       line "body witness %s %d" (fl achieved) (Array.length input);
       Buffer.add_string b (floats_line "x" input));
  let payload = Buffer.contents b in
  payload ^ Printf.sprintf "checksum %s\n" (Chash.of_string payload)

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let parse_float s =
  match float_of_string_opt s with
  | Some x -> x
  | None -> malformed "bad float %S" s

let parse_int s =
  match int_of_string_opt s with
  | Some x -> x
  | None -> malformed "bad int %S" s

let split s = String.split_on_char ' ' s

let of_string raw =
  try
    (* Separate and verify the trailing checksum line first. *)
    let len = String.length raw in
    if len = 0 then malformed "empty certificate";
    let body_end =
      match String.rindex_opt (String.sub raw 0 (len - 1)) '\n' with
      | Some i -> i + 1
      | None -> malformed "missing checksum line"
    in
    let payload = String.sub raw 0 body_end in
    let sum_line =
      String.trim (String.sub raw body_end (len - body_end))
    in
    (match split sum_line with
     | [ "checksum"; sum ] ->
         if Chash.of_string payload <> sum then
           malformed "checksum mismatch (certificate mutated or truncated)"
     | _ -> malformed "missing checksum line");
    let lines = ref (String.split_on_char '\n' payload) in
    let next () =
      match !lines with
      | [] -> malformed "truncated certificate"
      | l :: rest ->
          lines := rest;
          l
    in
    let expect_kv key =
      match split (next ()) with
      | k :: rest when k = key -> String.concat " " rest
      | _ -> malformed "expected %S line" key
    in
    if next () <> "depnn-certificate v1" then malformed "bad magic line";
    let net_hash = expect_kv "net" in
    let component = parse_int (expect_kv "component") in
    let output = parse_int (expect_kv "output") in
    let threshold = parse_float (expect_kv "threshold") in
    let components = parse_int (expect_kv "components") in
    let bound_mode = expect_kv "bound-mode" in
    let nbox = parse_int (expect_kv "box") in
    if nbox < 0 || nbox > 1_000_000 then malformed "bad box size";
    let box =
      Array.init nbox (fun _ ->
          match split (next ()) with
          | [ lo; hi ] -> (parse_float lo, parse_float hi)
          | _ -> malformed "bad box line")
    in
    let parse_floats prefix n line =
      match split line with
      | p :: rest when p = prefix ->
          if List.length rest <> n then
            malformed "expected %d floats on %S line" n prefix;
          Array.of_list (List.map parse_float rest)
      | _ -> malformed "expected %S line" prefix
    in
    let body =
      match split (next ()) with
      | [ "body"; "milp-tree"; model_hash; nl ] ->
          let nleaves = parse_int nl in
          if nleaves < 0 || nleaves > 10_000_000 then
            malformed "bad leaf count";
          let leaves =
            Array.init nleaves (fun _ ->
                let nf, mk =
                  match split (next ()) with
                  | "leaf" :: nf :: kind :: rest ->
                      let nf = parse_int nf in
                      let mk =
                        match (kind, rest) with
                        | "bounded", [ m ] ->
                            let m = parse_int m in
                            fun () ->
                              Ev_bounded (parse_floats "y" m (next ()))
                        | "infeasible", [ m ] ->
                            let m = parse_int m in
                            fun () ->
                              Ev_infeasible (parse_floats "y" m (next ()))
                        | "empty-row", [ i ] ->
                            let i = parse_int i in
                            fun () -> Ev_empty_row i
                        | "unsupported", reason ->
                            fun () ->
                              Ev_unsupported (String.concat " " reason)
                        | _ -> malformed "bad leaf header"
                      in
                      (nf, mk)
                  | _ -> malformed "expected leaf line"
                in
                if nf < 0 || nf > 1_000_000 then malformed "bad fix count";
                let fixes =
                  Array.init nf (fun _ ->
                      match split (next ()) with
                      | [ "fix"; v; lo; hi ] ->
                          (parse_int v, parse_float lo, parse_float hi)
                      | _ -> malformed "bad fix line")
                in
                { fixes; evidence = mk () })
          in
          Milp_tree { model_hash; leaves }
      | [ "body"; "presolve"; bound; const; n ] ->
          let n = parse_int n in
          Presolve
            {
              coeffs = parse_floats "c" n (next ());
              const = parse_float const;
              bound = parse_float bound;
            }
      | [ "body"; "witness"; achieved; n ] ->
          let n = parse_int n in
          Witness
            {
              input = parse_floats "x" n (next ());
              achieved = parse_float achieved;
            }
      | _ -> malformed "bad body line"
    in
    Ok { net_hash; property = { threshold; components; bound_mode; box };
         component; output; body }
  with
  | Malformed msg -> Error msg
  | Invalid_argument _ | Failure _ -> Error "malformed certificate"

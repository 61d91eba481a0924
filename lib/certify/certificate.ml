module Chash = Linalg.Chash

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

(* One digest body for both: [property_key] leaves the network out and
   uses a distinct magic string, so it never collides with a
   [property_hash]. The proof store keys a secondary index on the key,
   so the same leaf box asked about a retrained or perturbed network
   can be found and revalidated against the new weights. *)
let property_digest magic net_hash p =
  let h = Chash.create () in
  Chash.string h magic;
  Option.iter (Chash.string h) net_hash;
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

let property_hash ~net_hash p =
  property_digest "depnn-property v1" (Some net_hash) p

let property_key p = property_digest "depnn-property-key v1" None p

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

(* Fingerprint of the MILP model a tree certificate talks about: rows
   (terms, sense, rhs), variable bounds and the integer marking — the
   complete semantics of the feasible set. Names and the objective are
   excluded: the objective is reconstructed from the certificate's
   output index, so it cannot drift from the claim. *)
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

(* --- serialisation: the {!Text} line format ------------------------- *)

let property_lines b p =
  Text.line b "threshold %s" (Text.hex p.threshold);
  Text.line b "components %d" p.components;
  Text.line b "bound-mode %s" p.bound_mode;
  Text.box_lines b p.box

let read_property r =
  let threshold = Text.float (Text.kv r "threshold") in
  let components = Text.int (Text.kv r "components") in
  let bound_mode = Text.kv r "bound-mode" in
  let box = Text.box r in
  { threshold; components; bound_mode; box }

let to_string t =
  let b = Buffer.create 4096 in
  let line fmt = Text.line b fmt and hex = Text.hex in
  line "depnn-certificate v1";
  line "net %s" t.net_hash;
  line "component %d" t.component;
  line "output %d" t.output;
  property_lines b t.property;
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
             (fun (v, lo, hi) -> line "fix %d %s %s" v (hex lo) (hex hi))
             lf.fixes;
           match lf.evidence with
           | Ev_bounded y | Ev_infeasible y -> Text.floats_line b "y" y
           | Ev_empty_row _ | Ev_unsupported _ -> ())
         leaves
   | Presolve { coeffs; const; bound } ->
       line "body presolve %s %s %d" (hex bound) (hex const)
         (Array.length coeffs);
       Text.floats_line b "c" coeffs
   | Witness { input; achieved } ->
       line "body witness %s %d" (hex achieved) (Array.length input);
       Text.floats_line b "x" input);
  Text.seal b

(* A leaf: its header, the fix lines, then the evidence the header
   announced. The header is checked before the fixes are read. *)
let read_leaf r =
  match Text.words r with
  | "leaf" :: nf :: kind :: rest ->
      let nf = Text.count r "fix" nf in
      let evidence =
        match (kind, rest) with
        | "bounded", [ m ] ->
            let m = Text.int m in
            fun () -> Ev_bounded (Text.floats r "y" m)
        | "infeasible", [ m ] ->
            let m = Text.int m in
            fun () -> Ev_infeasible (Text.floats r "y" m)
        | "empty-row", [ i ] ->
            let i = Text.int i in
            fun () -> Ev_empty_row i
        | "unsupported", reason ->
            fun () -> Ev_unsupported (String.concat " " reason)
        | _ -> Text.fail "bad leaf header"
      in
      let fixes =
        Array.init nf (fun _ ->
            match Text.words r with
            | [ "fix"; v; lo; hi ] -> (Text.int v, Text.float lo, Text.float hi)
            | _ -> Text.fail "bad fix line")
      in
      { fixes; evidence = evidence () }
  | _ -> Text.fail "expected leaf line"

let read r =
  if Text.next r <> "depnn-certificate v1" then Text.fail "bad magic line";
  let net_hash = Text.kv r "net" in
  let component = Text.int (Text.kv r "component") in
  let output = Text.int (Text.kv r "output") in
  let property = read_property r in
  let body =
    match Text.words r with
    | [ "body"; "milp-tree"; model_hash; n ] ->
        let n = Text.count r "leaf" n in
        Milp_tree { model_hash; leaves = Array.init n (fun _ -> read_leaf r) }
    | [ "body"; "presolve"; bound; const; n ] ->
        let n = Text.int n in
        let bound = Text.float bound in
        let const = Text.float const in
        Presolve { coeffs = Text.floats r "c" n; const; bound }
    | [ "body"; "witness"; achieved; n ] ->
        let n = Text.int n in
        let achieved = Text.float achieved in
        Witness { input = Text.floats r "x" n; achieved }
    | _ -> Text.fail "bad body line"
  in
  { net_hash; property; component; output; body }

let of_string raw = Text.parse ~sealed:true "certificate" read raw

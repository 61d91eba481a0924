type tree =
  | Split of { dim : int; cut : float; below : tree; above : tree }
  | Tile

type manifest = {
  net_hash : string;
  property : Certificate.property;
  tree : tree;
  leaf_hashes : string array;
}

let rec leaf_count = function
  | Tile -> 1
  | Split { below; above; _ } -> leaf_count below + leaf_count above

let leaf_property (p : Certificate.property) box = { p with Certificate.box }

let manifest_name ~prop_hash = prop_hash ^ ".shard"

let parent_hash m =
  Certificate.property_hash ~net_hash:m.net_hash m.property

(* The tiling check never re-derives where the splitter *should* have
   cut — any cut inside the dimension's current range produces two
   boxes whose union is the box, which is all soundness needs. What it
   does pin down, bit-exactly, is *what question each leaf directory
   answers*: the recomputed tile hashed with net, threshold, components
   and bound mode must equal the directory name the manifest claims. *)
let check m =
  let n = Array.length m.property.Certificate.box in
  let leaves = leaf_count m.tree in
  if Array.length m.leaf_hashes <> leaves then
    Error
      (Printf.sprintf "manifest lists %d leaf hashes for %d tiles"
         (Array.length m.leaf_hashes) leaves)
  else begin
    let bad = ref None in
    let idx = ref 0 in
    let out = ref [] in
    let rec walk box = function
      | Tile ->
          let i = !idx in
          incr idx;
          let h =
            Certificate.property_hash ~net_hash:m.net_hash
              (leaf_property m.property box)
          in
          if h <> m.leaf_hashes.(i) && !bad = None then
            bad :=
              Some
                (Printf.sprintf
                   "tile %d does not hash to its recorded leaf %s" i
                   m.leaf_hashes.(i));
          out := box :: !out
      | Split { dim; cut; below; above } ->
          if dim < 0 || dim >= n then begin
            if !bad = None then
              bad := Some (Printf.sprintf "split dimension %d out of range" dim)
          end
          else begin
            let lo, hi = box.(dim) in
            if Float.is_nan cut || cut < lo || cut > hi then begin
              if !bad = None then
                bad :=
                  Some
                    (Printf.sprintf "cut %h outside [%h, %h] on dim %d" cut lo
                       hi dim)
            end
            else begin
              let b = Array.copy box and a = Array.copy box in
              b.(dim) <- (lo, cut);
              a.(dim) <- (cut, hi);
              walk b below;
              walk a above
            end
          end
    in
    walk m.property.Certificate.box m.tree;
    match !bad with
    | Some reason -> Error reason
    | None ->
        if !idx <> leaves then Error "tiling walk lost tiles"
        else Ok (Array.of_list (List.rev !out))
  end

(* --- serialisation: the {!Text} line format, the tree depth first -- *)

let to_string m =
  let b = Buffer.create 4096 in
  let line fmt = Text.line b fmt in
  line "depnn-shard v1";
  line "net %s" m.net_hash;
  Certificate.property_lines b m.property;
  let rec count = function
    | Tile -> 1
    | Split { below; above; _ } -> 1 + count below + count above
  in
  line "tree %d" (count m.tree);
  let idx = ref 0 in
  let rec emit = function
    | Tile ->
        line "tile %s" m.leaf_hashes.(!idx);
        incr idx
    | Split { dim; cut; below; above } ->
        line "split %d %s" dim (Text.hex cut);
        emit below;
        emit above
  in
  emit m.tree;
  Text.seal b

let read r =
  if Text.next r <> "depnn-shard v1" then Text.fail "bad magic line";
  let net_hash = Text.kv r "net" in
  let property = Certificate.read_property r in
  (* The tree is read node by node against this count, so it sizes no
     allocation. *)
  let nodes = Text.int (Text.kv r "tree") in
  if nodes < 1 then Text.fail "bad tree count %d" nodes;
  let hashes = ref [] and consumed = ref 0 in
  let rec node () =
    incr consumed;
    if !consumed > nodes then Text.fail "tree larger than declared";
    match Text.words r with
    | [ "tile"; h ] ->
        hashes := h :: !hashes;
        Tile
    | [ "split"; d; c ] ->
        let dim = Text.int d and cut = Text.float c in
        let below = node () in
        let above = node () in
        Split { dim; cut; below; above }
    | _ -> Text.fail "bad tree line"
  in
  let tree = node () in
  if !consumed <> nodes then Text.fail "tree smaller than declared";
  if not (Text.at_end r) then Text.fail "trailing data after tree";
  { net_hash; property; tree; leaf_hashes = Array.of_list (List.rev !hashes) }

let of_string raw = Text.parse ~sealed:true "manifest" read raw

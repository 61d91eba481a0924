let scene (s : Scene.t) =
  let window = 60.0 and columns = 61 in
  let road = s.Scene.road in
  let buf = Buffer.create 1024 in
  let col_of dx =
    let frac = (dx +. window) /. (2.0 *. window) in
    let c = int_of_float (frac *. float_of_int (columns - 1)) in
    if c < 0 || c >= columns then None else Some c
  in
  let border = String.make columns '=' in
  Buffer.add_string buf border;
  Buffer.add_char buf '\n';
  for lane = road.Road.num_lanes - 1 downto 0 do
    let row = Bytes.make columns ' ' in
    if lane < road.Road.num_lanes - 1 then
      for c = 0 to columns - 1 do
        if c mod 4 < 2 then Bytes.set row c '-'
      done;
    let row_cars = Bytes.make columns ' ' in
    let place (v : Vehicle.t) mark =
      if v.Vehicle.lane = lane then begin
        match col_of (Road.delta road v.Vehicle.x s.Scene.ego.Vehicle.x) with
        | Some c -> Bytes.set row_cars c mark
        | None -> ()
      end
    in
    Array.iter (fun v -> place v '>') s.Scene.others;
    place s.Scene.ego 'E';
    (* Lane markings line above each lane except the top. *)
    if lane < road.Road.num_lanes - 1 then begin
      Buffer.add_string buf (Bytes.to_string row_cars);
      Buffer.add_char buf '\n';
      Buffer.add_string buf (Bytes.to_string row);
      Buffer.add_char buf '\n'
    end
    else begin
      Buffer.add_string buf (Bytes.to_string row_cars);
      Buffer.add_char buf '\n'
    end
  done;
  Buffer.add_string buf border;
  Buffer.contents buf

let shades = " .:-=+*#%@"

let action_distribution (g : Nn.Gmm.t) =
  let rows = 13 and cols = 25 in
  let lat_lo, lat_hi = (-3.0, 3.0) and lon_lo, lon_hi = (-4.0, 4.0) in
  let densities =
    Array.init rows (fun r ->
        Array.init cols (fun c ->
            (* Row 0 is the largest lateral velocity (up = left). *)
            let lat =
              lat_hi
              -. (float_of_int r /. float_of_int (rows - 1) *. (lat_hi -. lat_lo))
            in
            let lon =
              lon_lo
              +. (float_of_int c /. float_of_int (cols - 1) *. (lon_hi -. lon_lo))
            in
            Nn.Gmm.density g ~lat ~lon))
  in
  let peak =
    Array.fold_left
      (fun acc row -> Array.fold_left Float.max acc row)
      1e-12 densities
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "lat vel (m/s), up=left; lon accel %.0f..%.0f m/s2\n"
       lon_lo lon_hi);
  Array.iteri
    (fun r row ->
      let lat =
        lat_hi -. (float_of_int r /. float_of_int (rows - 1) *. (lat_hi -. lat_lo))
      in
      Buffer.add_string buf (Printf.sprintf "%+5.1f |" lat);
      Array.iter
        (fun d ->
          let idx =
            int_of_float (d /. peak *. float_of_int (String.length shades - 1))
          in
          let idx = Stdlib.max 0 (Stdlib.min (String.length shades - 1) idx) in
          Buffer.add_char buf shades.[idx])
        row;
      Buffer.add_string buf "|\n")
    densities;
  Buffer.contents buf

let side_by_side left right =
  let llines = String.split_on_char '\n' left in
  let rlines = String.split_on_char '\n' right in
  let lwidth =
    List.fold_left (fun acc l -> Stdlib.max acc (String.length l)) 0 llines
  in
  let n = Stdlib.max (List.length llines) (List.length rlines) in
  let get lst i = try List.nth lst i with Failure _ | Invalid_argument _ -> "" in
  let buf = Buffer.create 2048 in
  for i = 0 to n - 1 do
    let l = get llines i in
    Buffer.add_string buf l;
    Buffer.add_string buf (String.make (lwidth - String.length l + 3) ' ');
    Buffer.add_string buf (get rlines i);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

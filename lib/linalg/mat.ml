type t = { nr : int; nc : int; data : float array }

let create nr nc =
  if nr < 0 || nc < 0 then invalid_arg "Mat.create";
  { nr; nc; data = Array.make (nr * nc) 0.0 }

let init nr nc f =
  let data = Array.make (nr * nc) 0.0 in
  for i = 0 to nr - 1 do
    for j = 0 to nc - 1 do
      data.((i * nc) + j) <- f i j
    done
  done;
  { nr; nc; data }

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let of_arrays rows =
  let nr = Array.length rows in
  if nr = 0 then { nr = 0; nc = 0; data = [||] }
  else begin
    let nc = Array.length rows.(0) in
    Array.iter
      (fun r -> if Array.length r <> nc then invalid_arg "Mat.of_arrays: ragged")
      rows;
    init nr nc (fun i j -> rows.(i).(j))
  end

let rows m = m.nr
let cols m = m.nc
let get m i j = m.data.((i * m.nc) + j)
let set m i j x = m.data.((i * m.nc) + j) <- x
let update m i j f = m.data.((i * m.nc) + j) <- f m.data.((i * m.nc) + j)
let copy m = { m with data = Array.copy m.data }
let transpose m = init m.nc m.nr (fun i j -> get m j i)

let check_same a b =
  if a.nr <> b.nr || a.nc <> b.nc then invalid_arg "Mat: dimension mismatch"

let blit ~src ~dst =
  check_same src dst;
  Array.blit src.data 0 dst.data 0 (Array.length src.data)

let lincomb_into dst a ma b mb =
  check_same dst ma;
  check_same dst mb;
  for k = 0 to Array.length dst.data - 1 do
    dst.data.(k) <- (a *. ma.data.(k)) +. (b *. mb.data.(k))
  done

let sub a b =
  check_same a b;
  { a with data = Array.mapi (fun k x -> x -. b.data.(k)) a.data }

let mul a b =
  if a.nc <> b.nr then invalid_arg "Mat.mul: dimension mismatch";
  let c = create a.nr b.nc in
  for i = 0 to a.nr - 1 do
    for k = 0 to a.nc - 1 do
      let aik = get a i k in
      if aik <> 0.0 then
        for j = 0 to b.nc - 1 do
          c.data.((i * c.nc) + j) <- c.data.((i * c.nc) + j) +. (aik *. get b k j)
        done
    done
  done;
  c

let mulv a x =
  if a.nc <> Array.length x then invalid_arg "Mat.mulv: dimension mismatch";
  Array.init a.nr (fun i ->
      let acc = ref 0.0 in
      for j = 0 to a.nc - 1 do
        acc := !acc +. (get a i j *. x.(j))
      done;
      !acc)

(* indexes [data] directly: [get] is not inlined into the loop, and
   each call would return a boxed float *)
let mulv_into a x y =
  if a.nc <> Array.length x || a.nr <> Array.length y then
    invalid_arg "Mat.mulv_into: dimension mismatch";
  if x == y then invalid_arg "Mat.mulv_into: x and y must not alias";
  for i = 0 to a.nr - 1 do
    let ri = i * a.nc in
    let acc = ref 0.0 in
    for j = 0 to a.nc - 1 do
      (* in bounds: the shape checks above *)
      acc := !acc +. (Array.unsafe_get a.data (ri + j) *. Array.unsafe_get x j)
    done;
    y.(i) <- !acc
  done

let mulv2_into a x1 x2 y1 y2 =
  if
    a.nc <> Array.length x1 || a.nc <> Array.length x2
    || a.nr <> Array.length y1 || a.nr <> Array.length y2
  then invalid_arg "Mat.mulv2_into: dimension mismatch";
  if x1 == y1 || x1 == y2 || x2 == y1 || x2 == y2 then
    invalid_arg "Mat.mulv2_into: inputs and outputs must not alias";
  for i = 0 to a.nr - 1 do
    let ri = i * a.nc in
    let acc1 = ref 0.0 and acc2 = ref 0.0 in
    for j = 0 to a.nc - 1 do
      (* in bounds: the shape checks above *)
      let aij = Array.unsafe_get a.data (ri + j) in
      acc1 := !acc1 +. (aij *. Array.unsafe_get x1 j);
      acc2 := !acc2 +. (aij *. Array.unsafe_get x2 j)
    done;
    y1.(i) <- !acc1;
    y2.(i) <- !acc2
  done

(* indexes [data] directly, as [mulv_into] does: it runs once per
   transient step, on a matrix with one row per unknown *)
let mulv_t a x =
  if a.nr <> Array.length x then invalid_arg "Mat.mulv_t: dimension mismatch";
  let y = Array.make a.nc 0.0 in
  for i = 0 to a.nr - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then
      for j = 0 to a.nc - 1 do
        y.(j) <- y.(j) +. (a.data.((i * a.nc) + j) *. xi)
      done
  done;
  y

let row m i = Array.init m.nc (fun j -> get m i j)
let col m j = Array.init m.nr (fun i -> get m i j)

let max_abs m = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 m.data

let approx_equal ?(tol = 1e-9) a b =
  a.nr = b.nr && a.nc = b.nc
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= tol) a.data b.data

let random st nr nc = init nr nc (fun _ _ -> Random.State.float st 2.0 -. 1.0)

let unsafe_data m = m.data

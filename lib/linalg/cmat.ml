type t = { nr : int; nc : int; data : Cx.t array }
type vec = Cx.t array

let create nr nc = { nr; nc; data = Array.make (nr * nc) Cx.zero }

let init nr nc f =
  let data = Array.make (nr * nc) Cx.zero in
  for i = 0 to nr - 1 do
    for j = 0 to nc - 1 do
      data.((i * nc) + j) <- f i j
    done
  done;
  { nr; nc; data }

let identity n = init n n (fun i j -> if i = j then Cx.one else Cx.zero)
let of_real m = init (Mat.rows m) (Mat.cols m) (fun i j -> Cx.re (Mat.get m i j))

let lincomb a ma b mb =
  if Mat.rows ma <> Mat.rows mb || Mat.cols ma <> Mat.cols mb then
    invalid_arg "Cmat.lincomb: dimension mismatch";
  init (Mat.rows ma) (Mat.cols ma) (fun r c ->
      Cx.(scale (Mat.get ma r c) a +: scale (Mat.get mb r c) b))

let lincomb_into dst a ma b mb =
  if
    Mat.rows ma <> dst.nr || Mat.cols ma <> dst.nc
    || Mat.rows mb <> dst.nr || Mat.cols mb <> dst.nc
  then invalid_arg "Cmat.lincomb_into: dimension mismatch";
  for r = 0 to dst.nr - 1 do
    for c = 0 to dst.nc - 1 do
      dst.data.((r * dst.nc) + c) <-
        Cx.(scale (Mat.get ma r c) a +: scale (Mat.get mb r c) b)
    done
  done

let rows m = m.nr
let cols m = m.nc
let get m i j = m.data.((i * m.nc) + j)
let set m i j x = m.data.((i * m.nc) + j) <- x

let blit ~src ~dst =
  if src.nr <> dst.nr || src.nc <> dst.nc then
    invalid_arg "Cmat.blit: dimension mismatch";
  Array.blit src.data 0 dst.data 0 (Array.length src.data)

let get_col src j dst =
  if Array.length dst <> src.nr || j < 0 || j >= src.nc then
    invalid_arg "Cmat.get_col: dimension mismatch";
  for i = 0 to src.nr - 1 do
    dst.(i) <- src.data.((i * src.nc) + j)
  done

let mul a b =
  if a.nc <> b.nr then invalid_arg "Cmat.mul: dimension mismatch";
  let c = create a.nr b.nc in
  for i = 0 to a.nr - 1 do
    for k = 0 to a.nc - 1 do
      let aik = get a i k in
      if aik <> Cx.zero then
        for j = 0 to b.nc - 1 do
          let cij = get c i j and bkj = get b k j in
          set c i j Cx.(cij +: (aik *: bkj))
        done
    done
  done;
  c

let mulv a x =
  if a.nc <> Array.length x then invalid_arg "Cmat.mulv: dimension mismatch";
  Array.init a.nr (fun i ->
      let acc = ref Cx.zero in
      for j = 0 to a.nc - 1 do
        let aij = get a i j in
        acc := Cx.(!acc +: (aij *: x.(j)))
      done;
      !acc)

let swap_rows m i1 i2 =
  if i1 <> i2 then
    for j = 0 to m.nc - 1 do
      let tmp = get m i1 j in
      set m i1 j (get m i2 j);
      set m i2 j tmp
    done

let max_abs m =
  Array.fold_left (fun acc z -> Float.max acc (Cx.norm z)) 0.0 m.data

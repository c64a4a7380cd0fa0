exception Singular of { pivot_index : int; magnitude : float }

let () =
  Printexc.register_printer (function
    | Singular { pivot_index; magnitude } ->
        Some
          (Printf.sprintf "Lu.Singular: pivot %d has magnitude %.3e"
             pivot_index magnitude)
    | _ -> None)

(* below this a pivot is numerically zero even when its bit pattern is
   not: eliminating with a denormal pivot overflows the multipliers *)
let tiny_pivot = 1e-300

type t = { lu : Mat.t; perm : int array; mutable sign : float }

let workspace n =
  if n <= 0 then invalid_arg "Lu.workspace: size must be positive";
  { lu = Mat.create n n; perm = Array.init n (fun i -> i); sign = 1.0 }

(* The one diagonal scan behind both the reciprocal-condition proxy
   and the floor: the weakest pivot (index, |U_ii|) and the ratio of the
   smallest to the largest |U_ii|, 0 when the diagonal is degenerate or
   non-finite. With partial pivoting the ratio tracks the true 1-norm
   rcond within a few orders of magnitude — enough for a floor. *)
let diagonal_ratio { lu; _ } =
  let n = Mat.rows lu and a = Mat.unsafe_data lu in
  let idx = ref 0 and mn = ref infinity and mx = ref 0.0 in
  for i = 0 to n - 1 do
    let d = Float.abs a.((i * n) + i) in
    if d < !mn then begin
      mn := d;
      idx := i
    end;
    if d > !mx then mx := d
  done;
  let rc = if !mx = 0.0 || not (Float.is_finite !mx) then 0.0 else !mn /. !mx in
  (!idx, !mn, rc)

let rcond_estimate ws =
  let _, _, rc = diagonal_ratio ws in
  rc

(* Doolittle factorization with partial pivoting, stored packed in the
   workspace's [lu]. [factor] wraps this with a fresh workspace, so both
   paths perform identical floating-point ops. The kernels index the flat
   row-major store directly: a cross-module [Mat.get] returns a boxed
   float wherever the call is not inlined. A row whose multiplier is
   zero is not updated, which is what keeps MNA pencils cheap: few of
   their rows ever take a nonzero multiplier. *)
let factor_into ws a =
  let n = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "Lu.factor_into: matrix not square";
  if Mat.rows ws.lu <> n then invalid_arg "Lu.factor_into: workspace size mismatch";
  let inject = Fault.should_fire "lu.pivot_zero" in
  let perm = ws.perm in
  Mat.blit ~src:a ~dst:ws.lu;
  let lu = Mat.unsafe_data ws.lu in
  (* in bounds: row and column indices stay below n, so every flat
     index stays below n·n, the length of the checked n×n store *)
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  ws.sign <- 1.0;
  for k = 0 to n - 1 do
    (* pivot search in column k *)
    let piv = ref k in
    for i = k + 1 to n - 1 do
      if
        Float.abs (Array.unsafe_get lu ((i * n) + k))
        > Float.abs (Array.unsafe_get lu ((!piv * n) + k))
      then piv := i
    done;
    if !piv <> k then begin
      let rk = k * n and rp = !piv * n in
      for j = 0 to n - 1 do
        let tmp = Array.unsafe_get lu (rk + j) in
        Array.unsafe_set lu (rk + j) (Array.unsafe_get lu (rp + j));
        Array.unsafe_set lu (rp + j) tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!piv);
      perm.(!piv) <- tmp;
      ws.sign <- -.ws.sign
    end;
    let rk = k * n in
    let pivot =
      if inject && k = 0 then 0.0 else Array.unsafe_get lu (rk + k)
    in
    if Float.abs pivot < tiny_pivot || not (Float.is_finite pivot) then
      raise (Singular { pivot_index = k; magnitude = Float.abs pivot });
    for i = k + 1 to n - 1 do
      let ri = i * n in
      let m = Array.unsafe_get lu (ri + k) /. pivot in
      Array.unsafe_set lu (ri + k) m;
      if m <> 0.0 then
        for j = k + 1 to n - 1 do
          Array.unsafe_set lu (ri + j)
            (Array.unsafe_get lu (ri + j) -. (m *. Array.unsafe_get lu (rk + j)))
        done
    done
  done;
  (* the floor, reporting the weakest pivot: the one that bounds the
     estimate *)
  let idx, mn, rc = diagonal_ratio ws in
  if rc < Guard.rcond_min then
    raise (Singular { pivot_index = idx; magnitude = mn })

let factor a =
  let ws = workspace (Mat.rows a) in
  factor_into ws a;
  ws

(* substitution into a caller-owned [x]; [b] and [x] must be distinct
   (the permuted load reads b out of order). *)
let solve_into { lu; perm; _ } b x =
  let n = Mat.rows lu and lu = Mat.unsafe_data lu in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Lu.solve_into: dimension mismatch";
  if b == x then invalid_arg "Lu.solve_into: b and x must not alias";
  for i = 0 to n - 1 do
    x.(i) <- b.(perm.(i))
  done;
  (* forward substitution (unit lower); inner indices stay below n·n
     and n, checked above *)
  for i = 1 to n - 1 do
    let ri = i * n in
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Array.unsafe_get lu (ri + j) *. Array.unsafe_get x j)
    done;
    x.(i) <- !acc
  done;
  (* back substitution *)
  for i = n - 1 downto 0 do
    let ri = i * n in
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Array.unsafe_get lu (ri + j) *. Array.unsafe_get x j)
    done;
    x.(i) <- !acc /. lu.(ri + i)
  done

let solve f b =
  let x = Array.make (Array.length b) 0.0 in
  solve_into f b x;
  x

(* every column at once, row by row: each column sees exactly the
   operations of [solve_into], in the same order *)
let solve_mat_into { lu; perm; _ } b x =
  let n = Mat.rows lu and m = Mat.cols b in
  if Mat.rows b <> n || Mat.rows x <> n || Mat.cols x <> m then
    invalid_arg "Lu.solve_mat_into: dimension mismatch";
  if b == x then invalid_arg "Lu.solve_mat_into: b and x must not alias";
  let lu = Mat.unsafe_data lu
  and bd = Mat.unsafe_data b
  and xd = Mat.unsafe_data x in
  for i = 0 to n - 1 do
    Array.blit bd (perm.(i) * m) xd (i * m) m
  done;
  (* in bounds: rows i, j < n of the checked n×m store *)
  for i = 1 to n - 1 do
    let ri = i * m in
    for j = 0 to i - 1 do
      let lij = lu.((i * n) + j) and rj = j * m in
      for c = 0 to m - 1 do
        let v = Array.unsafe_get xd (ri + c) in
        Array.unsafe_set xd (ri + c) (v -. (lij *. Array.unsafe_get xd (rj + c)))
      done
    done
  done;
  for i = n - 1 downto 0 do
    let ri = i * m in
    for j = i + 1 to n - 1 do
      let uij = lu.((i * n) + j) and rj = j * m in
      for c = 0 to m - 1 do
        let v = Array.unsafe_get xd (ri + c) in
        Array.unsafe_set xd (ri + c) (v -. (uij *. Array.unsafe_get xd (rj + c)))
      done
    done;
    let uii = lu.((i * n) + i) in
    for c = 0 to m - 1 do
      xd.(ri + c) <- xd.(ri + c) /. uii
    done
  done

let solve_mat f b =
  let x = Mat.create (Mat.rows b) (Mat.cols b) in
  solve_mat_into f b x;
  x

let det { lu; sign; _ } =
  let n = Mat.rows lu and a = Mat.unsafe_data lu in
  let d = ref sign in
  for i = 0 to n - 1 do
    d := !d *. a.((i * n) + i)
  done;
  !d

let solve_system a b = solve (factor a) b
let inverse a = solve_mat (factor a) (Mat.identity (Mat.rows a))

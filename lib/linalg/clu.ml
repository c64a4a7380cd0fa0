exception Singular of { pivot_index : int; magnitude : float }

let () =
  Printexc.register_printer (function
    | Singular { pivot_index; magnitude } ->
        Some
          (Printf.sprintf "Clu.Singular: pivot %d has magnitude %.3e"
             pivot_index magnitude)
    | _ -> None)

(* same floor as Lu: a denormal pivot magnitude overflows multipliers *)
let tiny_pivot = 1e-300

type t = { lu : Cmat.t; perm : int array }

let workspace n =
  if n <= 0 then invalid_arg "Clu.workspace: size must be positive";
  { lu = Cmat.create n n; perm = Array.init n (fun i -> i) }

(* diagonal-ratio reciprocal-condition proxy, as in Lu.rcond_estimate *)
let rcond_estimate { lu; _ } =
  let n = Cmat.rows lu in
  let mn = ref infinity and mx = ref 0.0 in
  for i = 0 to n - 1 do
    let d = Cx.norm (Cmat.get lu i i) in
    if d < !mn then mn := d;
    if d > !mx then mx := d
  done;
  if !mx = 0.0 || not (Float.is_finite !mx) then 0.0 else !mn /. !mx

(* In-place Doolittle with partial pivoting, overwriting the workspace.
   This is the one implementation; [factor] wraps it with a fresh
   workspace, so both paths perform identical floating-point ops. *)
let factor_into ws a =
  let n = Cmat.rows a in
  if Cmat.cols a <> n then invalid_arg "Clu.factor_into: matrix not square";
  if Cmat.rows ws.lu <> n then invalid_arg "Clu.factor_into: workspace size mismatch";
  let inject = Fault.should_fire "clu.pivot_zero" in
  let lu = ws.lu and perm = ws.perm in
  Cmat.blit ~src:a ~dst:lu;
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  for k = 0 to n - 1 do
    let piv = ref k in
    for i = k + 1 to n - 1 do
      if Cx.norm (Cmat.get lu i k) > Cx.norm (Cmat.get lu !piv k) then piv := i
    done;
    if !piv <> k then begin
      Cmat.swap_rows lu k !piv;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!piv);
      perm.(!piv) <- tmp
    end;
    let pivot = if inject && k = 0 then Cx.zero else Cmat.get lu k k in
    if Cx.norm pivot < tiny_pivot || not (Cx.is_finite pivot) then
      raise (Singular { pivot_index = k; magnitude = Cx.norm pivot });
    for i = k + 1 to n - 1 do
      let luik = Cmat.get lu i k in
      let m = Cx.(luik /: pivot) in
      Cmat.set lu i k m;
      if Cx.norm m <> 0.0 then
        for j = k + 1 to n - 1 do
          let luij = Cmat.get lu i j and lukj = Cmat.get lu k j in
          Cmat.set lu i j Cx.(luij -: (m *: lukj))
        done
    done
  done

let factor a =
  let ws = workspace (Cmat.rows a) in
  factor_into ws a;
  ws

(* Forward/back substitution into a caller-owned [x]; [x] and [b] must
   be distinct buffers (the permuted load reads b out of order). *)
let solve_into { lu; perm } b x =
  let n = Cmat.rows lu in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Clu.solve_into: dimension mismatch";
  if b == x then invalid_arg "Clu.solve_into: b and x must not alias";
  for i = 0 to n - 1 do
    x.(i) <- b.(perm.(i))
  done;
  for i = 1 to n - 1 do
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      let luij = Cmat.get lu i j in
      acc := Cx.(!acc -: (luij *: x.(j)))
    done;
    x.(i) <- !acc
  done;
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      let luij = Cmat.get lu i j in
      acc := Cx.(!acc -: (luij *: x.(j)))
    done;
    let luii = Cmat.get lu i i in
    x.(i) <- Cx.(!acc /: luii)
  done

let solve f b =
  let x = Array.make (Array.length b) Cx.zero in
  solve_into f b x;
  x

let solve_system a b = solve (factor a) b

(* Shifted upper-Hessenberg systems (I + s·H) y = b, H real, s complex.

   Gaussian elimination with partial pivoting keeps the Hessenberg
   shape: column k has a single entry below the diagonal, so the pivot
   choice compares two adjacent rows and each step updates one row —
   O(n²) for the factorization and for each solve. The complex matrix
   is held as two flat float arrays (real and imaginary parts) and the
   complex arithmetic is written out, so nothing is boxed. Inner loops
   skip bounds checks where the entry checks already bound the
   indices. *)

(* same floor as Lu and Clu: a denormal pivot overflows multipliers *)
let tiny_pivot = 1e-300

type t = {
  n : int;
  ure : float array;  (** U, real part, row-major n×n (upper triangle used) *)
  uim : float array;
  lre : float array;  (** multiplier of step k (row k+1 -= l_k · row k) *)
  lim : float array;
  swapped : bool array;  (** rows k and k+1 exchanged at step k *)
}

let workspace n =
  if n <= 0 then invalid_arg "Hess.workspace: size must be positive";
  {
    n;
    ure = Array.make (n * n) 0.0;
    uim = Array.make (n * n) 0.0;
    lre = Array.make n 0.0;
    lim = Array.make n 0.0;
    swapped = Array.make n false;
  }

let factor ws h (s : Complex.t) =
  let n = ws.n in
  if Mat.rows h <> n || Mat.cols h <> n then
    invalid_arg "Hess.factor: workspace size mismatch";
  let hd = Mat.unsafe_data h and ure = ws.ure and uim = ws.uim in
  let sr = s.Complex.re and si = s.Complex.im in
  (* I + s·H on and above the subdiagonal; entries below it are never
     read *)
  for i = 0 to n - 1 do
    let ri = i * n in
    for j = Stdlib.max 0 (i - 1) to n - 1 do
      let hij = Array.unsafe_get hd (ri + j) in
      Array.unsafe_set ure (ri + j) (sr *. hij);
      Array.unsafe_set uim (ri + j) (si *. hij)
    done;
    ure.(ri + i) <- 1.0 +. ure.(ri + i)
  done;
  let inject = Fault.should_fire "clu.pivot_zero" in
  let ok = ref true and k = ref 0 in
  while !ok && !k < n do
    let k' = !k in
    let rk = k' * n in
    if k' < n - 1 then begin
      let rk1 = rk + n in
      let swap =
        Float.abs ure.(rk1 + k') +. Float.abs uim.(rk1 + k')
        > Float.abs ure.(rk + k') +. Float.abs uim.(rk + k')
      in
      ws.swapped.(k') <- swap;
      if swap then
        for j = k' to n - 1 do
          let tr = ure.(rk + j) and ti = uim.(rk + j) in
          ure.(rk + j) <- ure.(rk1 + j);
          uim.(rk + j) <- uim.(rk1 + j);
          ure.(rk1 + j) <- tr;
          uim.(rk1 + j) <- ti
        done
    end;
    let pr = if inject && k' = 0 then 0.0 else ure.(rk + k')
    and pi = if inject && k' = 0 then 0.0 else uim.(rk + k') in
    let mag = Float.abs pr +. Float.abs pi in
    if mag < tiny_pivot || not (Float.is_finite mag) then ok := false
    else if k' < n - 1 then begin
      let rk1 = rk + n in
      let br = ure.(rk1 + k') and bi = uim.(rk1 + k') in
      (* l = b / p, Smith's division as in Stdlib.Complex.div *)
      if Float.abs pr >= Float.abs pi then begin
        let r = pi /. pr in
        let d = pr +. (r *. pi) in
        ws.lre.(k') <- (br +. (r *. bi)) /. d;
        ws.lim.(k') <- (bi -. (r *. br)) /. d
      end
      else begin
        let r = pr /. pi in
        let d = pi +. (r *. pr) in
        ws.lre.(k') <- ((r *. br) +. bi) /. d;
        ws.lim.(k') <- ((r *. bi) -. br) /. d
      end;
      let lr = ws.lre.(k') and li = ws.lim.(k') in
      (* row k+1 -= l·row k; the indices stay inside row k+1 *)
      if lr <> 0.0 || li <> 0.0 then
        for j = k' + 1 to n - 1 do
          let ur = Array.unsafe_get ure (rk + j)
          and ui = Array.unsafe_get uim (rk + j) in
          Array.unsafe_set ure (rk1 + j)
            (Array.unsafe_get ure (rk1 + j) -. ((lr *. ur) -. (li *. ui)));
          Array.unsafe_set uim (rk1 + j)
            (Array.unsafe_get uim (rk1 + j) -. ((lr *. ui) +. (li *. ur)))
        done
    end;
    incr k
  done;
  !ok

let solve_into ws yre yim =
  let n = ws.n in
  if Array.length yre <> n || Array.length yim <> n then
    invalid_arg "Hess.solve_into: dimension mismatch";
  let ure = ws.ure and uim = ws.uim in
  (* apply the row exchanges and multipliers *)
  for k = 0 to n - 2 do
    if ws.swapped.(k) then begin
      let tr = yre.(k) and ti = yim.(k) in
      yre.(k) <- yre.(k + 1);
      yim.(k) <- yim.(k + 1);
      yre.(k + 1) <- tr;
      yim.(k + 1) <- ti
    end;
    let lr = ws.lre.(k) and li = ws.lim.(k) in
    let yr = yre.(k) and yi = yim.(k) in
    yre.(k + 1) <- yre.(k + 1) -. ((lr *. yr) -. (li *. yi));
    yim.(k + 1) <- yim.(k + 1) -. ((lr *. yi) +. (li *. yr))
  done;
  (* back substitution with U *)
  for i = n - 1 downto 0 do
    let ri = i * n in
    let ar = ref yre.(i) and ai = ref yim.(i) in
    for j = i + 1 to n - 1 do
      let ur = Array.unsafe_get ure (ri + j)
      and ui = Array.unsafe_get uim (ri + j) in
      let yr = Array.unsafe_get yre j and yi = Array.unsafe_get yim j in
      ar := !ar -. ((ur *. yr) -. (ui *. yi));
      ai := !ai -. ((ur *. yi) +. (ui *. yr))
    done;
    let pr = ure.(ri + i) and pi = uim.(ri + i) in
    if Float.abs pr >= Float.abs pi then begin
      let r = pi /. pr in
      let d = pr +. (r *. pi) in
      yre.(i) <- (!ar +. (r *. !ai)) /. d;
      yim.(i) <- (!ai -. (r *. !ar)) /. d
    end
    else begin
      let r = pr /. pi in
      let d = pi +. (r *. pr) in
      yre.(i) <- ((r *. !ar) +. !ai) /. d;
      yim.(i) <- ((r *. !ai) -. !ar) /. d
    end
  done

(* diagonal-ratio reciprocal-condition proxy, as in Lu and Clu *)
let rcond_estimate ws =
  let n = ws.n in
  let mn = ref infinity and mx = ref 0.0 in
  for i = 0 to n - 1 do
    let d = Float.hypot ws.ure.((i * n) + i) ws.uim.((i * n) + i) in
    if d < !mn then mn := d;
    if d > !mx then mx := d
  done;
  if !mx = 0.0 || not (Float.is_finite !mx) then 0.0 else !mn /. !mx

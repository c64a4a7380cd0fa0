(* Unit and property tests for the dense linear algebra kernels. *)

let check_float = Alcotest.(check (float 1e-9))

let mat_of = Linalg.Mat.of_arrays

let rand_state seed = Random.State.make [| seed; 0x5eed |]

(* a random diagonally-dominant matrix is comfortably invertible *)
let random_dd_matrix st n =
  let a = Linalg.Mat.random st n n in
  for i = 0 to n - 1 do
    Linalg.Mat.update a i i (fun x -> x +. float_of_int n)
  done;
  a

(* ---------------- Vec ---------------- *)

let test_vec_dot () =
  check_float "dot" 32.0 (Linalg.Vec.dot [| 1.0; 2.0; 3.0 |] [| 4.0; 5.0; 6.0 |])

let test_vec_norms () =
  check_float "norm2" 5.0 (Linalg.Vec.norm2 [| 3.0; 4.0 |]);
  check_float "norm_inf" 4.0 (Linalg.Vec.norm_inf [| 3.0; -4.0 |]);
  check_float "dist_inf" 7.0 (Linalg.Vec.dist_inf [| 3.0; -4.0 |] [| 3.0; 3.0 |])

let test_vec_axpy () =
  let y = [| 1.0; 1.0 |] in
  Linalg.Vec.axpy 2.0 [| 1.0; 2.0 |] y;
  check_float "axpy0" 3.0 y.(0);
  check_float "axpy1" 5.0 y.(1)

let test_vec_mismatch () =
  Alcotest.check_raises "dot mismatch" (Invalid_argument "Vec: dimension mismatch")
    (fun () -> ignore (Linalg.Vec.dot [| 1.0 |] [| 1.0; 2.0 |]))

(* ---------------- Mat ---------------- *)

let test_mat_mul_identity () =
  let st = rand_state 1 in
  let a = Linalg.Mat.random st 4 4 in
  let i = Linalg.Mat.identity 4 in
  Alcotest.(check bool)
    "A*I = A" true
    (Linalg.Mat.approx_equal (Linalg.Mat.mul a i) a)

let test_mat_mul_assoc () =
  let st = rand_state 2 in
  let a = Linalg.Mat.random st 3 4 in
  let b = Linalg.Mat.random st 4 5 in
  let c = Linalg.Mat.random st 5 2 in
  let lhs = Linalg.Mat.mul (Linalg.Mat.mul a b) c in
  let rhs = Linalg.Mat.mul a (Linalg.Mat.mul b c) in
  Alcotest.(check bool) "(AB)C = A(BC)" true (Linalg.Mat.approx_equal ~tol:1e-12 lhs rhs)

let test_mat_transpose_involution () =
  let st = rand_state 3 in
  let a = Linalg.Mat.random st 5 3 in
  Alcotest.(check bool)
    "transpose twice" true
    (Linalg.Mat.approx_equal (Linalg.Mat.transpose (Linalg.Mat.transpose a)) a)

let test_mat_mulv_t () =
  let st = rand_state 4 in
  let a = Linalg.Mat.random st 4 3 in
  let x = [| 1.0; -2.0; 0.5; 3.0 |] in
  let expected = Linalg.Mat.mulv (Linalg.Mat.transpose a) x in
  Alcotest.(check bool)
    "mulv_t = (A^T)x" true
    (Linalg.Vec.approx_equal (Linalg.Mat.mulv_t a x) expected)

let test_mat_row_col () =
  let a = mat_of [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check bool) "row" true (Linalg.Vec.approx_equal (Linalg.Mat.row a 1) [| 3.0; 4.0 |]);
  Alcotest.(check bool) "col" true (Linalg.Vec.approx_equal (Linalg.Mat.col a 1) [| 2.0; 4.0 |])

(* ---------------- Lu ---------------- *)

let test_lu_solve_known () =
  let a = mat_of [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Linalg.Lu.solve_system a [| 5.0; 10.0 |] in
  check_float "x0" 1.0 x.(0);
  check_float "x1" 3.0 x.(1)

let test_lu_det () =
  let a = mat_of [| [| 2.0; 0.0 |]; [| 0.0; 3.0 |] |] in
  check_float "det diag" 6.0 (Linalg.Lu.det (Linalg.Lu.factor a));
  let p = mat_of [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  check_float "det permutation" (-1.0) (Linalg.Lu.det (Linalg.Lu.factor p))

let test_lu_singular () =
  let a = mat_of [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.(check bool) "raises Singular" true
    (match Linalg.Lu.factor a with
    | exception Linalg.Lu.Singular _ -> true
    | _ -> false)

let test_lu_inverse () =
  let st = rand_state 5 in
  let a = random_dd_matrix st 6 in
  let inv = Linalg.Lu.inverse a in
  Alcotest.(check bool)
    "A * A^-1 = I" true
    (Linalg.Mat.approx_equal ~tol:1e-10 (Linalg.Mat.mul a inv) (Linalg.Mat.identity 6))

let prop_lu_residual =
  QCheck.Test.make ~count:50 ~name:"lu solves random dd systems"
    QCheck.(pair (int_range 1 12) (int_bound 10000))
    (fun (n, seed) ->
      let st = rand_state seed in
      let a = random_dd_matrix st n in
      let b = Array.init n (fun k -> Random.State.float st 2.0 -. 1.0 +. float_of_int k) in
      let x = Linalg.Lu.solve_system a b in
      Linalg.Vec.dist_inf (Linalg.Mat.mulv a x) b < 1e-8)

(* ---------------- Qr ---------------- *)

let test_qr_r_upper_triangular () =
  let st = rand_state 6 in
  let a = Linalg.Mat.random st 6 4 in
  let r = Linalg.Qr.r (Linalg.Qr.factor a) in
  let ok = ref true in
  for i = 1 to 3 do
    for j = 0 to i - 1 do
      if Float.abs (Linalg.Mat.get r i j) > 1e-14 then ok := false
    done
  done;
  Alcotest.(check bool) "R upper triangular" true !ok

let test_qr_least_squares_exact () =
  (* overdetermined but consistent system *)
  let a = mat_of [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  let x_true = [| 2.0; -1.0 |] in
  let b = Linalg.Mat.mulv a x_true in
  let x = Linalg.Qr.least_squares a b in
  Alcotest.(check bool) "exact recovery" true (Linalg.Vec.approx_equal ~tol:1e-12 x x_true)

let test_qr_vs_normal_equations () =
  let st = rand_state 7 in
  let a = Linalg.Mat.random st 10 4 in
  let b = Array.init 10 (fun _ -> Random.State.float st 2.0 -. 1.0) in
  let x = Linalg.Qr.least_squares a b in
  (* normal equations: A^T A x = A^T b *)
  let ata = Linalg.Mat.mul (Linalg.Mat.transpose a) a in
  let atb = Linalg.Mat.mulv_t a b in
  let x_ne = Linalg.Lu.solve_system ata atb in
  Alcotest.(check bool) "matches normal equations" true
    (Linalg.Vec.approx_equal ~tol:1e-8 x x_ne)

let test_qr_rank_deficient () =
  let a = mat_of [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  Alcotest.(check bool) "raises Rank_deficient" true
    (match Linalg.Qr.least_squares a [| 1.0; 2.0; 3.0 |] with
    | exception Linalg.Qr.Rank_deficient _ -> true
    | _ -> false)

let prop_qr_residual_orthogonal =
  QCheck.Test.make ~count:50 ~name:"qr residual orthogonal to range"
    QCheck.(pair (int_range 2 6) (int_bound 10000))
    (fun (n, seed) ->
      let st = rand_state (seed + 77) in
      let m = n + 4 in
      let a = Linalg.Mat.random st m n in
      let b = Array.init m (fun _ -> Random.State.float st 2.0 -. 1.0) in
      match Linalg.Qr.least_squares a b with
      | exception Linalg.Qr.Rank_deficient _ -> QCheck.assume_fail ()
      | x ->
          let r = Linalg.Vec.sub (Linalg.Mat.mulv a x) b in
          Linalg.Vec.norm_inf (Linalg.Mat.mulv_t a r) < 1e-8)

(* ---------------- Eig ---------------- *)

let sorted_reals eigs =
  let rs = Array.map (fun z -> z.Complex.re) eigs in
  Array.sort Float.compare rs;
  rs

let test_eig_diagonal () =
  let a = mat_of [| [| 3.0; 0.0 |]; [| 0.0; -1.0 |] |] in
  let e = sorted_reals (Linalg.Eig.eigenvalues a) in
  check_float "e0" (-1.0) e.(0);
  check_float "e1" 3.0 e.(1)

let test_eig_rotation () =
  (* [[0,1],[-1,0]] has eigenvalues ±i *)
  let a = mat_of [| [| 0.0; 1.0 |]; [| -1.0; 0.0 |] |] in
  let e = Linalg.Eig.eigenvalues a in
  let ims = Array.map (fun z -> z.Complex.im) e in
  Array.sort Float.compare ims;
  check_float "im0" (-1.0) ims.(0);
  check_float "im1" 1.0 ims.(1);
  Array.iter (fun z -> check_float "re" 0.0 z.Complex.re) e

let test_poly_roots_cubic () =
  (* (x-1)(x-2)(x-3) *)
  let roots = sorted_reals (Linalg.Eig.poly_roots [| -6.0; 11.0; -6.0; 1.0 |]) in
  check_float "r0" 1.0 roots.(0);
  check_float "r1" 2.0 roots.(1);
  check_float "r2" 3.0 roots.(2)

let test_poly_roots_complex () =
  let roots = Linalg.Eig.poly_roots [| 1.0; 0.0; 1.0 |] in
  Array.iter (fun z -> check_float "unit modulus" 1.0 (Complex.norm z)) roots

let test_hessenberg_preserves_eigs () =
  let st = rand_state 8 in
  let a = Linalg.Mat.random st 6 6 in
  let h = Linalg.Eig.hessenberg a in
  (* structurally Hessenberg *)
  let ok = ref true in
  for i = 2 to 5 do
    for j = 0 to i - 2 do
      if Float.abs (Linalg.Mat.get h i j) > 1e-12 then ok := false
    done
  done;
  Alcotest.(check bool) "hessenberg structure" true !ok;
  let tr m =
    let acc = ref 0.0 in
    for i = 0 to 5 do
      acc := !acc +. Linalg.Mat.get m i i
    done;
    !acc
  in
  check_float "similarity preserves trace" (tr a) (tr h)

let prop_eig_trace =
  QCheck.Test.make ~count:40 ~name:"sum of eigenvalues = trace"
    QCheck.(pair (int_range 2 10) (int_bound 10000))
    (fun (n, seed) ->
      let st = rand_state (seed + 13) in
      let a = Linalg.Mat.random st n n in
      let e = Linalg.Eig.eigenvalues a in
      let tr = ref 0.0 in
      for i = 0 to n - 1 do
        tr := !tr +. Linalg.Mat.get a i i
      done;
      let s = Array.fold_left (fun acc z -> acc +. z.Complex.re) 0.0 e in
      let im = Array.fold_left (fun acc z -> acc +. z.Complex.im) 0.0 e in
      Float.abs (s -. !tr) < 1e-6 *. Float.max 1.0 (Float.abs !tr)
      && Float.abs im < 1e-8)

let prop_eig_det =
  QCheck.Test.make ~count:40 ~name:"product of eigenvalues = det"
    QCheck.(pair (int_range 2 8) (int_bound 10000))
    (fun (n, seed) ->
      let st = rand_state (seed + 29) in
      let a = Linalg.Mat.random st n n in
      let e = Linalg.Eig.eigenvalues a in
      let det = Linalg.Lu.det (Linalg.Lu.factor a) in
      let prod = Array.fold_left Complex.mul Complex.one e in
      Float.abs (prod.Complex.re -. det) < 1e-6 *. Float.max 1.0 (Float.abs det)
      && Float.abs prod.Complex.im < 1e-6 *. Float.max 1.0 (Float.abs det))

let prop_poly_roots_reconstruct =
  QCheck.Test.make ~count:30 ~name:"poly_roots finds zeros"
    QCheck.(list_of_size (Gen.int_range 1 5) (float_range (-3.0) 3.0))
    (fun roots ->
      QCheck.assume (roots <> []);
      (* build polynomial from roots, find them again *)
      let coeffs = ref [| 1.0 |] in
      List.iter
        (fun r ->
          let c = !coeffs in
          let n = Array.length c in
          let next = Array.make (n + 1) 0.0 in
          for k = 0 to n - 1 do
            next.(k + 1) <- next.(k + 1) +. c.(k);
            next.(k) <- next.(k) -. (r *. c.(k))
          done;
          coeffs := next)
        roots;
      let found = Linalg.Eig.poly_roots !coeffs in
      (* every true root is close to some found root *)
      List.for_all
        (fun r ->
          Array.exists
            (fun z -> Complex.norm (Complex.sub z { Complex.re = r; im = 0.0 }) < 1e-4)
            found)
        roots)

(* ---------------- Cmat / Clu ---------------- *)

let test_clu_solve () =
  let g = mat_of [| [| 1.0; 0.5 |]; [| 0.25; 2.0 |] |] in
  let c = mat_of [| [| 1e-3; 0.0 |]; [| 0.0; 2e-3 |] |] in
  let s = { Complex.re = 0.0; im = 10.0 } in
  let a = Linalg.Cmat.lincomb Complex.one g s c in
  let b = [| Complex.one; Complex.i |] in
  let x = Linalg.Clu.solve_system a b in
  let back = Linalg.Cmat.mulv a x in
  Array.iteri
    (fun k z ->
      Alcotest.(check bool)
        "residual small" true
        (Complex.norm (Complex.sub z b.(k)) < 1e-12))
    back

let test_cmat_mul_identity () =
  let a =
    Linalg.Cmat.init 3 3 (fun i j ->
        { Complex.re = float_of_int ((i * 3) + j); im = float_of_int (i - j) })
  in
  let i3 = Linalg.Cmat.identity 3 in
  let prod = Linalg.Cmat.mul a i3 in
  let ok = ref true in
  for i = 0 to 2 do
    for j = 0 to 2 do
      if
        Complex.norm (Complex.sub (Linalg.Cmat.get prod i j) (Linalg.Cmat.get a i j))
        > 1e-14
      then ok := false
    done
  done;
  Alcotest.(check bool) "A*I = A (complex)" true !ok

let prop_clu_residual =
  QCheck.Test.make ~count:30 ~name:"complex lu solves random pencils"
    QCheck.(pair (int_range 1 8) (int_bound 10000))
    (fun (n, seed) ->
      let st = rand_state (seed + 41) in
      let g = random_dd_matrix st n in
      let c = Linalg.Mat.random st n n in
      let s = { Complex.re = 0.0; im = Random.State.float st 100.0 } in
      let a = Linalg.Cmat.lincomb Complex.one g s c in
      let b =
        Array.init n (fun _ ->
            {
              Complex.re = Random.State.float st 2.0 -. 1.0;
              im = Random.State.float st 2.0 -. 1.0;
            })
      in
      match Linalg.Clu.solve_system a b with
      | exception Linalg.Clu.Singular _ -> QCheck.assume_fail ()
      | x ->
          let back = Linalg.Cmat.mulv a x in
          Array.for_all2
            (fun z bz -> Complex.norm (Complex.sub z bz) < 1e-7)
            back b)

(* the probe zeroes the first pivot: the elimination reports failure
   instead of raising, so the caller can answer the point another way *)
let test_hess_pivot_probe () =
  let h = Linalg.Eig.hessenberg (Linalg.Mat.random (rand_state 7) 4 4) in
  let ws = Linalg.Hess.workspace 4 in
  let s = { Complex.re = 0.0; im = 1.0 } in
  Fun.protect ~finally:(fun () -> ignore (Fault.disarm ())) (fun () ->
      Fault.arm_exact ~site:"clu.pivot_zero" ~fire_at:1 ~burst:1 ();
      Alcotest.(check bool) "fired: no factorization" false
        (Linalg.Hess.factor ws h s);
      Alcotest.(check bool) "spent: factors again" true
        (Linalg.Hess.factor ws h s))

(* ---------------- workspace kernels ---------------- *)

let random_cpencil st n =
  let g = random_dd_matrix st n in
  let c = Linalg.Mat.random st n n in
  let s = { Complex.re = 0.0; im = Random.State.float st 100.0 } in
  Linalg.Cmat.lincomb Complex.one g s c

(* the [_into] kernels promise bit-identical results to the allocating
   wrappers, so these compare with exact float equality *)
let prop_lu_factor_into_agrees =
  QCheck.Test.make ~count:50 ~name:"lu factor_into/solve_into = factor/solve"
    QCheck.(pair (int_range 1 10) (int_bound 10000))
    (fun (n, seed) ->
      let st = rand_state (seed + 57) in
      let a = random_dd_matrix st n in
      let b = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let x_ref = Linalg.Lu.solve_system a b in
      let ws = Linalg.Lu.workspace n in
      (* reuse the workspace twice: a stale factorization must not leak *)
      Linalg.Lu.factor_into ws (random_dd_matrix st n);
      Linalg.Lu.factor_into ws a;
      let x = Array.make n 0.0 in
      Linalg.Lu.solve_into ws b x;
      x = x_ref)

let prop_clu_factor_into_agrees =
  QCheck.Test.make ~count:50 ~name:"clu factor_into/solve_into = factor/solve"
    QCheck.(pair (int_range 1 8) (int_bound 10000))
    (fun (n, seed) ->
      let st = rand_state (seed + 91) in
      let a = random_cpencil st n in
      let b =
        Array.init n (fun _ ->
            {
              Complex.re = Random.State.float st 2.0 -. 1.0;
              im = Random.State.float st 2.0 -. 1.0;
            })
      in
      let x_ref = Linalg.Clu.solve_system a b in
      let ws = Linalg.Clu.workspace n in
      Linalg.Clu.factor_into ws (random_cpencil st n);
      Linalg.Clu.factor_into ws a;
      let x = Array.make n Complex.zero in
      Linalg.Clu.solve_into ws b x;
      x = x_ref)

let prop_lincomb_into_agrees =
  QCheck.Test.make ~count:50 ~name:"cmat lincomb_into = lincomb"
    QCheck.(pair (int_range 1 8) (int_bound 10000))
    (fun (n, seed) ->
      let st = rand_state (seed + 23) in
      let g = Linalg.Mat.random st n n and c = Linalg.Mat.random st n n in
      let s = { Complex.re = Random.State.float st 2.0; im = Random.State.float st 100.0 } in
      let expected = Linalg.Cmat.lincomb Complex.one g s c in
      let dst = Linalg.Cmat.create n n in
      Linalg.Cmat.lincomb_into dst Complex.one g s c;
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Linalg.Cmat.get dst i j <> Linalg.Cmat.get expected i j then ok := false
        done
      done;
      !ok)

let test_solve_into_rejects_aliasing () =
  let a = mat_of [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let f = Linalg.Lu.factor a in
  let b = [| 5.0; 10.0 |] in
  Alcotest.check_raises "aliasing rejected"
    (Invalid_argument "Lu.solve_into: b and x must not alias") (fun () ->
      Linalg.Lu.solve_into f b b)

let test_workspace_size_mismatch () =
  let ws = Linalg.Lu.workspace 3 in
  Alcotest.(check bool) "size mismatch rejected" true
    (match Linalg.Lu.factor_into ws (Linalg.Mat.identity 2) with
    | exception Invalid_argument _ -> true
    | () -> false)

(* ---------------- Qr workspace API: bitwise parity ---------------- *)

(* the in-place kernels promise the very same arithmetic sequence as the
   copying entry points, so these comparisons are on raw float bits *)
let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_bits_arr name xs ys =
  Alcotest.(check int) (name ^ " length") (Array.length xs) (Array.length ys);
  Array.iteri
    (fun i x ->
      Alcotest.(check bool)
        (Printf.sprintf "%s.(%d) %h = %h" name i x ys.(i))
        true (bits_eq x ys.(i)))
    xs

let check_bits_mat name a b =
  Alcotest.(check int) (name ^ " rows") (Linalg.Mat.rows a) (Linalg.Mat.rows b);
  Alcotest.(check int) (name ^ " cols") (Linalg.Mat.cols a) (Linalg.Mat.cols b);
  for i = 0 to Linalg.Mat.rows a - 1 do
    check_bits_arr
      (Printf.sprintf "%s row %d" name i)
      (Linalg.Mat.row a i) (Linalg.Mat.row b i)
  done

(* copy [a] into the workspace's cached matrix, as the fast relocation
   kernel does before factoring in place *)
let ws_copy ws a =
  let m = Linalg.Mat.rows a and n = Linalg.Mat.cols a in
  let w = Linalg.Qr.ws_matrix ws ~rows:m ~cols:n in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      Linalg.Mat.set w i j (Linalg.Mat.get a i j)
    done
  done;
  w

let test_qr_factor_into_bitwise () =
  let st = rand_state 31 in
  let ws = Linalg.Qr.workspace () in
  (* reusing one workspace across shapes is the intended pattern *)
  List.iter
    (fun (m, n) ->
      let a = Linalg.Mat.random st m n in
      let b = Array.init m (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let qr = Linalg.Qr.factor a in
      let t = Linalg.Qr.factor_into ws (ws_copy ws a) in
      check_bits_mat (Printf.sprintf "R %dx%d" m n) (Linalg.Qr.r qr)
        (Linalg.Qr.r t);
      let qtb = Linalg.Qr.apply_qt qr b in
      let b' = Array.copy b in
      Linalg.Qr.apply_qt_into t b';
      check_bits_arr (Printf.sprintf "Qt b %dx%d" m n) qtb b')
    [ (6, 3); (9, 5); (4, 4) ]

let test_qr_apply_qt_mat_bitwise () =
  let st = rand_state 32 in
  let a = Linalg.Mat.random st 8 4 in
  let bmat = Linalg.Mat.random st 8 3 in
  let qr = Linalg.Qr.factor a in
  let ws = Linalg.Qr.workspace () in
  let t = Linalg.Qr.factor_into ws (ws_copy ws a) in
  let expect = Array.init 3 (fun j -> Linalg.Qr.apply_qt qr (Linalg.Mat.col bmat j)) in
  Linalg.Qr.apply_qt_mat t bmat;
  for j = 0 to 2 do
    check_bits_arr (Printf.sprintf "QtB col %d" j) expect.(j) (Linalg.Mat.col bmat j)
  done

let test_qr_block_extraction_bitwise () =
  let st = rand_state 33 in
  let m = 10 and n1 = 3 and n2 = 4 in
  let a = Linalg.Mat.random st m (n1 + n2) in
  let b = Array.init m (fun _ -> Random.State.float st 2.0 -. 1.0) in
  let qr = Linalg.Qr.factor a in
  let r = Linalg.Qr.r qr in
  let qtb = Linalg.Qr.apply_qt qr b in
  let ws = Linalg.Qr.workspace () in
  let t = Linalg.Qr.factor_into ws (ws_copy ws a) in
  let dst = Linalg.Mat.init (2 * n2) n2 (fun _ _ -> 7.0) in
  Linalg.Qr.r22_block t ~split:n1 dst n2;
  for k = 0 to n2 - 1 do
    for c = 0 to n2 - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "R22 (%d,%d)" k c)
        true
        (bits_eq (Linalg.Mat.get dst (n2 + k) c) (Linalg.Mat.get r (n1 + k) (n1 + c)))
    done
  done;
  (* rows above the destination offset untouched *)
  Alcotest.(check bool) "dst offset respected" true
    (Linalg.Mat.get dst 0 0 = 7.0);
  let big = Array.make (2 * n2) 7.0 in
  Linalg.Qr.apply_qt_block t ~split:n1 b big n2;
  check_bits_arr "Q2t b" (Array.sub qtb n1 n2) (Array.sub big n2 n2);
  Alcotest.(check bool) "rhs offset respected" true (big.(0) = 7.0)

let test_qr_least_squares_into_bitwise () =
  let st = rand_state 34 in
  let a = Linalg.Mat.random st 12 5 in
  let b = Array.init 12 (fun _ -> Random.State.float st 2.0 -. 1.0) in
  let x = Linalg.Qr.least_squares a b in
  let ws = Linalg.Qr.workspace () in
  let x' = Linalg.Qr.least_squares_into ws (ws_copy ws a) (Array.copy b) in
  check_bits_arr "solution" x x'

(* the shared-Q1 two-stage factorization of the uniform-weighting fast
   path: factor the common left block once, push its reflectors onto the
   right block, then QR only the tail rows. Reflector k of a Householder
   factorization depends only on columns <= k, so the staged R22 must be
   bit-identical to the one-shot factorization's trailing block. *)
let test_qr_two_stage_shared_q1_bitwise () =
  let st = rand_state 35 in
  let m = 11 and n1 = 4 and n2 = 3 in
  let a1 = Linalg.Mat.random st m n1 in
  let a2 = Linalg.Mat.random st m n2 in
  let full =
    Linalg.Mat.init m (n1 + n2) (fun i j ->
        if j < n1 then Linalg.Mat.get a1 i j else Linalg.Mat.get a2 i (j - n1))
  in
  let qr_full = Linalg.Qr.factor full in
  let r_full = Linalg.Qr.r qr_full in
  let ws1 = Linalg.Qr.workspace () and ws2 = Linalg.Qr.workspace () in
  let t1 = Linalg.Qr.factor_into ws1 (ws_copy ws1 a1) in
  let a2' = Linalg.Mat.init m n2 (fun i j -> Linalg.Mat.get a2 i j) in
  Linalg.Qr.apply_qt_mat t1 a2';
  let tail = Linalg.Mat.init (m - n1) n2 (fun i j -> Linalg.Mat.get a2' (n1 + i) j) in
  let t2 = Linalg.Qr.factor_into ws2 (ws_copy ws2 tail) in
  let dst = Linalg.Mat.create n2 n2 in
  Linalg.Qr.r22_block t2 ~split:0 dst 0;
  for k = 0 to n2 - 1 do
    for c = 0 to n2 - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "staged R22 (%d,%d)" k c)
        true
        (bits_eq (Linalg.Mat.get dst k c) (Linalg.Mat.get r_full (n1 + k) (n1 + c)))
    done
  done

(* ---------------- Cx ---------------- *)

let test_cx_ops () =
  let z = Linalg.Cx.make 3.0 4.0 in
  check_float "norm" 5.0 (Linalg.Cx.norm z);
  check_float "norm2" 25.0 (Linalg.Cx.norm2 z);
  let w = Linalg.Cx.(z *: conj z) in
  check_float "z * conj z" 25.0 w.Complex.re;
  check_float "imag zero" 0.0 w.Complex.im;
  Alcotest.(check bool) "inv" true
    (Linalg.Cx.approx_equal Linalg.Cx.(inv (inv z)) z)

(* ---------------- Hessenberg frequency-response kernels ---------------- *)

let rand_complex st =
  {
    Complex.re = Random.State.float st 2.0 -. 1.0;
    im = Random.State.float st 2.0 -. 1.0;
  }

(* the allocating column-wise solve: the order [solve_mat_into] keeps *)
let prop_lu_solve_mat_into_bitwise =
  QCheck.Test.make ~count:50 ~name:"lu solve_mat_into = column solve_into"
    QCheck.(triple (int_range 1 9) (int_range 1 4) (int_bound 10000))
    (fun (n, m, seed) ->
      let st = rand_state (seed + 113) in
      let f = Linalg.Lu.factor (random_dd_matrix st n) in
      let b = Linalg.Mat.random st n m in
      let x = Linalg.Mat.create n m in
      Linalg.Lu.solve_mat_into f b x;
      List.for_all
        (fun j -> Linalg.Lu.solve f (Linalg.Mat.col b j) = Linalg.Mat.col x j)
        (List.init m Fun.id))

(* The column-at-a-time Householder reduction [Eig] ran before its
   kernel went flat and row-oriented. Vector-fitting pole relocation
   depends on [Eig.eigenvalues] staying bit-identical, so the kernel
   must reproduce this reference to the bit. *)
let reference_hessenberg a =
  let n = Linalg.Mat.rows a in
  let a = Linalg.Mat.copy a in
  let get = Linalg.Mat.get and set = Linalg.Mat.set in
  let v = Array.make n 0.0 in
  for k = 0 to n - 3 do
    let nrm = ref 0.0 in
    for i = k + 1 to n - 1 do
      nrm := !nrm +. (get a i k *. get a i k)
    done;
    let nrm = sqrt !nrm in
    if nrm > 0.0 then begin
      let x0 = get a (k + 1) k in
      let alpha = if x0 >= 0.0 then -.nrm else nrm in
      let vtv = ref 0.0 in
      for i = k + 1 to n - 1 do
        v.(i) <- get a i k;
        if i = k + 1 then v.(i) <- v.(i) -. alpha;
        vtv := !vtv +. (v.(i) *. v.(i))
      done;
      if !vtv > 0.0 then begin
        let beta = 2.0 /. !vtv in
        for j = k to n - 1 do
          let dot = ref 0.0 in
          for i = k + 1 to n - 1 do
            dot := !dot +. (v.(i) *. get a i j)
          done;
          let s = beta *. !dot in
          if s <> 0.0 then
            for i = k + 1 to n - 1 do
              set a i j (get a i j -. (s *. v.(i)))
            done
        done;
        for i = 0 to n - 1 do
          let dot = ref 0.0 in
          for j = k + 1 to n - 1 do
            dot := !dot +. (get a i j *. v.(j))
          done;
          let s = beta *. !dot in
          if s <> 0.0 then
            for j = k + 1 to n - 1 do
              set a i j (get a i j -. (s *. v.(j)))
            done
        done;
        set a (k + 1) k alpha;
        for i = k + 2 to n - 1 do
          set a i k 0.0
        done
      end
    end
  done;
  a

let prop_hessenberg_bitwise_reference =
  QCheck.Test.make ~count:50 ~name:"hessenberg_into = column-wise reference"
    QCheck.(pair (int_range 1 12) (int_bound 10000))
    (fun (n, seed) ->
      let a = Linalg.Mat.random (rand_state (seed + 167)) n n in
      let bits m = Array.map Int64.bits_of_float (Linalg.Mat.unsafe_data m) in
      bits (Linalg.Eig.hessenberg a) = bits (reference_hessenberg a))

(* Q is orthogonal, A = Q·H·Qᵀ, and asking for Q leaves H unchanged *)
let prop_hessenberg_into_q =
  QCheck.Test.make ~count:50 ~name:"hessenberg_into accumulates Q"
    QCheck.(pair (int_range 1 10) (int_bound 10000))
    (fun (n, seed) ->
      let st = rand_state (seed + 131) in
      let a = Linalg.Mat.random st n n in
      let h = Linalg.Mat.copy a and q = Linalg.Mat.create n n in
      Linalg.Eig.hessenberg_into ~q h;
      let qt = Linalg.Mat.transpose q in
      Linalg.Mat.unsafe_data h
      = Linalg.Mat.unsafe_data (Linalg.Eig.hessenberg a)
      && Linalg.Mat.approx_equal ~tol:1e-12
           (Linalg.Mat.mul (Linalg.Mat.mul q h) qt) a
      && Linalg.Mat.approx_equal ~tol:1e-12 (Linalg.Mat.mul qt q)
           (Linalg.Mat.identity n))

(* (I + s·H) y = b through the O(n²) kernel, checked against the dense
   complex LU of the same matrix *)
let prop_hess_shifted_solve =
  QCheck.Test.make ~count:50 ~name:"hess shifted solve = dense clu"
    QCheck.(pair (int_range 1 10) (int_bound 10000))
    (fun (n, seed) ->
      let st = rand_state (seed + 149) in
      let h = Linalg.Eig.hessenberg (Linalg.Mat.random st n n) in
      let s = Complex.mul (rand_complex st) { Complex.re = 3.0; im = 0.0 } in
      let b = Array.init n (fun _ -> rand_complex st) in
      let dense =
        Linalg.Cmat.lincomb Complex.one (Linalg.Mat.identity n) s h
      in
      match Linalg.Clu.solve_system dense b with
      | exception Linalg.Clu.Singular _ -> QCheck.assume_fail ()
      | x_ref ->
          let ws = Linalg.Hess.workspace n in
          QCheck.assume (Linalg.Hess.factor ws h s);
          let yre = Array.map (fun z -> z.Complex.re) b
          and yim = Array.map (fun z -> z.Complex.im) b in
          Linalg.Hess.solve_into ws yre yim;
          let scale =
            Array.fold_left (fun a z -> Float.max a (Complex.norm z)) 0.0 x_ref
          in
          let err = ref 0.0 in
          Array.iteri
            (fun i z ->
              let y = { Complex.re = yre.(i); im = yim.(i) } in
              err := Float.max !err (Complex.norm (Complex.sub z y)))
            x_ref;
          !err <= 1e-10 *. scale
          && Linalg.Hess.rcond_estimate ws > 0.0
          && Linalg.Hess.rcond_estimate ws <= 1.0)

(* ---------------- Eig bit-pattern pins ---------------- *)

(* [Eig.eigenvalues] runs balancing, the Hessenberg reduction and the
   QR iteration on the flat store; these pins hold the eigenvalue bit
   patterns of the column-access implementation it replaced, so any
   change of a float operation shows. One case per branch of the QR
   iteration: a 1x1 matrix, a complex 2x2 block, a real split, a cyclic
   permutation (its double-shift steps stall until the exceptional
   shift at its = 10), and a 24x24 relocation matrix A - b*c/d of the
   buffer's state fit at 24 poles. *)
let eig_bits m =
  Array.map
    (fun z -> (Int64.bits_of_float z.Complex.re, Int64.bits_of_float z.Complex.im))
    (Linalg.Eig.eigenvalues m)

(* the relocation matrix from its pole pairs (alpha, beta) and the sigma
   coefficients c and d, built as [Vfit] builds it *)
let relocation_pole_pairs =
  [|
    (0x1.2bf62966e5e2ap-1, 0x1.eb851eb851eb7p-6);
    (0x1.410c39bc497eap-1, 0x1.65ce8e7b28ed7p-4);
    (0x1.8059977cd6e14p-1, 0x1.09a94feaa58ffp-3);
    (0x1.cd8fdbecb4754p-1, 0x1.26e5d7a39899fp-3);
    (0x1.0d8cf6ebb0624p+0, 0x1.5435fce97e17dp-3);
    (0x1.3741cdac2b654p+0, 0x1.3dcc1d7557e46p-3);
    (0x1.3b9a0944375d2p+0, 0x1.67ec221a9659dp-5);
    (0x1.463c1be45ff16p-1, 0x1.47f5060e23408p-4);
    (0x1.9dd57ba3b890ap-1, 0x1.eb851eb851eb7p-6);
    (0x1.e1a5d33db23acp-1, 0x1.f1ef2a279da8p-6);
    (0x1.0ffff1c273c86p+0, 0x1.2b81d9d2bfb3p-5);
    (0x1.41ac2194de75dp+0, 0x1.eb851eb851eb7p-6)
  |]

let relocation_c =
  [|
    0x1.0f210c9eb21f9p-7; 0x1.0121acf63e4abp-8; 0x1.55e375de5a4c4p-5;
    0x1.9e04ea0a3de21p-4; 0x1.1f5aab695a45ep-9; 0x1.47b61c8dc1653p-7;
    0x1.0cc8fc83bef2ap-7; -0x1.f5b2f3cb62c8p-12; 0x1.37c112199abbdp-6;
    -0x1.0872011097a49p-7; 0x1.33cb0f978167cp-4; 0x1.eb91715415cfbp-14;
    0x1.0b9d141e57397p-6; -0x1.1d7ef730f3446p-7; -0x1.a27011a4fdf2fp-4;
    -0x1.4c4f4e9cf1b99p-4; -0x1.73c78df318921p-9; 0x1.85df4dc9d426bp-14;
    -0x1.29aff2ea0e7e7p-9; 0x1.73736387381bp-9; 0x1.531355684acf8p-9;
    0x1.5a905524446b6p-8; 0x1.e36630240ae3ep-6; 0x1.a94dfe2de379ep-6
  |]

let relocation_d = 0x1.64233b50cd579p+0

let relocation_matrix () =
  let n = 2 * Array.length relocation_pole_pairs in
  let a = Linalg.Mat.create n n and b = Array.make n 0.0 in
  Array.iteri
    (fun k (alpha, beta) ->
      let i = 2 * k in
      Linalg.Mat.set a i i alpha;
      Linalg.Mat.set a i (i + 1) beta;
      Linalg.Mat.set a (i + 1) i (-.beta);
      Linalg.Mat.set a (i + 1) (i + 1) alpha;
      b.(i) <- 2.0)
    relocation_pole_pairs;
  Linalg.Mat.init n n (fun r c ->
      Linalg.Mat.get a r c -. (b.(r) *. relocation_c.(c) /. relocation_d))

let eig_pins =
  [
    ("1x1", mat_of [| [| -2.5 |] |], [| (0xc004000000000000L, 0x0L) |]);
    ( "complex 2x2",
      mat_of [| [| 1.0; -2.0 |]; [| 3.0; 0.5 |] |],
      [|
        (0x3fe8000000000000L, 0xc0037e5bd40f95a1L);
        (0x3fe8000000000000L, 0x40037e5bd40f95a1L)
      |] );
    ( "real split",
      mat_of [| [| 4.0; 1.0 |]; [| 2.0; 3.0 |] |],
      [|
        (0x4014000000000000L, 0x0L); (0x4000000000000000L, 0x0L)
      |] );
    ( "exceptional shift",
      mat_of [| [| 0.0; 0.0; 1.0 |]; [| 1.0; 0.0; 0.0 |]; [| 0.0; 1.0; 0.0 |] |],
      [|
        (0xbfe0000000000001L, 0xbfebb67ae8584cabL);
        (0xbfe0000000000001L, 0x3febb67ae8584cabL);
        (0x3ff0000000000002L, 0x0L)
      |] );
    ( "24x24 relocation",
      relocation_matrix (),
      [|
        (0x3fe28dd35fafbc6aL, 0xbf9a08991674401eL);
        (0x3fe28dd35fafbc6aL, 0x3f9a08991674401eL);
        (0x3fe3abcbfa200362L, 0xbfb38b6432275317L);
        (0x3fe3abcbfa200362L, 0x3fb38b6432275317L);
        (0x3ff2c230e645722cL, 0xbfbe2bb2053d6bc6L);
        (0x3ff2c230e645722cL, 0x3fbe2bb2053d6bc6L);
        (0x3ff3f2492506a965L, 0x0L);
        (0x3ff3941d1db87c0cL, 0xbf9ba688134fd9b7L);
        (0x3ff3941d1db87c0cL, 0x3f9ba688134fd9b7L);
        (0x3ff32677aa55e740L, 0x0L);
        (0x3fe76c0dd2b0109cL, 0xbfc0637ecf1f8bf7L);
        (0x3fe76c0dd2b0109cL, 0x3fc0637ecf1f8bf7L);
        (0x3fe642d0da02687bL, 0x0L);
        (0x3ff044c1572eea3eL, 0xbfc41dbb677fe398L);
        (0x3ff044c1572eea3eL, 0x3fc41dbb677fe398L);
        (0x3fec23a7db5a0cbbL, 0xbfc33499b820a872L);
        (0x3fec23a7db5a0cbbL, 0x3fc33499b820a872L);
        (0x3ff126bc4cec6b23L, 0x0L); (0x3fe8a7c836fdb280L, 0x0L);
        (0x3fe9de24d7174313L, 0x0L); (0x3ff06fd56317ae03L, 0x0L);
        (0x3fedf00f34876292L, 0x0L); (0x3fef0fcfc3a9deaaL, 0x0L);
        (0x3feb0bf5c0be6f77L, 0x0L)
      |] );
  ]

let test_eig_bit_pins () =
  List.iter
    (fun (name, m, expected) ->
      Alcotest.(check bool) name true (eig_bits m = expected))
    eig_pins

(* the flat kernels allocate the working copy, a few n-vectors and the
   result: no float is boxed inside the iteration *)
let test_eig_allocation () =
  let m = relocation_matrix () in
  ignore (Linalg.Eig.eigenvalues m);
  let words =
    Alloc.words_of (fun () ->
        ignore (Sys.opaque_identity (Linalg.Eig.eigenvalues m)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "24x24 eigenvalues allocate %.0f words (bound 4000)" words)
    true (words <= 4000.0)


let qsuite = [ prop_lu_residual; prop_qr_residual_orthogonal; prop_eig_trace;
               prop_eig_det; prop_poly_roots_reconstruct; prop_clu_residual;
               prop_lu_factor_into_agrees; prop_clu_factor_into_agrees;
               prop_lincomb_into_agrees; prop_lu_solve_mat_into_bitwise;
               prop_hessenberg_bitwise_reference; prop_hessenberg_into_q;
               prop_hess_shifted_solve ]

let suite =
  [
    Alcotest.test_case "vec dot" `Quick test_vec_dot;
    Alcotest.test_case "vec norms" `Quick test_vec_norms;
    Alcotest.test_case "vec axpy" `Quick test_vec_axpy;
    Alcotest.test_case "vec mismatch" `Quick test_vec_mismatch;
    Alcotest.test_case "mat mul identity" `Quick test_mat_mul_identity;
    Alcotest.test_case "mat mul assoc" `Quick test_mat_mul_assoc;
    Alcotest.test_case "mat transpose involution" `Quick test_mat_transpose_involution;
    Alcotest.test_case "mat mulv_t" `Quick test_mat_mulv_t;
    Alcotest.test_case "mat row/col" `Quick test_mat_row_col;
    Alcotest.test_case "lu solve known" `Quick test_lu_solve_known;
    Alcotest.test_case "lu det" `Quick test_lu_det;
    Alcotest.test_case "lu singular" `Quick test_lu_singular;
    Alcotest.test_case "lu inverse" `Quick test_lu_inverse;
    Alcotest.test_case "qr upper triangular" `Quick test_qr_r_upper_triangular;
    Alcotest.test_case "qr exact recovery" `Quick test_qr_least_squares_exact;
    Alcotest.test_case "qr vs normal equations" `Quick test_qr_vs_normal_equations;
    Alcotest.test_case "qr rank deficient" `Quick test_qr_rank_deficient;
    Alcotest.test_case "eig diagonal" `Quick test_eig_diagonal;
    Alcotest.test_case "eig rotation" `Quick test_eig_rotation;
    Alcotest.test_case "poly roots cubic" `Quick test_poly_roots_cubic;
    Alcotest.test_case "poly roots complex" `Quick test_poly_roots_complex;
    Alcotest.test_case "hessenberg structure" `Quick test_hessenberg_preserves_eigs;
    Alcotest.test_case "hess pivot probe" `Quick test_hess_pivot_probe;
    Alcotest.test_case "clu pencil solve" `Quick test_clu_solve;
    Alcotest.test_case "cmat identity" `Quick test_cmat_mul_identity;
    Alcotest.test_case "cx ops" `Quick test_cx_ops;
    Alcotest.test_case "solve_into rejects aliasing" `Quick
      test_solve_into_rejects_aliasing;
    Alcotest.test_case "workspace size mismatch" `Quick test_workspace_size_mismatch;
    Alcotest.test_case "qr factor_into bitwise" `Quick test_qr_factor_into_bitwise;
    Alcotest.test_case "qr apply_qt_mat bitwise" `Quick test_qr_apply_qt_mat_bitwise;
    Alcotest.test_case "qr block extraction bitwise" `Quick
      test_qr_block_extraction_bitwise;
    Alcotest.test_case "qr least_squares_into bitwise" `Quick
      test_qr_least_squares_into_bitwise;
    Alcotest.test_case "qr two-stage shared Q1 bitwise" `Quick
      test_qr_two_stage_shared_q1_bitwise;
    Alcotest.test_case "eig bit-pattern pins" `Quick test_eig_bit_pins;
    Alcotest.test_case "eig allocation bound" `Quick test_eig_allocation;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qsuite

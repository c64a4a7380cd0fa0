type weighting = Uniform | Inv_magnitude | Inv_sqrt
type relocation_kernel = Dense | Fast

type opts = {
  iterations : int;
  with_const : bool;
  with_slope : bool;
  enforce_stable : bool;
  min_imag : float;
  relax : bool;
  weighting : weighting;
  max_magnitude : float;
  relocation_kernel : relocation_kernel;
}

let default_frequency_opts =
  {
    iterations = 10;
    with_const = true;
    with_slope = false;
    enforce_stable = true;
    min_imag = 0.0;
    relax = true;
    weighting = Inv_sqrt;
    max_magnitude = 0.0;
    relocation_kernel = Fast;
  }

let default_state_opts =
  {
    iterations = 10;
    with_const = true;
    with_slope = false;
    enforce_stable = false;
    min_imag = 1e-6;
    relax = true;
    weighting = Uniform;
    max_magnitude = 0.0;
    relocation_kernel = Fast;
  }

type info = {
  rms : float;
  max_err : float;
  iterations_run : int;
  pole_count : int;
}

let src = Logs.Src.create "vf" ~doc:"vector fitting"

module Log = (val Logs.src_log src : Logs.LOG)

let weights_of opts data =
  Array.map
    (fun row ->
      match opts.weighting with
      | Uniform -> Array.map (fun _ -> 1.0) row
      | Inv_magnitude | Inv_sqrt ->
          let base =
            Array.fold_left (fun m z -> Float.max m (Complex.norm z)) 0.0 row
          in
          let floor_mag = Float.max (1e-4 *. base) 1e-300 in
          Array.map
            (fun z ->
              let m = Float.max (Complex.norm z) floor_mag in
              match opts.weighting with
              | Inv_magnitude -> 1.0 /. m
              | Inv_sqrt -> 1.0 /. sqrt m
              | Uniform -> 1.0)
            row)
    data

(* Column scales make the basis columns O(1); the same scales are applied
   to the residue columns and the sigma columns so that solutions can be
   unscaled independently per column. *)
let column_scales phi_table points n_points p =
  let scales = Array.make p 1.0 in
  for col = 0 to p - 1 do
    let m = ref 0.0 in
    for l = 0 to n_points - 1 do
      m := Float.max !m (Complex.norm phi_table.(l).(col))
    done;
    if !m > 0.0 then scales.(col) <- 1.0 /. !m
  done;
  let zmax =
    Array.fold_left (fun m z -> Float.max m (Complex.norm z)) 0.0 points
  in
  (scales, if zmax > 0.0 then 1.0 /. zmax else 1.0)

(* --- row layouts ------------------------------------------------------ *)

(* A least-squares block of the fit stacks, per point l, a real row and
   an imaginary row. The full layout interleaves them (rows 2l, 2l+1).
   At real points with real data and a real basis table, every entry of
   an imaginary row is a product with an exact zero factor (φ.im, z.im
   or F.im) and finite others, so it is ±0. The real-axis layout keeps
   the first [head] rows of the full layout — the Householder pivot rows
   of the block — and below them only the real rows. A reflector never
   fills a row that is all zeros, and such a row adds only exact zeros
   to the column norms and dot products, so with the pivot rows in place
   every factor the fit reads (R, Q₂ᵀV, the solutions) is bit-identical
   to the full layout's. [head = 2·n_points] is the full layout. *)
type layout = { head : int; n_points : int }

let layout_rows lay = lay.head + lay.n_points - ((lay.head + 1) / 2)

let[@inline] re_row lay l =
  if 2 * l < lay.head then 2 * l else lay.head + l - ((lay.head + 1) / 2)

(* -1 when the point's imaginary row is dropped *)
let[@inline] im_row lay l = if (2 * l) + 1 < lay.head then (2 * l) + 1 else -1

let is_real (z : Complex.t) = z.Complex.im = 0.0 && Float.is_finite z.Complex.re

(* The real-axis layout with [head] pivot rows when the inputs put an
   exact zero in every imaginary row, else the full layout. Chosen from
   the values alone: the state and static stages of RVF and the
   recursion's fits are real, the frequency stage is not. *)
let layout_of ~head ~phi ~scales ~zscale ~points ~data ~weights =
  let n_points = Array.length points in
  let real =
    Float.is_finite zscale
    && Array.for_all Float.is_finite scales
    && Array.for_all is_real points
    && Array.for_all (Array.for_all is_real) phi
    && Array.for_all (Array.for_all is_real) data
    && Array.for_all (Array.for_all Float.is_finite) weights
  in
  { head = (if real then Stdlib.min head (2 * n_points) else 2 * n_points);
    n_points }

(* [w·φ·scale | w | w·z·zscale] of one element into the leading columns
   of [a] (row stride [cols a]): the residue, constant and slope columns
   the sigma step and the residue identification share. Writes through
   the flat row-major store, with the values of the [Mat.set]
   formulation of the reference kernel. *)
let fill_phi0 ~opts ~lay ~phi ~scales ~zscale ~points a we =
  let p = Array.length scales in
  let d = Linalg.Mat.unsafe_data a in
  let nc = Linalg.Mat.cols a in
  for l = 0 to lay.n_points - 1 do
    let w = Array.unsafe_get we l in
    let re_base = re_row lay l * nc in
    let im = im_row lay l in
    let im_base = im * nc in
    let row = phi.(l) in
    for c = 0 to p - 1 do
      let v = Array.unsafe_get row c in
      let sc = Array.unsafe_get scales c in
      Array.unsafe_set d (re_base + c) (w *. v.Complex.re *. sc);
      if im >= 0 then Array.unsafe_set d (im_base + c) (w *. v.Complex.im *. sc)
    done;
    let cursor = ref p in
    if opts.with_const then begin
      Array.unsafe_set d (re_base + !cursor) w;
      incr cursor
    end;
    if opts.with_slope then begin
      Array.unsafe_set d (re_base + !cursor) (w *. points.(l).Complex.re *. zscale);
      if im >= 0 then
        Array.unsafe_set d (im_base + !cursor)
          (w *. points.(l).Complex.im *. zscale);
      incr cursor
    end
  done

(* the weighted data [w·F] of one element as a right-hand side *)
let fill_rhs ~lay buf we de =
  for l = 0 to lay.n_points - 1 do
    let w = we.(l) and f = de.(l) in
    buf.(re_row lay l) <- w *. f.Complex.re;
    let im = im_row lay l in
    if im >= 0 then buf.(im) <- w *. f.Complex.im
  done

(* per-relocation telemetry: how far sigma is from its constant part
   (→ 0 as the poles converge), the relaxation constant, the spread of
   the column scales (a conditioning proxy for the stacked LS system)
   and how many relocated poles had to be reflected into the left half
   plane *)
type reloc_diag = {
  sigma_rms : float;
  d_tilde : float;
  scale_spread : float;
  flips : int;
}

(* Nontriviality row weight: the mean weighted |F| over all samples. *)
let relax_row_weight ~weights ~data =
  let acc = ref 0.0 and cnt = ref 0 in
  Array.iteri
    (fun e row ->
      Array.iteri
        (fun l z ->
          acc := !acc +. (weights.(e).(l) *. Complex.norm z);
          incr cnt)
        row)
    data;
  Float.max (!acc /. float_of_int (Stdlib.max 1 !cnt)) 1e-12

(* Append the relaxed nontriviality row Σ_l Re σ(z_l) = n_points to the
   condensed system at [row]. *)
let add_relax_row ~phi ~scales ~weights ~data ~p ~n_points big big_rhs row =
  let w_relax = relax_row_weight ~weights ~data in
  for c = 0 to p - 1 do
    let s = ref 0.0 in
    for l = 0 to n_points - 1 do
      s := !s +. phi.(l).(c).Complex.re
    done;
    Linalg.Mat.set big row c (w_relax *. !s *. scales.(c))
  done;
  Linalg.Mat.set big row p (w_relax *. float_of_int n_points);
  big_rhs.(row) <- w_relax *. float_of_int n_points

(* Unscale the condensed-system solution and derive the per-iteration
   telemetry; shared verbatim by the dense and fast kernels. *)
let sigma_post ~relax ~phi ~scales ~n_points ~p sol =
  let c_tilde = Array.init p (fun c -> sol.(c) *. scales.(c)) in
  let d_tilde = if relax then sol.(p) else 1.0 in
  (* RMS of sigma's non-constant part over the fit points: Σ c̃·φ
     summed in slot order, re and im apart *)
  let sigma_rms =
    let acc = ref 0.0 in
    for l = 0 to n_points - 1 do
      let zr = ref 0.0 and zi = ref 0.0 in
      let row = phi.(l) in
      for c = 0 to p - 1 do
        let v = row.(c) and k = c_tilde.(c) in
        zr := !zr +. (k *. v.Complex.re);
        zi := !zi +. (k *. v.Complex.im)
      done;
      acc := !acc +. ((!zr *. !zr) +. (!zi *. !zi))
    done;
    sqrt (!acc /. float_of_int (Stdlib.max 1 n_points))
  in
  let scale_spread =
    let lo = ref Float.infinity and hi = ref 0.0 in
    Array.iter
      (fun s ->
        if s > 0.0 then begin
          lo := Float.min !lo s;
          hi := Float.max !hi s
        end)
      scales;
    if !hi > 0.0 && Float.is_finite !lo then !hi /. !lo else 1.0
  in
  (c_tilde, d_tilde, sigma_rms, scale_spread)

(* Solve for the sigma coefficients (c-tilde, d-tilde) given current
   poles. Returns None if the least squares degenerates. Legacy kernel:
   one dense per-element system, freshly allocated and factored with the
   copying QR entry points — kept behind [opts.relocation_kernel = Dense]
   as the differential-testing reference. *)
let sigma_step_dense ~opts ~poles ~points ~data ~weights ~relax =
  let p = Array.length poles in
  let n_points = Array.length points in
  let n_elems = Array.length data in
  let phi = Basis.table poles points in
  let scales, zscale = column_scales phi points n_points p in
  let n1 = p + (if opts.with_const then 1 else 0) + (if opts.with_slope then 1 else 0) in
  let n2 = if relax then p + 1 else p in
  if 2 * n_points < n1 + n2 then
    invalid_arg
      (Printf.sprintf "Vfit: %d points cannot determine %d unknowns" n_points
         (n1 + n2));
  let stacked_rows = (n_elems * n2) + if relax then 1 else 0 in
  let big = Linalg.Mat.create stacked_rows n2 in
  let big_rhs = Linalg.Vec.create stacked_rows in
  let row_cursor = ref 0 in
  for e = 0 to n_elems - 1 do
    let a = Linalg.Mat.create (2 * n_points) (n1 + n2) in
    let rhs = Linalg.Vec.create (2 * n_points) in
    for l = 0 to n_points - 1 do
      let w = weights.(e).(l) in
      let f = data.(e).(l) in
      let re_row = 2 * l and im_row = (2 * l) + 1 in
      (* per-element columns: residues, const, slope *)
      for c = 0 to p - 1 do
        let v = phi.(l).(c) in
        Linalg.Mat.set a re_row c (w *. v.Complex.re *. scales.(c));
        Linalg.Mat.set a im_row c (w *. v.Complex.im *. scales.(c))
      done;
      let cursor = ref p in
      if opts.with_const then begin
        Linalg.Mat.set a re_row !cursor w;
        incr cursor
      end;
      if opts.with_slope then begin
        Linalg.Mat.set a re_row !cursor (w *. points.(l).Complex.re *. zscale);
        Linalg.Mat.set a im_row !cursor (w *. points.(l).Complex.im *. zscale);
        incr cursor
      end;
      (* sigma columns: −w·F·φ (and −w·F for d-tilde in relaxed mode) *)
      for c = 0 to p - 1 do
        let v = Complex.mul f phi.(l).(c) in
        Linalg.Mat.set a re_row (n1 + c) (-.w *. v.Complex.re *. scales.(c));
        Linalg.Mat.set a im_row (n1 + c) (-.w *. v.Complex.im *. scales.(c))
      done;
      if relax then begin
        Linalg.Mat.set a re_row (n1 + p) (-.w *. f.Complex.re);
        Linalg.Mat.set a im_row (n1 + p) (-.w *. f.Complex.im)
      end
      else begin
        (* non-relaxed: sigma = 1 + Σ c̃φ, the "1" moves to the RHS *)
        rhs.(re_row) <- w *. f.Complex.re;
        rhs.(im_row) <- w *. f.Complex.im
      end
    done;
    (* condense: only the trailing n2×n2 block of R couples the shared
       unknowns (fast VF of ref. [9]) *)
    match Linalg.Qr.factor a with
    | exception Linalg.Qr.Rank_deficient _ -> ()
    | qr ->
        let r = Linalg.Qr.r qr in
        let qtb =
          if relax then Linalg.Vec.create (2 * n_points)
          else Linalg.Qr.apply_qt qr rhs
        in
        for k = 0 to n2 - 1 do
          for c = 0 to n2 - 1 do
            Linalg.Mat.set big (!row_cursor + k) c
              (Linalg.Mat.get r (n1 + k) (n1 + c))
          done;
          big_rhs.(!row_cursor + k) <- (if relax then 0.0 else qtb.(n1 + k))
        done;
        row_cursor := !row_cursor + n2
  done;
  if relax then begin
    add_relax_row ~phi ~scales ~weights ~data ~p ~n_points big big_rhs
      !row_cursor;
    incr row_cursor
  end;
  let rows_used = !row_cursor in
  if rows_used < n2 then None
  else begin
    let m = Linalg.Mat.init rows_used n2 (fun r c -> Linalg.Mat.get big r c) in
    let rhs = Array.sub big_rhs 0 rows_used in
    match Linalg.Qr.least_squares m rhs with
    | exception Linalg.Qr.Rank_deficient _ -> None
    | sol -> Some (sigma_post ~relax ~phi ~scales ~n_points ~p sol)
  end

(* --- fast relocation kernel ------------------------------------------ *)

(* Per-element scratch: the element QR workspace, the uniform-path tail
   workspace and a right-hand-side buffer. One per chunk when fanned
   out across a pool, one persistent instance on the sequential path;
   the sigma step and the per-element residue identification share it. *)
type elem_ws = {
  qa : Linalg.Qr.ws;
  qtail : Linalg.Qr.ws;
  mutable rhs_buf : float array;
}

let make_elem_ws () =
  {
    qa = Linalg.Qr.workspace ();
    qtail = Linalg.Qr.workspace ();
    rhs_buf = [||];
  }

let rhs_of ews rows =
  if Array.length ews.rhs_buf <> rows then ews.rhs_buf <- Array.make rows 0.0;
  ews.rhs_buf

(* Fit workspace: created once per [fit] call, or once per [fit_auto]
   escalation and handed to each attempt, and reused by every sigma step
   of every iteration and by the residue identification, so the
   steady-state fit performs no large allocations. *)
type fit_ws = {
  shared : Linalg.Qr.ws;  (** shared-φ0 factorization (uniform weighting) *)
  qbig : Linalg.Qr.ws;  (** condensed system and its in-place solve *)
  qident : Linalg.Qr.ws;  (** shared identification (uniform weighting) *)
  seq_elem : elem_ws;
  mutable big_rhs : float array;
}

let make_fit_ws () =
  {
    shared = Linalg.Qr.workspace ();
    qbig = Linalg.Qr.workspace ();
    qident = Linalg.Qr.workspace ();
    seq_elem = make_elem_ws ();
    big_rhs = [||];
  }

(* pool-parked per-chunk element workspaces for the element fan-outs *)
let elem_ws_key : elem_ws Exec.key = Exec.new_key ()

(* [process ews e] for every element, sequentially on [fws]'s element
   workspace or fanned out across [pool] on per-chunk ones *)
let each_element ?pool ~fws ~label n_elems process =
  match pool with
  | Some pool when n_elems > 1 ->
      ignore
        (Exec.parallel_init_ws ~pool ~label
           ~ws:(fun chunk ->
             Exec.slot pool elem_ws_key ~chunk
               ~valid:(fun _ -> true)
               ~make:make_elem_ws)
           n_elems process)
  | _ ->
      for e = 0 to n_elems - 1 do
        process fws.seq_elem e
      done

(* Fast-VF sigma step (Deschrijver et al. 2008; SNIPPETS.md snippet 3):
   per element QR-factor [phi0 | −D·phi1] and keep only the trailing
   [R22] block (and [Q2ᵀV] rhs block in non-relaxed mode), accumulated
   at a fixed row offset of the small condensed system. Identical
   per-entry arithmetic to [sigma_step_dense] — [Qr.factor_into] is
   bit-compatible with [Qr.factor] — so the two kernels agree bitwise;
   the speed comes from in-place workspace factorization, from the
   real-axis row layout (the n1 + n2 pivot rows, then real rows only)
   and, under uniform weighting, from factoring the shared [phi0] block
   once and pushing its reflectors onto each element's sigma block
   ([Qr.apply_qt_mat]) instead of refactoring it per element. Elements
   are independent and write disjoint rows, so they optionally fan out
   across [pool] with bit-identical results. *)
let sigma_step_fast ?pool ~fws ~opts ~poles ~points ~data ~weights ~relax () =
  let p = Array.length poles in
  let n_points = Array.length points in
  let n_elems = Array.length data in
  let phi = Basis.table poles points in
  let scales, zscale = column_scales phi points n_points p in
  let n1 = p + (if opts.with_const then 1 else 0) + (if opts.with_slope then 1 else 0) in
  let n2 = if relax then p + 1 else p in
  if 2 * n_points < n1 + n2 then
    invalid_arg
      (Printf.sprintf "Vfit: %d points cannot determine %d unknowns" n_points
         (n1 + n2));
  let lay =
    layout_of ~head:(n1 + n2) ~phi ~scales ~zscale ~points ~data ~weights
  in
  let m_rows = layout_rows lay in
  let stacked_rows = (n_elems * n2) + if relax then 1 else 0 in
  let big = Linalg.Qr.ws_matrix fws.qbig ~rows:stacked_rows ~cols:n2 in
  if Array.length fws.big_rhs <> stacked_rows then
    fws.big_rhs <- Array.make stacked_rows 0.0
  else Array.fill fws.big_rhs 0 stacked_rows 0.0;
  let big_rhs = fws.big_rhs in
  (* the residue/const/slope block [phi0] is element-independent exactly
     when the row weights are: under uniform weighting factor it once
     and reuse its reflectors for every element *)
  let share_phi0 = opts.weighting = Uniform && n1 > 0 && n_elems > 1 in
  let fill_phi0 = fill_phi0 ~opts ~lay ~phi ~scales ~zscale ~points in
  (* the sigma block: −w·F·φ·scale (and −w·F in relaxed mode), the boxed
     [Complex.mul f v] of the reference kernel inlined *)
  let fill_sigma a ~col0 ~e =
    let d = Linalg.Mat.unsafe_data a in
    let nc = Linalg.Mat.cols a in
    let we = weights.(e) and de = data.(e) in
    for l = 0 to n_points - 1 do
      let w = Array.unsafe_get we l in
      let f = Array.unsafe_get de l in
      let fr = f.Complex.re and fi = f.Complex.im in
      let re_base = (re_row lay l * nc) + col0 in
      let im = im_row lay l in
      let im_base = (im * nc) + col0 in
      let row = phi.(l) in
      for c = 0 to p - 1 do
        let v = Array.unsafe_get row c in
        let vr = (fr *. v.Complex.re) -. (fi *. v.Complex.im) in
        let sc = Array.unsafe_get scales c in
        Array.unsafe_set d (re_base + c) (-.w *. vr *. sc);
        if im >= 0 then begin
          let vi = (fr *. v.Complex.im) +. (fi *. v.Complex.re) in
          Array.unsafe_set d (im_base + c) (-.w *. vi *. sc)
        end
      done;
      if relax then begin
        Array.unsafe_set d (re_base + p) (-.w *. fr);
        if im >= 0 then Array.unsafe_set d (im_base + p) (-.w *. fi)
      end
    done
  in
  let t1 =
    if not share_phi0 then None
    else begin
      let a1 = Linalg.Qr.ws_matrix fws.shared ~rows:m_rows ~cols:n1 in
      fill_phi0 a1 weights.(0);
      Some (Linalg.Qr.factor_into fws.shared a1)
    end
  in
  let process ews e =
    match t1 with
    | Some t1 ->
        (* two-stage factorization: reflectors of the shared [phi0]
           pushed onto this element's sigma block, then QR of the tail
           rows — bit-identical to factoring [phi0 | sigma] whole *)
        let a2 = Linalg.Qr.ws_matrix ews.qa ~rows:m_rows ~cols:n2 in
        fill_sigma a2 ~col0:0 ~e;
        Linalg.Qr.apply_qt_mat t1 a2;
        let tail_rows = m_rows - n1 in
        let tail = Linalg.Qr.ws_matrix ews.qtail ~rows:tail_rows ~cols:n2 in
        Array.blit
          (Linalg.Mat.unsafe_data a2)
          (n1 * n2)
          (Linalg.Mat.unsafe_data tail)
          0
          (tail_rows * n2);
        let t2 = Linalg.Qr.factor_into ews.qtail tail in
        Linalg.Qr.r22_block t2 ~split:0 big (e * n2);
        if not relax then begin
          let rhs = rhs_of ews m_rows in
          fill_rhs ~lay rhs weights.(e) data.(e);
          Linalg.Qr.apply_qt_into t1 rhs;
          Linalg.Qr.apply_qt_into t2 ~off:n1 rhs;
          for k = 0 to n2 - 1 do
            big_rhs.((e * n2) + k) <- rhs.(n1 + k)
          done
        end
    | None ->
        let a = Linalg.Qr.ws_matrix ews.qa ~rows:m_rows ~cols:(n1 + n2) in
        fill_phi0 a weights.(e);
        fill_sigma a ~col0:n1 ~e;
        let t = Linalg.Qr.factor_into ews.qa a in
        Linalg.Qr.r22_block t ~split:n1 big (e * n2);
        if not relax then begin
          let rhs = rhs_of ews m_rows in
          fill_rhs ~lay rhs weights.(e) data.(e);
          Linalg.Qr.apply_qt_block t ~split:n1 rhs big_rhs (e * n2)
        end
  in
  each_element ?pool ~fws ~label:"vf.sigma" n_elems process;
  if relax then
    add_relax_row ~phi ~scales ~weights ~data ~p ~n_points big big_rhs
      (n_elems * n2);
  match Linalg.Qr.least_squares_into fws.qbig big big_rhs with
  | exception Linalg.Qr.Rank_deficient _ -> None
  | sol -> Some (sigma_post ~relax ~phi ~scales ~n_points ~p sol)

let sigma_step ?pool ~fws ~opts ~poles ~points ~data ~weights ~relax () =
  match opts.relocation_kernel with
  | Dense -> sigma_step_dense ~opts ~poles ~points ~data ~weights ~relax
  | Fast -> sigma_step_fast ?pool ~fws ~opts ~poles ~points ~data ~weights ~relax ()

let relocate_poles ?pool ~fws ~opts ~poles ~points ~data ~weights () =
  let attempt relax =
    match sigma_step ?pool ~fws ~opts ~poles ~points ~data ~weights ~relax () with
    | None -> None
    | Some (c_tilde, d_tilde, sigma_rms, scale_spread) ->
        if relax && Float.abs d_tilde < 1e-8 then None
        else begin
          let a, b = Basis.state_matrices poles in
          let p = Array.length poles in
          let m =
            Linalg.Mat.init p p (fun r c ->
                Linalg.Mat.get a r c -. (b.(r) *. c_tilde.(c) /. d_tilde))
          in
          match Linalg.Eig.eigenvalues m with
          | exception Linalg.Eig.No_convergence -> None
          | eigs ->
              (* clamp in place ([eigs] is fresh); |re| + |im| bounds the
                 modulus, so a pole inside the limit costs no boxed norm *)
              if opts.max_magnitude > 0.0 then
                for i = 0 to Array.length eigs - 1 do
                  let a = eigs.(i) in
                  if
                    Float.abs a.Complex.re +. Float.abs a.Complex.im
                    > opts.max_magnitude
                  then begin
                    let m = Complex.norm a in
                    if m > opts.max_magnitude then
                      eigs.(i) <- Linalg.Cx.scale (opts.max_magnitude /. m) a
                  end
                done;
              let flips =
                if not opts.enforce_stable then 0
                else
                  Array.fold_left
                    (fun acc a -> if a.Complex.re >= 0.0 then acc + 1 else acc)
                    0 eigs
              in
              Some
                ( Pole.normalize ~enforce_stable:opts.enforce_stable
                    ~min_imag:opts.min_imag eigs,
                  { sigma_rms; d_tilde; scale_spread; flips } )
        end
  in
  match attempt opts.relax with
  | Some result -> Some result
  | None -> if opts.relax then attempt false else None

(* Residue identification with fixed poles: one small least-squares
   problem [w·φ0 | w | w·z] c = w·F per element. [Dense] is the
   reference: per element a fresh full-layout matrix and
   [Qr.least_squares], optionally fanned out across the pool (disjoint
   writes per element, so results are bit-identical to the sequential
   loop). [Fast] uses the row layout of the sigma step with the n1
   pivot rows, and under uniform weighting — where the matrix is the
   same for every element — factors it once and applies its reflectors
   to each element's right-hand side; otherwise each element factors in
   its own reused workspace. [Qr.factor_into]/[Qr.apply_qt_into] are
   bit-compatible with [Qr.least_squares], so both kernels return the
   same model. *)
let identify ?pool ~fws ~opts ~poles ~points ~data ~weights () =
  let p = Array.length poles in
  let n_points = Array.length points in
  let n_elems = Array.length data in
  let phi = Basis.table poles points in
  let scales, zscale = column_scales phi points n_points p in
  let n1 = p + (if opts.with_const then 1 else 0) + (if opts.with_slope then 1 else 0) in
  let coeffs = Array.map (fun _ -> Array.make p 0.0) data in
  let consts = Array.map (fun _ -> 0.0) data in
  let slopes = Array.map (fun _ -> 0.0) data in
  let store e solve =
    match solve () with
    | exception Linalg.Qr.Rank_deficient _ ->
        Log.warn (fun m -> m "residue identification rank-deficient (element %d)" e)
    | sol ->
        for c = 0 to p - 1 do
          coeffs.(e).(c) <- sol.(c) *. scales.(c)
        done;
        let cursor = ref p in
        if opts.with_const then begin
          consts.(e) <- sol.(!cursor);
          incr cursor
        end;
        if opts.with_slope then slopes.(e) <- sol.(!cursor) *. zscale
  in
  (match opts.relocation_kernel with
  | Dense ->
      let fit_element e row =
        let a = Linalg.Mat.create (2 * n_points) n1 in
        let rhs = Linalg.Vec.create (2 * n_points) in
        for l = 0 to n_points - 1 do
          let w = weights.(e).(l) in
          let re_row = 2 * l and im_row = (2 * l) + 1 in
          for c = 0 to p - 1 do
            let v = phi.(l).(c) in
            Linalg.Mat.set a re_row c (w *. v.Complex.re *. scales.(c));
            Linalg.Mat.set a im_row c (w *. v.Complex.im *. scales.(c))
          done;
          let cursor = ref p in
          if opts.with_const then begin
            Linalg.Mat.set a re_row !cursor w;
            incr cursor
          end;
          if opts.with_slope then begin
            Linalg.Mat.set a re_row !cursor (w *. points.(l).Complex.re *. zscale);
            Linalg.Mat.set a im_row !cursor (w *. points.(l).Complex.im *. zscale);
            incr cursor
          end;
          rhs.(re_row) <- w *. row.(l).Complex.re;
          rhs.(im_row) <- w *. row.(l).Complex.im
        done;
        store e (fun () -> Linalg.Qr.least_squares a rhs)
      in
      (match pool with
      | Some pool when n_elems > 1 ->
          ignore
            (Exec.parallel_init ~pool ~label:"vf.identify" n_elems
               (fun e -> fit_element e data.(e)))
      | _ -> Array.iteri fit_element data)
  | Fast ->
      let lay =
        layout_of ~head:n1 ~phi ~scales ~zscale ~points ~data ~weights
      in
      let rows = layout_rows lay in
      let fill_phi0 = fill_phi0 ~opts ~lay ~phi ~scales ~zscale ~points in
      if opts.weighting = Uniform then begin
        let a = Linalg.Qr.ws_matrix fws.qident ~rows ~cols:n1 in
        fill_phi0 a weights.(0);
        let t = Linalg.Qr.factor_into fws.qident a in
        let rhs = rhs_of fws.seq_elem rows in
        for e = 0 to n_elems - 1 do
          fill_rhs ~lay rhs weights.(e) data.(e);
          Linalg.Qr.apply_qt_into t rhs;
          store e (fun () -> Linalg.Qr.solve_r t rhs)
        done
      end
      else
        each_element ?pool ~fws ~label:"vf.identify" n_elems (fun ews e ->
            let a = Linalg.Qr.ws_matrix ews.qa ~rows ~cols:n1 in
            fill_phi0 a weights.(e);
            let rhs = rhs_of ews rows in
            fill_rhs ~lay rhs weights.(e) data.(e);
            store e (fun () -> Linalg.Qr.least_squares_into ews.qa a rhs)));
  { Model.poles; coeffs; consts; slopes }

let finite_model (m : Model.t) =
  Guard.finite_complex_array m.Model.poles
  && Array.for_all Guard.finite_array m.Model.coeffs
  && Guard.finite_array m.Model.consts
  && Guard.finite_array m.Model.slopes

(* [fit] on the caller's workspace *)
let fit_in ~fws ?(opts = default_frequency_opts) ?cancel ?obs ?pool
    ?(label = "vfit") ~poles ~points ~data () =
  if Array.length data = 0 then invalid_arg "Vfit.fit: no elements";
  Array.iter
    (fun row ->
      if Array.length row <> Array.length points then
        invalid_arg "Vfit.fit: data/points length mismatch")
    data;
  Obs.span obs
    ~args:
      [ ("label", Trace.Str label);
        ("poles", Trace.Int (Array.length poles));
        ("points", Trace.Int (Array.length points)) ]
    "vf.fit"
  @@ fun () ->
  let weights = weights_of opts data in
  let poles = ref (Pole.normalize ~enforce_stable:opts.enforce_stable
                     ~min_imag:opts.min_imag poles) in
  let iterations_run = ref 0 in
  (try
     for it = 1 to opts.iterations do
       Obs.span obs ~args:[ ("it", Trace.Int it) ] "vf.relocate"
       @@ fun () ->
       Cancel.check cancel ~site:"vf.relocate";
       if Fault.should_fire "vf.spin" then Cancel.hang cancel ~site:"vf.relocate";
       match
         relocate_poles ?pool ~fws ~opts ~poles:!poles ~points ~data ~weights ()
       with
       | Some (poles', rd) ->
           iterations_run := it;
           poles := poles';
           if Fault.should_fire "vf.pole_flip" && Array.length poles' > 0
           then begin
             (* reflect one relocated pole into the right half plane —
                both members when it heads a conjugate pair, keeping
                the normalized pair layout intact *)
             let flip i =
               poles'.(i) <-
                 {
                   poles'.(i) with
                   Complex.re = Float.abs poles'.(i).Complex.re +. 1.0;
                 }
             in
             flip 0;
             if poles'.(0).Complex.im <> 0.0 && Array.length poles' > 1 then
               flip 1
           end;
           Obs.observe obs (label ^ ".sigma_rms") rd.sigma_rms;
           Obs.observe obs (label ^ ".column_scale_spread") rd.scale_spread;
           if rd.flips > 0 then
             Obs.count obs (label ^ ".unstable_pole_flips") rd.flips;
           (match obs with
           | None -> ()
           | Some _ ->
               (* the fast kernel's condensed-system QR is the most
                  condition-sensitive factorization in the stack; the
                  dense kernel has no workspace to read, so skip it *)
               if opts.relocation_kernel = Fast then
                 Obs.rcond obs ~site:"vf.sigma_qr" Linalg.Qr.last_rcond fws.qbig;
               Obs.vf_iteration obs ~label ~iteration:it
                 ~sigma_rms:rd.sigma_rms ~d_tilde:rd.d_tilde
                 ~scale_spread:rd.scale_spread ~flips:rd.flips !poles)
       | None ->
           Log.debug (fun m -> m "pole relocation stalled at iteration %d" it);
           Obs.count obs (label ^ ".stalled_relocations") 1;
           raise Exit
     done
   with Exit -> ());
  (* post-relocation checks: finite poles, runaway detection against
     the span of the fit points, and stability repair for the injected
     (or numerically produced) right-half-plane pole that slipped past
     the in-loop normalization *)
  let p = !poles in
  if not (Guard.finite_complex_array p) then
    Guard.fail ~site:(label ^ ".poles") "non-finite relocated poles";
  let zmax =
    Array.fold_left (fun m z -> Float.max m (Complex.norm z)) 0.0 points
  in
  Array.iter
    (fun a ->
      if zmax > 0.0 && Complex.norm a > Guard.max_pole_growth *. zmax then
        Guard.fail ~site:(label ^ ".poles")
          (Printf.sprintf
             "pole runaway: |p| = %.3e exceeds %g x the largest fit point \
              %.3e"
             (Complex.norm a) Guard.max_pole_growth zmax))
    p;
  if opts.enforce_stable && Array.exists (fun a -> a.Complex.re >= 0.0) p
  then begin
    let n_unstable =
      Array.fold_left
        (fun acc a -> if a.Complex.re >= 0.0 then acc + 1 else acc)
        0 p
    in
    Obs.count obs (label ^ ".guard_stabilized") n_unstable;
    Obs.warn obs ~stage:label
      (Printf.sprintf
         "guard reflected %d unstable pole(s) into the left half plane"
         n_unstable);
    poles := Pole.normalize ~enforce_stable:true ~min_imag:opts.min_imag p
  end;
  let model = identify ?pool ~fws ~opts ~poles:!poles ~points ~data ~weights () in
  if not (finite_model model) then
    Guard.fail ~site:(label ^ ".model")
      "non-finite coefficients in fitted model";
  let rms, max_err = Model.errors model ~points ~data in
  Obs.observe obs (label ^ ".fit_rms") rms;
  ( model,
    {
      rms;
      max_err;
      iterations_run = !iterations_run;
      pole_count = Array.length !poles;
    } )

let fit ?opts ?cancel ?obs ?pool ?label ~poles ~points ~data () =
  fit_in ~fws:(make_fit_ws ()) ?opts ?cancel ?obs ?pool ?label ~poles ~points
    ~data ()

let fit_auto ?(opts = default_frequency_opts) ?cancel ?obs ?pool
    ?(label = "vfit") ~make_poles ?(start = 2) ?(step = 2) ?(max_poles = 40)
    ~tol ~points ~data () =
  Obs.span obs ~args:[ ("label", Trace.Str label) ] "vf.fit_auto"
  @@ fun () ->
  (* the last per-attempt failure, kept so that a fully unsuccessful
     escalation can report *why* instead of a bare "no successful fit" *)
  let last_failure = ref None in
  let fail_no_fit () =
    let detail =
      match !last_failure with
      | Some (count, msg) ->
          Printf.sprintf " (last attempt: %d poles, %s)" count msg
      | None ->
          Printf.sprintf " (no pole count attempted: start %d > max_poles %d)"
            start max_poles
    in
    Obs.error obs ~stage:label ("fit_auto: no successful fit" ^ detail);
    invalid_arg ("Vfit.fit_auto: no successful fit" ^ detail)
  in
  let fws = make_fit_ws () in
  let settle (model, (info : info)) =
    Obs.note obs (label ^ ".settled_poles") (string_of_int info.pole_count);
    Obs.observe obs (label ^ ".settled_rms") info.rms;
    Obs.vf_settled obs ~label ~pole_count:info.pole_count ~rms:info.rms;
    (model, info)
  in
  let rec loop count best =
    if count > max_poles then begin
      match best with Some mi -> settle mi | None -> fail_no_fit ()
    end
    else begin
      Obs.count obs (label ^ ".attempts") 1;
      Cancel.check cancel ~site:"vf.fit_auto";
      match
        fit_in ~fws ~opts ?cancel ?obs ?pool ~label
          ~poles:(make_poles count) ~points ~data ()
      with
      | exception Guard.Violation v ->
          (* a guard failure at this count (pole runaway, non-finite
             model) may vanish with a different start-pole set — keep
             escalating instead of giving up *)
          last_failure := Some (count, Guard.describe v);
          Obs.count obs (label ^ ".guard_violations") 1;
          Obs.warn obs ~stage:label
            (Printf.sprintf "attempt with %d poles hit a guard: %s" count
               (Guard.describe v));
          Obs.violation obs ~site:label
            (Printf.sprintf "%d poles: %s" count (Guard.describe v));
          loop (count + step) best
      | exception Invalid_argument msg -> begin
          (* typically: too few points for this many unknowns — stop
             escalating and keep the best admissible model *)
          Log.info (fun m -> m "fit_auto: stopping at %d poles (%s)" count msg);
          last_failure := Some (count, msg);
          Obs.warn obs ~stage:label
            (Printf.sprintf "attempt with %d poles failed: %s" count msg);
          match best with Some mi -> settle mi | None -> fail_no_fit ()
        end
      | model, info ->
          Log.info (fun m ->
              m "fit_auto: %d poles -> rms %.3e (tol %.3e)" info.pole_count
                info.rms tol);
          Obs.vf_attempt obs ~label ~pole_count:info.pole_count ~rms:info.rms
            ~tol ~accepted:(info.rms <= tol);
          if info.rms <= tol then settle (model, info)
          else begin
            last_failure :=
              Some (count, Printf.sprintf "rms %.3e above tol %.3e" info.rms tol);
            let best =
              match best with
              | Some (_, bi) when bi.rms <= info.rms -> best
              | Some _ | None -> Some (model, info)
            in
            loop (count + step) best
          end
    end
  in
  loop start None

exception Rank_deficient of int

(* Householder vectors are stored below the diagonal of [qr] with the
   scaling factors in [beta]; the diagonal of R is in [rdiag]. *)
type t = { qr : Mat.t; beta : float array; rdiag : float array }

(* Column-at-a-time Householder QR on a copy: the reference the
   workspace kernels below are pinned against. Indexes the flat store,
   in the order of the column loops. *)
let factor a =
  let m = Mat.rows a and n = Mat.cols a in
  if m < n then invalid_arg "Qr.factor: requires rows >= cols";
  let qr = Mat.copy a in
  let d = Mat.unsafe_data qr in
  let beta = Array.make n 0.0 in
  let rdiag = Array.make n 0.0 in
  for k = 0 to n - 1 do
    (* norm of column k below row k *)
    let nrm = ref 0.0 in
    for i = k to m - 1 do
      let x = d.((i * n) + k) in
      nrm := !nrm +. (x *. x)
    done;
    let nrm = sqrt !nrm in
    if nrm = 0.0 then begin
      beta.(k) <- 0.0;
      rdiag.(k) <- 0.0
    end
    else begin
      let akk = d.((k * n) + k) in
      let alpha = if akk >= 0.0 then -.nrm else nrm in
      (* v = x - alpha*e1, stored in place; v_k below *)
      d.((k * n) + k) <- akk -. alpha;
      let vtv = ref 0.0 in
      for i = k to m - 1 do
        let v = d.((i * n) + k) in
        vtv := !vtv +. (v *. v)
      done;
      beta.(k) <- (if !vtv = 0.0 then 0.0 else 2.0 /. !vtv);
      rdiag.(k) <- alpha;
      (* apply H = I - beta v vT to remaining columns *)
      for j = k + 1 to n - 1 do
        let dot = ref 0.0 in
        for i = k to m - 1 do
          dot := !dot +. (d.((i * n) + k) *. d.((i * n) + j))
        done;
        let s = beta.(k) *. !dot in
        if s <> 0.0 then
          for i = k to m - 1 do
            d.((i * n) + j) <- d.((i * n) + j) -. (s *. d.((i * n) + k))
          done
      done
    end
  done;
  { qr; beta; rdiag }

let r { qr; rdiag; _ } =
  let n = Mat.cols qr in
  Mat.init n n (fun i j ->
      if i = j then rdiag.(i) else if i < j then Mat.get qr i j else 0.0)

let apply_qt { qr; beta; _ } b =
  let m = Mat.rows qr and n = Mat.cols qr in
  if Array.length b <> m then invalid_arg "Qr.apply_qt: dimension mismatch";
  let q = Mat.unsafe_data qr in
  let y = Array.copy b in
  for k = 0 to n - 1 do
    if beta.(k) <> 0.0 then begin
      let dot = ref 0.0 in
      for i = k to m - 1 do
        dot := !dot +. (q.((i * n) + k) *. y.(i))
      done;
      let s = beta.(k) *. !dot in
      if s <> 0.0 then
        for i = k to m - 1 do
          y.(i) <- y.(i) -. (s *. q.((i * n) + k))
        done
    end
  done;
  y

(* indexes the flat store: a cross-module [Mat.get] is not inlined and
   boxes its float *)
let solve_r { qr; rdiag; _ } c =
  let n = Mat.cols qr in
  let q = Mat.unsafe_data qr in
  let scale = ref 0.0 in
  for k = 0 to n - 1 do
    scale := Float.max !scale (Float.abs rdiag.(k))
  done;
  let tol = !scale *. float_of_int n *. epsilon_float in
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    if Float.abs rdiag.(i) <= tol then raise (Rank_deficient i);
    let acc = ref c.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (q.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !acc /. rdiag.(i)
  done;
  x

let least_squares a b =
  let f = factor a in
  solve_r f (apply_qt f b)

(* --- workspace (in-place, allocation-free) factorization ------------- *)

type ws = {
  mutable wm : Mat.t option;  (** cached [ws_matrix] storage *)
  mutable beta_b : float array;
  mutable rdiag_b : float array;
  mutable dots : float array;  (** reflector/column dot scratch *)
  mutable qtb : float array;  (** [least_squares_into] rhs scratch *)
  mutable last_n : int;
      (** columns of the most recent [factor_into]; the buffers grow
          monotonically, so this bounds the live prefix of [rdiag_b] *)
}

let workspace () =
  { wm = None; beta_b = [||]; rdiag_b = [||]; dots = [||]; qtb = [||]; last_n = 0 }

let ws_matrix ws ~rows ~cols =
  match ws.wm with
  | Some m when Mat.rows m = rows && Mat.cols m = cols ->
      Array.fill (Mat.unsafe_data m) 0 (rows * cols) 0.0;
      m
  | _ ->
      let m = Mat.create rows cols in
      ws.wm <- Some m;
      m

let ensure_cap ws ~m ~n =
  if Array.length ws.beta_b < n then begin
    ws.beta_b <- Array.make n 0.0;
    ws.rdiag_b <- Array.make n 0.0;
    ws.dots <- Array.make n 0.0
  end;
  if Array.length ws.qtb < m then ws.qtb <- Array.make m 0.0

(* In-place Householder factorization of [a] (contents consumed), tau and
   diagonal buffers reused from [ws]. The trailing-column update runs as
   two row-major passes (dot accumulation, then subtraction) over the
   flat storage: per element the arithmetic — and hence the result bit
   pattern — is exactly that of [factor], but the walk is cache-friendly
   and allocation-free. *)
let factor_into ws a =
  let m = Mat.rows a and n = Mat.cols a in
  if m < n then invalid_arg "Qr.factor_into: requires rows >= cols";
  ensure_cap ws ~m ~n;
  ws.last_n <- n;
  let d = Mat.unsafe_data a in
  let beta = ws.beta_b and rdiag = ws.rdiag_b and dots = ws.dots in
  for k = 0 to n - 1 do
    let nrm = ref 0.0 in
    let idx = ref ((k * n) + k) in
    for _ = k to m - 1 do
      let x = Array.unsafe_get d !idx in
      nrm := !nrm +. (x *. x);
      idx := !idx + n
    done;
    let nrm = sqrt !nrm in
    if nrm = 0.0 then begin
      beta.(k) <- 0.0;
      rdiag.(k) <- 0.0
    end
    else begin
      let akk = Array.unsafe_get d ((k * n) + k) in
      let alpha = if akk >= 0.0 then -.nrm else nrm in
      Array.unsafe_set d ((k * n) + k) (akk -. alpha);
      let vtv = ref 0.0 in
      let idx = ref ((k * n) + k) in
      for _ = k to m - 1 do
        let v = Array.unsafe_get d !idx in
        vtv := !vtv +. (v *. v);
        idx := !idx + n
      done;
      let bk = if !vtv = 0.0 then 0.0 else 2.0 /. !vtv in
      beta.(k) <- bk;
      rdiag.(k) <- alpha;
      if k + 1 < n then begin
        Array.fill dots (k + 1) (n - k - 1) 0.0;
        for i = k to m - 1 do
          let row = i * n in
          let vi = Array.unsafe_get d (row + k) in
          for j = k + 1 to n - 1 do
            Array.unsafe_set dots j
              (Array.unsafe_get dots j +. (vi *. Array.unsafe_get d (row + j)))
          done
        done;
        for j = k + 1 to n - 1 do
          Array.unsafe_set dots j (bk *. Array.unsafe_get dots j)
        done;
        for i = k to m - 1 do
          let row = i * n in
          let vi = Array.unsafe_get d (row + k) in
          for j = k + 1 to n - 1 do
            let s = Array.unsafe_get dots j in
            if s <> 0.0 then
              Array.unsafe_set d (row + j)
                (Array.unsafe_get d (row + j) -. (s *. vi))
          done
        done
      end
    end
  done;
  { qr = a; beta; rdiag }

let apply_qt_into t ?(off = 0) y =
  let m = Mat.rows t.qr and n = Mat.cols t.qr in
  if off < 0 || Array.length y < off + m then
    invalid_arg "Qr.apply_qt_into: dimension mismatch";
  let q = Mat.unsafe_data t.qr in
  for k = 0 to n - 1 do
    let bk = t.beta.(k) in
    if bk <> 0.0 then begin
      let dot = ref 0.0 in
      let idx = ref ((k * n) + k) in
      for i = k to m - 1 do
        dot := !dot +. (Array.unsafe_get q !idx *. Array.unsafe_get y (off + i));
        idx := !idx + n
      done;
      let s = bk *. !dot in
      if s <> 0.0 then begin
        let idx = ref ((k * n) + k) in
        for i = k to m - 1 do
          Array.unsafe_set y (off + i)
            (Array.unsafe_get y (off + i) -. (s *. Array.unsafe_get q !idx));
          idx := !idx + n
        done
      end
    end
  done

let apply_qt_mat t bmat =
  let m = Mat.rows t.qr and n = Mat.cols t.qr in
  if Mat.rows bmat <> m then invalid_arg "Qr.apply_qt_mat: dimension mismatch";
  let nb = Mat.cols bmat in
  let q = Mat.unsafe_data t.qr and d = Mat.unsafe_data bmat in
  let dots = Array.make nb 0.0 in
  for k = 0 to n - 1 do
    let bk = t.beta.(k) in
    if bk <> 0.0 then begin
      Array.fill dots 0 nb 0.0;
      for i = k to m - 1 do
        let row = i * nb in
        let vi = Array.unsafe_get q ((i * n) + k) in
        for j = 0 to nb - 1 do
          Array.unsafe_set dots j
            (Array.unsafe_get dots j +. (vi *. Array.unsafe_get d (row + j)))
        done
      done;
      for j = 0 to nb - 1 do
        Array.unsafe_set dots j (bk *. Array.unsafe_get dots j)
      done;
      for i = k to m - 1 do
        let row = i * nb in
        let vi = Array.unsafe_get q ((i * n) + k) in
        for j = 0 to nb - 1 do
          let s = Array.unsafe_get dots j in
          if s <> 0.0 then
            Array.unsafe_set d (row + j)
              (Array.unsafe_get d (row + j) -. (s *. vi))
        done
      done
    end
  done

let r22_block t ~split dst dst_row =
  let n = Mat.cols t.qr in
  if split < 0 || split > n then invalid_arg "Qr.r22_block: bad split";
  let b = n - split in
  if Mat.cols dst < b || Mat.rows dst < dst_row + b then
    invalid_arg "Qr.r22_block: destination too small";
  let q = Mat.unsafe_data t.qr and d = Mat.unsafe_data dst in
  let dc = Mat.cols dst in
  for i = 0 to b - 1 do
    for j = 0 to b - 1 do
      d.(((dst_row + i) * dc) + j) <-
        (if i = j then t.rdiag.(split + i)
         else if i < j then q.(((split + i) * n) + split + j)
         else 0.0)
    done
  done

let apply_qt_block t ~split b dst dst_row =
  let m = Mat.rows t.qr and n = Mat.cols t.qr in
  if Array.length b <> m then invalid_arg "Qr.apply_qt_block: dimension mismatch";
  if split < 0 || split > n then invalid_arg "Qr.apply_qt_block: bad split";
  let y = Array.copy b in
  apply_qt_into t y;
  for i = split to n - 1 do
    dst.(dst_row + i - split) <- y.(i)
  done

let last_rcond ws =
  let n = ws.last_n in
  if n = 0 then Float.nan
  else begin
    let mn = ref Float.infinity and mx = ref 0.0 in
    for k = 0 to n - 1 do
      let a = Float.abs ws.rdiag_b.(k) in
      if a < !mn then mn := a;
      if a > !mx then mx := a
    done;
    if !mx = 0.0 then 0.0 else !mn /. !mx
  end

let least_squares_into ws a b =
  let m = Mat.rows a in
  if Array.length b <> m then
    invalid_arg "Qr.least_squares_into: dimension mismatch";
  let t = factor_into ws a in
  let y = ws.qtb in
  Array.blit b 0 y 0 m;
  apply_qt_into t y;
  solve_r t y

exception No_convergence

(* Entry (i, j) of an n×n row-major store. The hot loops below index
   the flat store through these: a cross-module [Mat.get]/[Mat.set] is
   not inlined, and each call boxes its float. Every index they are
   given is in range by the loop bounds of the EISPACK code. *)
let[@inline] at (h : float array) n i j = Array.unsafe_get h ((i * n) + j)
let[@inline] put (h : float array) n i j (x : float) =
  Array.unsafe_set h ((i * n) + j) x

(* Parlett-Reinsch balancing in place: repeated diagonal similarity
   transforms with powers of the radix so that row and column norms
   match. *)
let balance a =
  let n = Mat.rows a in
  let h = Mat.unsafe_data a in
  let radix = 2.0 in
  let radix2 = radix *. radix in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    for i = 0 to n - 1 do
      let r = ref 0.0 and c = ref 0.0 in
      for j = 0 to n - 1 do
        if j <> i then begin
          r := !r +. Float.abs (at h n i j);
          c := !c +. Float.abs (at h n j i)
        end
      done;
      if !c <> 0.0 && !r <> 0.0 then begin
        let g = ref (!r /. radix) and f = ref 1.0 in
        let s = !c +. !r in
        while !c < !g do
          f := !f *. radix;
          c := !c *. radix2
        done;
        g := !r *. radix;
        while !c > !g do
          f := !f /. radix;
          c := !c /. radix2
        done;
        if (!c +. !r) /. !f < 0.95 *. s then begin
          continue_ := true;
          let inv_f = 1.0 /. !f in
          for j = 0 to n - 1 do
            put h n i j (at h n i j *. inv_f)
          done;
          for j = 0 to n - 1 do
            put h n j i (at h n j i *. !f)
          done
        end
      end
    done
  done

(* Householder similarity reduction to upper Hessenberg form, in place
   on the flat row-major store. With [q], also accumulates the product
   of the reflectors, Q = P_0·P_1·…, so that the input equals Q·H·Qᵀ.
   Inner loops run along rows and skip bounds checks (every index stays
   below n·n); each dot product still accumulates in row order, as the
   column-at-a-time loops it replaced did, so [eigenvalues] is
   unchanged to the bit. *)
let hessenberg_into ?q a =
  let n = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "Eig.hessenberg_into: matrix not square";
  let h = Mat.unsafe_data a in
  let qd =
    match q with
    | None -> [||]
    | Some q ->
        if Mat.rows q <> n || Mat.cols q <> n then
          invalid_arg "Eig.hessenberg_into: Q size mismatch";
        let qd = Mat.unsafe_data q in
        Array.fill qd 0 (n * n) 0.0;
        for i = 0 to n - 1 do
          qd.((i * n) + i) <- 1.0
        done;
        qd
  in
  let v = Array.make n 0.0 and w = Array.make n 0.0 in
  (* A <- A·(I - beta v vT) on cols k+1..n-1 of every row *)
  let reflect_right m ~k ~beta =
    for i = 0 to n - 1 do
      let ri = i * n in
      let dot = ref 0.0 in
      for j = k + 1 to n - 1 do
        dot :=
          !dot +. (Array.unsafe_get m (ri + j) *. Array.unsafe_get v j)
      done;
      let s = beta *. !dot in
      if s <> 0.0 then
        for j = k + 1 to n - 1 do
          Array.unsafe_set m (ri + j)
            (Array.unsafe_get m (ri + j) -. (s *. Array.unsafe_get v j))
        done
    done
  in
  for k = 0 to n - 3 do
    let nrm = ref 0.0 in
    for i = k + 1 to n - 1 do
      let x = h.((i * n) + k) in
      nrm := !nrm +. (x *. x)
    done;
    let nrm = sqrt !nrm in
    if nrm > 0.0 then begin
      let x0 = h.(((k + 1) * n) + k) in
      let alpha = if x0 >= 0.0 then -.nrm else nrm in
      let vtv = ref 0.0 in
      for i = k + 1 to n - 1 do
        v.(i) <- h.((i * n) + k);
        if i = k + 1 then v.(i) <- v.(i) -. alpha;
        vtv := !vtv +. (v.(i) *. v.(i))
      done;
      if !vtv > 0.0 then begin
        let beta = 2.0 /. !vtv in
        (* left: A <- (I - beta v vT) A on rows k+1..n-1; w.(j) is
           the dot of v with column j *)
        Array.fill w k (n - k) 0.0;
        for i = k + 1 to n - 1 do
          let vi = v.(i) and ri = i * n in
          for j = k to n - 1 do
            Array.unsafe_set w j
              (Array.unsafe_get w j +. (vi *. Array.unsafe_get h (ri + j)))
          done
        done;
        for j = k to n - 1 do
          w.(j) <- beta *. w.(j)
        done;
        for i = k + 1 to n - 1 do
          let vi = v.(i) and ri = i * n in
          for j = k to n - 1 do
            let s = Array.unsafe_get w j in
            if s <> 0.0 then
              Array.unsafe_set h (ri + j)
                (Array.unsafe_get h (ri + j) -. (s *. vi))
          done
        done;
        reflect_right h ~k ~beta;
        if Option.is_some q then reflect_right qd ~k ~beta;
        (* zero out the annihilated entries exactly *)
        h.(((k + 1) * n) + k) <- alpha;
        for i = k + 2 to n - 1 do
          h.((i * n) + k) <- 0.0
        done
      end
    end
  done

let hessenberg a =
  let h = Mat.copy a in
  hessenberg_into h;
  h

let[@inline] sign_of x y = if y >= 0.0 then Float.abs x else -.Float.abs x

(* Francis implicit double-shift QR on an upper Hessenberg matrix,
   eigenvalues only, overwriting [a]. Follows the classic EISPACK [hqr]
   control flow, translated to 0-based indexing, with exceptional shifts
   every 10 iterations and a hard budget of 40 per eigenvalue. Runs on
   the flat row-major store ([at]/[put]); the two searches that EISPACK
   leaves with a jump end their loops through a flag instead. *)
let hqr a =
  let n = Mat.rows a in
  let h = Mat.unsafe_data a in
  let wr = Array.make n 0.0 and wi = Array.make n 0.0 in
  if n = 0 then [||]
  else begin
    let eps = epsilon_float in
    let anorm = ref 0.0 in
    for i = 0 to n - 1 do
      for j = Stdlib.max (i - 1) 0 to n - 1 do
        anorm := !anorm +. Float.abs (at h n i j)
      done
    done;
    if !anorm = 0.0 then anorm := 1.0;
    let nn = ref (n - 1) in
    let t = ref 0.0 in
    while !nn >= 0 do
      let its = ref 0 in
      let finished_block = ref false in
      while not !finished_block do
        (* find l: smallest index of the active block *)
        let l = ref 0 in
        let ll = ref !nn in
        while !ll >= 1 do
          let s =
            let s0 =
              Float.abs (at h n (!ll - 1) (!ll - 1))
              +. Float.abs (at h n !ll !ll)
            in
            if s0 = 0.0 then !anorm else s0
          in
          if Float.abs (at h n !ll (!ll - 1)) <= eps *. s then begin
            put h n !ll (!ll - 1) 0.0;
            l := !ll;
            ll := 0
          end
          else decr ll
        done;
        let x = ref (at h n !nn !nn) in
        if !l = !nn then begin
          (* one real eigenvalue *)
          wr.(!nn) <- !x +. !t;
          wi.(!nn) <- 0.0;
          decr nn;
          finished_block := true
        end
        else begin
          let y = ref (at h n (!nn - 1) (!nn - 1)) in
          let w = ref (at h n !nn (!nn - 1) *. at h n (!nn - 1) !nn) in
          if !l = !nn - 1 then begin
            (* 2x2 block: a pair of eigenvalues *)
            let p = 0.5 *. (!y -. !x) in
            let q = (p *. p) +. !w in
            let z = sqrt (Float.abs q) in
            let x' = !x +. !t in
            if q >= 0.0 then begin
              let z = p +. sign_of z p in
              wr.(!nn - 1) <- x' +. z;
              wr.(!nn) <- (if z <> 0.0 then x' -. (!w /. z) else x' +. z);
              wi.(!nn - 1) <- 0.0;
              wi.(!nn) <- 0.0
            end
            else begin
              wr.(!nn - 1) <- x' +. p;
              wr.(!nn) <- x' +. p;
              wi.(!nn) <- z;
              wi.(!nn - 1) <- -.z
            end;
            nn := !nn - 2;
            finished_block := true
          end
          else begin
            if !its = 40 then raise No_convergence;
            if !its = 10 || !its = 20 || !its = 30 then begin
              (* exceptional shift *)
              t := !t +. !x;
              for i = 0 to !nn do
                put h n i i (at h n i i -. !x)
              done;
              let s =
                Float.abs (at h n !nn (!nn - 1))
                +. Float.abs (at h n (!nn - 1) (!nn - 2))
              in
              x := 0.75 *. s;
              y := !x;
              w := -0.4375 *. s *. s
            end;
            incr its;
            (* find two consecutive small subdiagonal elements *)
            let m = ref (!nn - 2) in
            let p = ref 0.0 and q = ref 0.0 and r = ref 0.0 in
            let searching = ref true in
            while !searching && !m >= !l do
              let z = at h n !m !m in
              let rr = !x -. z in
              let ss = !y -. z in
              p :=
                (((rr *. ss) -. !w) /. at h n (!m + 1) !m)
                +. at h n !m (!m + 1);
              q := at h n (!m + 1) (!m + 1) -. z -. rr -. ss;
              r := at h n (!m + 2) (!m + 1);
              let s = Float.abs !p +. Float.abs !q +. Float.abs !r in
              p := !p /. s;
              q := !q /. s;
              r := !r /. s;
              if !m = !l then searching := false
              else begin
                let u =
                  Float.abs (at h n !m (!m - 1))
                  *. (Float.abs !q +. Float.abs !r)
                in
                let v =
                  Float.abs !p
                  *. (Float.abs (at h n (!m - 1) (!m - 1))
                     +. Float.abs z
                     +. Float.abs (at h n (!m + 1) (!m + 1)))
                in
                if u <= eps *. v then searching := false else decr m
              end
            done;
            for i = !m + 2 to !nn do
              put h n i (i - 2) 0.0;
              if i <> !m + 2 then put h n i (i - 3) 0.0
            done;
            (* double QR sweep over rows l..nn, bulge chase from m *)
            for k = !m to !nn - 1 do
              if k <> !m then begin
                p := at h n k (k - 1);
                q := at h n (k + 1) (k - 1);
                r := (if k <> !nn - 1 then at h n (k + 2) (k - 1) else 0.0);
                let xs = Float.abs !p +. Float.abs !q +. Float.abs !r in
                x := xs;
                if xs <> 0.0 then begin
                  p := !p /. xs;
                  q := !q /. xs;
                  r := !r /. xs
                end
              end;
              let s =
                sign_of (sqrt ((!p *. !p) +. (!q *. !q) +. (!r *. !r))) !p
              in
              if s <> 0.0 then begin
                if k = !m then begin
                  if !l <> !m then put h n k (k - 1) (-.at h n k (k - 1))
                end
                else put h n k (k - 1) (-.s *. !x);
                p := !p +. s;
                x := !p /. s;
                y := !q /. s;
                let z = !r /. s in
                q := !q /. !p;
                r := !r /. !p;
                (* row modification *)
                for j = k to !nn do
                  let pp = ref (at h n k j +. (!q *. at h n (k + 1) j)) in
                  if k <> !nn - 1 then begin
                    pp := !pp +. (!r *. at h n (k + 2) j);
                    put h n (k + 2) j (at h n (k + 2) j -. (!pp *. z))
                  end;
                  put h n (k + 1) j (at h n (k + 1) j -. (!pp *. !y));
                  put h n k j (at h n k j -. (!pp *. !x))
                done;
                (* column modification *)
                let mmin = Stdlib.min !nn (k + 3) in
                for i = !l to mmin do
                  let pp =
                    ref ((!x *. at h n i k) +. (!y *. at h n i (k + 1)))
                  in
                  if k <> !nn - 1 then begin
                    pp := !pp +. (z *. at h n i (k + 2));
                    put h n i (k + 2) (at h n i (k + 2) -. (!pp *. !r))
                  end;
                  put h n i (k + 1) (at h n i (k + 1) -. (!pp *. !q));
                  put h n i k (at h n i k -. !pp)
                done
              end
            done
          end
        end
      done
    done;
    Array.init n (fun k -> Cx.make wr.(k) wi.(k))
  end

(* balancing, the Hessenberg reduction and the QR iteration all work in
   place on one copy of the input *)
let eigenvalues a =
  let n = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "Eig.eigenvalues: matrix not square";
  if n = 0 then [||]
  else if n = 1 then [| Cx.re (Mat.get a 0 0) |]
  else begin
    let h = Mat.copy a in
    balance h;
    hessenberg_into h;
    hqr h
  end

let companion coeffs =
  let n = Array.length coeffs in
  Mat.init n n (fun i j ->
      if j = n - 1 then -.coeffs.(i) else if i = j + 1 then 1.0 else 0.0)

let poly_roots coeffs =
  (* strip leading zeros of the highest-degree side *)
  let deg = ref (Array.length coeffs - 1) in
  while !deg > 0 && coeffs.(!deg) = 0.0 do
    decr deg
  done;
  if !deg <= 0 then [||]
  else begin
    let an = coeffs.(!deg) in
    let monic = Array.init !deg (fun k -> coeffs.(k) /. an) in
    eigenvalues (companion monic)
  end

exception Singular of { pivot_index : int; magnitude : float }

let () =
  Printexc.register_printer (function
    | Singular { pivot_index; magnitude } ->
        Some
          (Printf.sprintf "Spclu.Singular: pivot %d has magnitude %.3e"
             pivot_index magnitude)
    | _ -> None)

let tiny_pivot = 1e-300
let diag_threshold = 0.1

type t = {
  n : int;
  pat : Sp.pattern;
  q : int array;
  pinv : int array;
  lp : int array;
  up : int array;
  mutable li : int array;
  mutable lre : float array;
  mutable lim : float array;
  mutable lnz : int;
  mutable ui : int array;
  mutable ure : float array;
  mutable uim : float array;
  mutable unz : int;
  xre : float array;
  xim : float array;
  wre : float array;
  wim : float array;
  reach : int array;
  stack : int array;
  pstack : int array;
  mark : int array;
  mutable factored : bool;
}

let workspace (pat : Sp.pattern) =
  if pat.Sp.nrows <> pat.Sp.ncols then
    invalid_arg "Spclu.workspace: pattern not square";
  let n = pat.Sp.nrows in
  let cap = max (4 * Sp.nnz pat) (2 * n) in
  {
    n;
    pat;
    q = Sp.mindeg pat;
    pinv = Array.make n (-1);
    lp = Array.make (n + 1) 0;
    up = Array.make (n + 1) 0;
    li = Array.make cap 0;
    lre = Array.make cap 0.0;
    lim = Array.make cap 0.0;
    lnz = 0;
    ui = Array.make cap 0;
    ure = Array.make cap 0.0;
    uim = Array.make cap 0.0;
    unz = 0;
    xre = Array.make n 0.0;
    xim = Array.make n 0.0;
    wre = Array.make n 0.0;
    wim = Array.make n 0.0;
    reach = Array.make n 0;
    stack = Array.make n 0;
    pstack = Array.make n 0;
    mark = Array.make n (-1);
    factored = false;
  }

let lu_nnz ws = ws.lnz + ws.unz

let push_l ws i re im =
  if ws.lnz = Array.length ws.li then begin
    let c = 2 * ws.lnz in
    let ni = Array.make c 0 in
    let nr = Array.make c 0.0 and nm = Array.make c 0.0 in
    Array.blit ws.li 0 ni 0 ws.lnz;
    Array.blit ws.lre 0 nr 0 ws.lnz;
    Array.blit ws.lim 0 nm 0 ws.lnz;
    ws.li <- ni;
    ws.lre <- nr;
    ws.lim <- nm
  end;
  ws.li.(ws.lnz) <- i;
  ws.lre.(ws.lnz) <- re;
  ws.lim.(ws.lnz) <- im;
  ws.lnz <- ws.lnz + 1

let push_u ws i re im =
  if ws.unz = Array.length ws.ui then begin
    let c = 2 * ws.unz in
    let ni = Array.make c 0 in
    let nr = Array.make c 0.0 and nm = Array.make c 0.0 in
    Array.blit ws.ui 0 ni 0 ws.unz;
    Array.blit ws.ure 0 nr 0 ws.unz;
    Array.blit ws.uim 0 nm 0 ws.unz;
    ws.ui <- ni;
    ws.ure <- nr;
    ws.uim <- nm
  end;
  ws.ui.(ws.unz) <- i;
  ws.ure.(ws.unz) <- re;
  ws.uim.(ws.unz) <- im;
  ws.unz <- ws.unz + 1

let mag re im = sqrt ((re *. re) +. (im *. im))

(* Smith's robust complex division: (ar + i·ai) / (br + i·bi) *)
let cdiv ar ai br bi =
  if Float.abs br >= Float.abs bi then begin
    let r = bi /. br in
    let d = br +. (bi *. r) in
    (((ar +. (ai *. r)) /. d), (ai -. (ar *. r)) /. d)
  end
  else begin
    let r = br /. bi in
    let d = (br *. r) +. bi in
    (((ar *. r) +. ai) /. d, ((ai *. r) -. ar) /. d)
  end

(* identical traversal to Splu.reach_of; L rows are original until the
   final remap *)
let reach_of ws (pat : Sp.pattern) ~col ~k =
  let top = ref ws.n in
  let start_of j = if ws.pinv.(j) < 0 then 0 else ws.lp.(ws.pinv.(j)) + 1 in
  let end_of j = if ws.pinv.(j) < 0 then 0 else ws.lp.(ws.pinv.(j) + 1) in
  for p = pat.Sp.colptr.(col) to pat.Sp.colptr.(col + 1) - 1 do
    let j0 = pat.Sp.rowind.(p) in
    if ws.mark.(j0) <> k then begin
      let head = ref 0 in
      ws.stack.(0) <- j0;
      ws.mark.(j0) <- k;
      ws.pstack.(0) <- start_of j0;
      while !head >= 0 do
        let j = ws.stack.(!head) in
        let pend = end_of j in
        let p = ref ws.pstack.(!head) in
        let pushed = ref false in
        while (not !pushed) && !p < pend do
          let i = ws.li.(!p) in
          incr p;
          if ws.mark.(i) <> k then begin
            ws.mark.(i) <- k;
            ws.pstack.(!head) <- !p;
            incr head;
            ws.stack.(!head) <- i;
            ws.pstack.(!head) <- start_of i;
            pushed := true
          end
        done;
        if not !pushed then begin
          decr head;
          decr top;
          ws.reach.(!top) <- j
        end
      done
    end
  done;
  !top

let factor_into ws (a : Sp.ct) =
  if not (a.Sp.cpat == ws.pat) then
    invalid_arg "Spclu.factor_into: matrix pattern does not match workspace";
  let inject = Fault.should_fire "sp.singular" in
  let n = ws.n in
  ws.lnz <- 0;
  ws.unz <- 0;
  ws.factored <- false;
  Array.fill ws.pinv 0 n (-1);
  Array.fill ws.mark 0 n (-1);
  let pat = a.Sp.cpat in
  for k = 0 to n - 1 do
    ws.lp.(k) <- ws.lnz;
    ws.up.(k) <- ws.unz;
    let col = ws.q.(k) in
    let top = reach_of ws pat ~col ~k in
    for p = top to n - 1 do
      ws.xre.(ws.reach.(p)) <- 0.0;
      ws.xim.(ws.reach.(p)) <- 0.0
    done;
    for p = pat.Sp.colptr.(col) to pat.Sp.colptr.(col + 1) - 1 do
      ws.xre.(pat.Sp.rowind.(p)) <- a.Sp.re.(p);
      ws.xim.(pat.Sp.rowind.(p)) <- a.Sp.im.(p)
    done;
    for p = top to n - 1 do
      let j = ws.reach.(p) in
      let jq = ws.pinv.(j) in
      if jq >= 0 then begin
        let xr = ws.xre.(j) and xi = ws.xim.(j) in
        for pp = ws.lp.(jq) + 1 to ws.lp.(jq + 1) - 1 do
          let i = ws.li.(pp) in
          let lr = ws.lre.(pp) and li = ws.lim.(pp) in
          ws.xre.(i) <- ws.xre.(i) -. ((lr *. xr) -. (li *. xi));
          ws.xim.(i) <- ws.xim.(i) -. ((lr *. xi) +. (li *. xr))
        done
      end
    done;
    let ipiv = ref (-1) and amax = ref (-1.0) in
    for p = top to n - 1 do
      let i = ws.reach.(p) in
      if ws.pinv.(i) < 0 then begin
        let t = mag ws.xre.(i) ws.xim.(i) in
        if t > !amax then begin
          amax := t;
          ipiv := i
        end
      end
    done;
    if
      !ipiv >= 0 && ws.mark.(col) = k
      && ws.pinv.(col) < 0
      && mag ws.xre.(col) ws.xim.(col) >= diag_threshold *. !amax
      && mag ws.xre.(col) ws.xim.(col) >= tiny_pivot
    then ipiv := col;
    if !ipiv < 0 then raise (Singular { pivot_index = k; magnitude = 0.0 });
    let pre, pim =
      if inject && k = 0 then (0.0, 0.0) else (ws.xre.(!ipiv), ws.xim.(!ipiv))
    in
    let pmag = mag pre pim in
    if pmag < tiny_pivot || not (Float.is_finite pmag) then
      raise (Singular { pivot_index = k; magnitude = pmag });
    for p = top to n - 1 do
      let i = ws.reach.(p) in
      if ws.pinv.(i) >= 0 then push_u ws ws.pinv.(i) ws.xre.(i) ws.xim.(i)
    done;
    push_u ws k pre pim;
    ws.pinv.(!ipiv) <- k;
    push_l ws !ipiv 1.0 0.0;
    for p = top to n - 1 do
      let i = ws.reach.(p) in
      if ws.pinv.(i) < 0 then begin
        let mr, mi = cdiv ws.xre.(i) ws.xim.(i) pre pim in
        push_l ws i mr mi
      end;
      ws.xre.(i) <- 0.0;
      ws.xim.(i) <- 0.0
    done
  done;
  ws.lp.(n) <- ws.lnz;
  ws.up.(n) <- ws.unz;
  for p = 0 to ws.lnz - 1 do
    ws.li.(p) <- ws.pinv.(ws.li.(p))
  done;
  ws.factored <- true

let factor a =
  let ws = workspace a.Sp.cpat in
  factor_into ws a;
  ws

let rcond_estimate ws =
  if not ws.factored then 0.0
  else begin
    let mn = ref infinity and mx = ref 0.0 in
    for k = 0 to ws.n - 1 do
      let p = ws.up.(k + 1) - 1 in
      let d = mag ws.ure.(p) ws.uim.(p) in
      if d < !mn then mn := d;
      if d > !mx then mx := d
    done;
    if !mx = 0.0 || not (Float.is_finite !mx) then 0.0 else !mn /. !mx
  end

let solve_into ws (b : Cmat.vec) (x : Cmat.vec) =
  if not ws.factored then invalid_arg "Spclu.solve_into: not factored";
  let n = ws.n in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Spclu.solve_into: dimension mismatch";
  if b == x then invalid_arg "Spclu.solve_into: b and x must not alias";
  let wre = ws.wre and wim = ws.wim in
  for i = 0 to n - 1 do
    let bi = b.(i) in
    wre.(ws.pinv.(i)) <- bi.Complex.re;
    wim.(ws.pinv.(i)) <- bi.Complex.im
  done;
  for k = 0 to n - 1 do
    let wr = wre.(k) and wi = wim.(k) in
    for p = ws.lp.(k) + 1 to ws.lp.(k + 1) - 1 do
      let i = ws.li.(p) in
      let lr = ws.lre.(p) and li = ws.lim.(p) in
      wre.(i) <- wre.(i) -. ((lr *. wr) -. (li *. wi));
      wim.(i) <- wim.(i) -. ((lr *. wi) +. (li *. wr))
    done
  done;
  for k = n - 1 downto 0 do
    let pd = ws.up.(k + 1) - 1 in
    let wr, wi = cdiv wre.(k) wim.(k) ws.ure.(pd) ws.uim.(pd) in
    wre.(k) <- wr;
    wim.(k) <- wi;
    for p = ws.up.(k) to pd - 1 do
      let i = ws.ui.(p) in
      let ur = ws.ure.(p) and ui = ws.uim.(p) in
      wre.(i) <- wre.(i) -. ((ur *. wr) -. (ui *. wi));
      wim.(i) <- wim.(i) -. ((ur *. wi) +. (ui *. wr))
    done
  done;
  for k = 0 to n - 1 do
    x.(ws.q.(k)) <- { Complex.re = wre.(k); im = wim.(k) }
  done

let solve ws b =
  let x = Array.make (Array.length b) Cx.zero in
  solve_into ws b x;
  x

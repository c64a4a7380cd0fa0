type pattern = {
  nrows : int;
  ncols : int;
  colptr : int array;
  rowind : int array;
}

type t = { pat : pattern; v : float array }
type ct = { cpat : pattern; re : float array; im : float array }

let nnz pat = pat.colptr.(pat.ncols)

(* occurrences are encoded as [c * nrows + r] so column-major order is
   plain integer order; nrows·ncols stays far below 2^62 for any
   circuit this engine can hold *)
let compile ~nrows ~ncols occ =
  if nrows <= 0 || ncols <= 0 then invalid_arg "Sp.compile: empty shape";
  Array.iter
    (fun (r, c) ->
      if r < 0 || r >= nrows || c < 0 || c >= ncols then
        invalid_arg "Sp.compile: entry out of range")
    occ;
  let keys = Array.map (fun (r, c) -> (c * nrows) + r) occ in
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  let m = Array.length sorted in
  let uniq = Array.make (max 1 m) 0 in
  let u = ref 0 in
  for i = 0 to m - 1 do
    if !u = 0 || uniq.(!u - 1) <> sorted.(i) then begin
      uniq.(!u) <- sorted.(i);
      incr u
    end
  done;
  let nz = !u in
  let colptr = Array.make (ncols + 1) 0 in
  let rowind = Array.make nz 0 in
  for i = 0 to nz - 1 do
    let c = uniq.(i) / nrows in
    rowind.(i) <- uniq.(i) - (c * nrows);
    colptr.(c + 1) <- colptr.(c + 1) + 1
  done;
  for c = 0 to ncols - 1 do
    colptr.(c + 1) <- colptr.(c + 1) + colptr.(c)
  done;
  let pat = { nrows; ncols; colptr; rowind } in
  (* slot per occurrence: binary search over the deduplicated keys —
     they are globally sorted, so the value index is the key's rank *)
  let rank key =
    let lo = ref 0 and hi = ref (nz - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if uniq.(mid) < key then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  (pat, Array.map rank keys)

let create pat = { pat; v = Array.make (max 1 (nnz pat)) 0.0 }

let find pat r c =
  if r < 0 || r >= pat.nrows || c < 0 || c >= pat.ncols then None
  else begin
    let lo = ref pat.colptr.(c) and hi = ref (pat.colptr.(c + 1) - 1) in
    let found = ref None in
    while !found = None && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let row = pat.rowind.(mid) in
      if row = r then found := Some mid
      else if row < r then lo := mid + 1
      else hi := mid - 1
    done;
    !found
  end

let get t r c = match find t.pat r c with None -> 0.0 | Some k -> t.v.(k)

let of_triplets ~nrows ~ncols trips =
  let occ = Array.map (fun (r, c, _) -> (r, c)) trips in
  let pat, slots = compile ~nrows ~ncols occ in
  let t = create pat in
  Array.iteri (fun k (_, _, x) -> t.v.(slots.(k)) <- t.v.(slots.(k)) +. x) trips;
  t

(* straight to CSC: a column-major scan meets the kept entries already
   in pattern order, so there is nothing to sort or deduplicate *)
let of_dense ?(drop = 0.0) m =
  let nrows = Mat.rows m and ncols = Mat.cols m in
  if nrows <= 0 || ncols <= 0 then invalid_arg "Sp.of_dense: empty shape";
  let d = Mat.unsafe_data m in
  let colptr = Array.make (ncols + 1) 0 in
  for c = 0 to ncols - 1 do
    for r = 0 to nrows - 1 do
      let x = d.((r * ncols) + c) in
      if Float.abs x > drop || (x <> 0.0 && drop = 0.0) then
        colptr.(c + 1) <- colptr.(c + 1) + 1
    done;
    colptr.(c + 1) <- colptr.(c + 1) + colptr.(c)
  done;
  let nz = colptr.(ncols) in
  let rowind = Array.make nz 0 and v = Array.make (max 1 nz) 0.0 in
  for c = 0 to ncols - 1 do
    let p = ref colptr.(c) in
    for r = 0 to nrows - 1 do
      let x = d.((r * ncols) + c) in
      if Float.abs x > drop || (x <> 0.0 && drop = 0.0) then begin
        rowind.(!p) <- r;
        v.(!p) <- x;
        incr p
      end
    done
  done;
  { pat = { nrows; ncols; colptr; rowind }; v }

let mulv_into t x y =
  let pat = t.pat in
  if Array.length x <> pat.ncols || Array.length y <> pat.nrows then
    invalid_arg "Sp.mulv_into: dimension mismatch";
  if x == y then invalid_arg "Sp.mulv_into: x and y must not alias";
  Array.fill y 0 pat.nrows 0.0;
  for c = 0 to pat.ncols - 1 do
    let xc = x.(c) in
    for p = pat.colptr.(c) to pat.colptr.(c + 1) - 1 do
      y.(pat.rowind.(p)) <- y.(pat.rowind.(p)) +. (t.v.(p) *. xc)
    done
  done

let mulv t x =
  let y = Array.make t.pat.nrows 0.0 in
  mulv_into t x y;
  y

(* Greedy minimum degree on the quotient-free symmetrized graph:
   eliminate the minimum-degree vertex, join its neighbours into a
   clique, repeat. Simple set-based bookkeeping is enough here — the
   ordering runs once per compiled pattern and is cached by the LU
   workspaces, and the clique updates are bounded by the fill they
   predict. A lazy-deletion binary heap keeps vertex selection
   O(log n) under degree updates. *)
module IS = Set.Make (Int)

type heap = { mutable hd : int array; mutable hv : int array; mutable hlen : int }

let mindeg pat =
  if pat.nrows <> pat.ncols then invalid_arg "Sp.mindeg: pattern not square";
  let n = pat.ncols in
  let adj = Array.make n IS.empty in
  for c = 0 to n - 1 do
    for p = pat.colptr.(c) to pat.colptr.(c + 1) - 1 do
      let r = pat.rowind.(p) in
      if r <> c then begin
        adj.(r) <- IS.add c adj.(r);
        adj.(c) <- IS.add r adj.(c)
      end
    done
  done;
  (* binary min-heap of (degree, vertex) with lazy deletion *)
  let h = { hd = Array.make (max 4 (4 * n)) 0; hv = Array.make (max 4 (4 * n)) 0; hlen = 0 } in
  let swap i j =
    let td = h.hd.(i) and tv = h.hv.(i) in
    h.hd.(i) <- h.hd.(j);
    h.hv.(i) <- h.hv.(j);
    h.hd.(j) <- td;
    h.hv.(j) <- tv
  in
  let push d v =
    if h.hlen = Array.length h.hd then begin
      let nd = Array.make (2 * h.hlen) 0 and nv = Array.make (2 * h.hlen) 0 in
      Array.blit h.hd 0 nd 0 h.hlen;
      Array.blit h.hv 0 nv 0 h.hlen;
      h.hd <- nd;
      h.hv <- nv
    end;
    let i = ref h.hlen in
    h.hlen <- h.hlen + 1;
    h.hd.(!i) <- d;
    h.hv.(!i) <- v;
    let up = ref true in
    while !up && !i > 0 do
      let p = (!i - 1) / 2 in
      if h.hd.(p) > h.hd.(!i) then begin
        swap p !i;
        i := p
      end
      else up := false
    done
  in
  let pop () =
    let d = h.hd.(0) and v = h.hv.(0) in
    h.hlen <- h.hlen - 1;
    h.hd.(0) <- h.hd.(h.hlen);
    h.hv.(0) <- h.hv.(h.hlen);
    let i = ref 0 in
    let down = ref true in
    while !down do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < h.hlen && h.hd.(l) < h.hd.(!s) then s := l;
      if r < h.hlen && h.hd.(r) < h.hd.(!s) then s := r;
      if !s <> !i then begin
        swap !s !i;
        i := !s
      end
      else down := false
    done;
    (d, v)
  in
  for v = 0 to n - 1 do
    push (IS.cardinal adj.(v)) v
  done;
  let eliminated = Array.make n false in
  let order = Array.make n 0 in
  for k = 0 to n - 1 do
    let v = ref (-1) in
    while !v < 0 do
      let d, cand = pop () in
      if (not eliminated.(cand)) && IS.cardinal adj.(cand) = d then v := cand
    done;
    let v = !v in
    order.(k) <- v;
    eliminated.(v) <- true;
    let nbrs = adj.(v) in
    IS.iter
      (fun u ->
        let a = IS.remove v (IS.union adj.(u) nbrs) in
        let a = IS.remove u a in
        adj.(u) <- a;
        push (IS.cardinal a) u)
      nbrs;
    adj.(v) <- IS.empty
  done;
  order

let ccreate pat =
  let m = max 1 (nnz pat) in
  { cpat = pat; re = Array.make m 0.0; im = Array.make m 0.0 }

let pencil_into dst g c (s : Cx.t) =
  if not (dst.cpat == g.pat && g.pat == c.pat) then
    invalid_arg "Sp.pencil_into: pattern mismatch";
  let m = nnz dst.cpat in
  let sre = s.Complex.re and sim = s.Complex.im in
  for k = 0 to m - 1 do
    dst.re.(k) <- g.v.(k) +. (sre *. c.v.(k));
    dst.im.(k) <- sim *. c.v.(k)
  done

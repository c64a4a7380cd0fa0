exception Singular of { pivot_index : int; magnitude : float }

let () =
  Printexc.register_printer (function
    | Singular { pivot_index; magnitude } ->
        Some
          (Printf.sprintf "Splu.Singular: pivot %d has magnitude %.3e"
             pivot_index magnitude)
    | _ -> None)

(* same floor as Lu: a denormal pivot magnitude overflows multipliers *)
let tiny_pivot = 1e-300

(* Keeping the diagonal when it is within this factor of the column
   maximum preserves the fill predicted by the minimum-degree ordering;
   anything smaller falls back to the true column maximum (partial
   pivoting), trading fill for stability. *)
let diag_threshold = 0.1

type t = {
  n : int;
  pat : Sp.pattern;  (* identity key: factor_into requires a.pat == pat *)
  q : int array;  (* fill-reducing column order *)
  pinv : int array;  (* original row -> pivot position *)
  (* L and U in CSC over pivot coordinates; L has a leading unit
     diagonal per column, U a trailing diagonal. Growable. *)
  lp : int array;
  up : int array;
  mutable li : int array;
  mutable lx : float array;
  mutable lnz : int;
  mutable ui : int array;
  mutable ux : float array;
  mutable unz : int;
  (* scatter workspace: x all-zero between columns *)
  x : float array;
  w : float array;  (* solve scratch *)
  reach : int array;
  stack : int array;
  pstack : int array;
  mark : int array;
  mutable factored : bool;
}

(* [q] is the fill-reducing column order of [pat]; workspaces that
   share it share the symbolic analysis and differ only in their
   numeric factorization *)
let with_order (pat : Sp.pattern) q =
  let n = pat.Sp.nrows in
  (* L and U start at the pattern's size and double when they outgrow
     it: an MNA pattern under its minimum-degree ordering fills little *)
  let cap = max (Sp.nnz pat) (2 * n) in
  {
    n;
    pat;
    q;
    pinv = Array.make n (-1);
    lp = Array.make (n + 1) 0;
    up = Array.make (n + 1) 0;
    li = Array.make cap 0;
    lx = Array.make cap 0.0;
    lnz = 0;
    ui = Array.make cap 0;
    ux = Array.make cap 0.0;
    unz = 0;
    x = Array.make n 0.0;
    w = Array.make n 0.0;
    reach = Array.make n 0;
    stack = Array.make n 0;
    pstack = Array.make n 0;
    mark = Array.make n (-1);
    factored = false;
  }

let workspace (pat : Sp.pattern) =
  if pat.Sp.nrows <> pat.Sp.ncols then
    invalid_arg "Splu.workspace: pattern not square";
  with_order pat (Sp.mindeg pat)

let sibling ws = with_order ws.pat ws.q

(* L and U grow by doubling, off the hot path; the pushes are inlined so
   that their float argument is never boxed *)
let grow_l ws =
  let c = 2 * ws.lnz in
  let ni = Array.make c 0 and nx = Array.make c 0.0 in
  Array.blit ws.li 0 ni 0 ws.lnz;
  Array.blit ws.lx 0 nx 0 ws.lnz;
  ws.li <- ni;
  ws.lx <- nx

let grow_u ws =
  let c = 2 * ws.unz in
  let ni = Array.make c 0 and nx = Array.make c 0.0 in
  Array.blit ws.ui 0 ni 0 ws.unz;
  Array.blit ws.ux 0 nx 0 ws.unz;
  ws.ui <- ni;
  ws.ux <- nx

let[@inline] push_l ws i v =
  if ws.lnz = Array.length ws.li then grow_l ws;
  ws.li.(ws.lnz) <- i;
  ws.lx.(ws.lnz) <- v;
  ws.lnz <- ws.lnz + 1

let[@inline] push_u ws i v =
  if ws.unz = Array.length ws.ui then grow_u ws;
  ws.ui.(ws.unz) <- i;
  ws.ux.(ws.unz) <- v;
  ws.unz <- ws.unz + 1

(* the span of L column [j]'s below-diagonal entries, empty while row
   [j] is not yet pivotal; top-level so a reach allocates no closure *)
let start_of ws j = if ws.pinv.(j) < 0 then 0 else ws.lp.(ws.pinv.(j)) + 1
let end_of ws j = if ws.pinv.(j) < 0 then 0 else ws.lp.(ws.pinv.(j) + 1)

(* depth-first reach of column [col]'s pattern through the columns of L
   factored so far; fills ws.reach.(top..n-1) in reverse postorder
   (ancestors first), which is the update order the numeric triangular
   solve needs. Row indices in L are original rows until the final
   remap in factor_into. *)
let reach_of ws (a : Sp.t) ~col ~k =
  let pat = a.Sp.pat in
  let top = ref ws.n in
  for p = pat.Sp.colptr.(col) to pat.Sp.colptr.(col + 1) - 1 do
    let j0 = pat.Sp.rowind.(p) in
    if ws.mark.(j0) <> k then begin
      let head = ref 0 in
      ws.stack.(0) <- j0;
      ws.mark.(j0) <- k;
      ws.pstack.(0) <- start_of ws j0;
      while !head >= 0 do
        let j = ws.stack.(!head) in
        let pend = end_of ws j in
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
            ws.pstack.(!head) <- start_of ws i;
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

(* The one diagonal scan behind both [rcond_estimate] and the floor:
   the weakest pivot (position, |U_kk|) and min |U_kk| / max |U_kk|, 0
   when the diagonal is degenerate or non-finite. U's diagonal is the
   last entry of each column. *)
let diagonal_ratio ws =
  let idx = ref 0 and mn = ref infinity and mx = ref 0.0 in
  for k = 0 to ws.n - 1 do
    let d = Float.abs ws.ux.(ws.up.(k + 1) - 1) in
    if d < !mn then begin
      mn := d;
      idx := k
    end;
    if d > !mx then mx := d
  done;
  let rc = if !mx = 0.0 || not (Float.is_finite !mx) then 0.0 else !mn /. !mx in
  (!idx, !mn, rc)

let factor_into ws (a : Sp.t) =
  if not (a.Sp.pat == ws.pat) then
    invalid_arg "Splu.factor_into: matrix pattern does not match workspace";
  let inject = Fault.should_fire "sp.singular" in
  let n = ws.n in
  ws.lnz <- 0;
  ws.unz <- 0;
  ws.factored <- false;
  Array.fill ws.pinv 0 n (-1);
  Array.fill ws.mark 0 n (-1);
  let apat = a.Sp.pat in
  for k = 0 to n - 1 do
    ws.lp.(k) <- ws.lnz;
    ws.up.(k) <- ws.unz;
    let col = ws.q.(k) in
    let top = reach_of ws a ~col ~k in
    (* scatter A(:,col) and run the sparse triangular solve x = L \ a *)
    for p = top to n - 1 do
      ws.x.(ws.reach.(p)) <- 0.0
    done;
    for p = apat.Sp.colptr.(col) to apat.Sp.colptr.(col + 1) - 1 do
      ws.x.(apat.Sp.rowind.(p)) <- a.Sp.v.(p)
    done;
    for p = top to n - 1 do
      let j = ws.reach.(p) in
      let jq = ws.pinv.(j) in
      if jq >= 0 then begin
        let xj = ws.x.(j) in
        for pp = ws.lp.(jq) + 1 to ws.lp.(jq + 1) - 1 do
          ws.x.(ws.li.(pp)) <- ws.x.(ws.li.(pp)) -. (ws.lx.(pp) *. xj)
        done
      end
    done;
    (* pivot: column max over not-yet-pivotal rows, preferring the
       diagonal when it is within diag_threshold of the max *)
    let ipiv = ref (-1) and amax = ref (-1.0) in
    for p = top to n - 1 do
      let i = ws.reach.(p) in
      if ws.pinv.(i) < 0 then begin
        let t = Float.abs ws.x.(i) in
        if t > !amax then begin
          amax := t;
          ipiv := i
        end
      end
    done;
    if
      !ipiv >= 0 && ws.mark.(col) = k
      && ws.pinv.(col) < 0
      && Float.abs ws.x.(col) >= diag_threshold *. !amax
      && Float.abs ws.x.(col) >= tiny_pivot
    then ipiv := col;
    if !ipiv < 0 then raise (Singular { pivot_index = k; magnitude = 0.0 });
    let pivot = if inject && k = 0 then 0.0 else ws.x.(!ipiv) in
    if Float.abs pivot < tiny_pivot || not (Float.is_finite pivot) then
      raise (Singular { pivot_index = k; magnitude = Float.abs pivot });
    (* gather U (already-pivotal rows), diagonal last *)
    for p = top to n - 1 do
      let i = ws.reach.(p) in
      if ws.pinv.(i) >= 0 then push_u ws ws.pinv.(i) ws.x.(i)
    done;
    push_u ws k pivot;
    ws.pinv.(!ipiv) <- k;
    (* L column: unit diagonal first, then the multipliers *)
    push_l ws !ipiv 1.0;
    for p = top to n - 1 do
      let i = ws.reach.(p) in
      if ws.pinv.(i) < 0 then push_l ws i (ws.x.(i) /. pivot);
      ws.x.(i) <- 0.0
    done
  done;
  ws.lp.(n) <- ws.lnz;
  ws.up.(n) <- ws.unz;
  (* remap L's row indices into pivot coordinates *)
  for p = 0 to ws.lnz - 1 do
    ws.li.(p) <- ws.pinv.(ws.li.(p))
  done;
  ws.factored <- true;
  let idx, mn, rc = diagonal_ratio ws in
  if rc < Guard.rcond_min then
    raise (Singular { pivot_index = idx; magnitude = mn })

let factor a =
  let ws = workspace a.Sp.pat in
  factor_into ws a;
  ws

let rcond_estimate ws =
  if not ws.factored then 0.0
  else
    let _, _, rc = diagonal_ratio ws in
    rc

let solve_into ws b x =
  if not ws.factored then invalid_arg "Splu.solve_into: not factored";
  let n = ws.n in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Splu.solve_into: dimension mismatch";
  if b == x then invalid_arg "Splu.solve_into: b and x must not alias";
  let w = ws.w in
  for i = 0 to n - 1 do
    w.(ws.pinv.(i)) <- b.(i)
  done;
  (* forward: L is unit lower triangular in pivot coordinates *)
  for k = 0 to n - 1 do
    let wk = w.(k) in
    for p = ws.lp.(k) + 1 to ws.lp.(k + 1) - 1 do
      w.(ws.li.(p)) <- w.(ws.li.(p)) -. (ws.lx.(p) *. wk)
    done
  done;
  (* backward: U's diagonal is the last entry of each column *)
  for k = n - 1 downto 0 do
    let pd = ws.up.(k + 1) - 1 in
    let wk = w.(k) /. ws.ux.(pd) in
    w.(k) <- wk;
    for p = ws.up.(k) to pd - 1 do
      w.(ws.ui.(p)) <- w.(ws.ui.(p)) -. (ws.ux.(p) *. wk)
    done
  done;
  for k = 0 to n - 1 do
    x.(ws.q.(k)) <- w.(k)
  done

let solve ws b =
  let x = Array.make (Array.length b) 0.0 in
  solve_into ws b x;
  x

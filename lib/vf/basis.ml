(* the basis at [z] for a pole set of known [Pole.structure] *)
let row_of slots poles z =
  let p = Array.length poles in
  let out = Array.make p Complex.zero in
  List.iter
    (fun slot ->
      match slot with
      | Pole.Single k -> out.(k) <- Complex.inv (Complex.sub z poles.(k))
      | Pole.Pair_first k ->
          let t1 = Complex.inv (Complex.sub z poles.(k)) in
          let t2 = Complex.inv (Complex.sub z poles.(k + 1)) in
          out.(k) <- Complex.add t1 t2;
          out.(k + 1) <- Complex.mul Complex.i (Complex.sub t1 t2))
    slots;
  out

let row poles z = row_of (Pole.structure poles) poles z

(* one structure for the whole table *)
let table poles points = Array.map (row_of (Pole.structure poles) poles) points

let residues_of_coeffs poles coeffs =
  let p = Array.length poles in
  if Array.length coeffs <> p then invalid_arg "Basis.residues_of_coeffs";
  let out = Array.make p Complex.zero in
  List.iter
    (fun slot ->
      match slot with
      | Pole.Single k -> out.(k) <- { Complex.re = coeffs.(k); im = 0.0 }
      | Pole.Pair_first k ->
          let r = { Complex.re = coeffs.(k); im = coeffs.(k + 1) } in
          out.(k) <- r;
          out.(k + 1) <- Complex.conj r)
    (Pole.structure poles);
  out

let coeffs_of_residues poles residues =
  let p = Array.length poles in
  if Array.length residues <> p then invalid_arg "Basis.coeffs_of_residues";
  let out = Array.make p 0.0 in
  List.iter
    (fun slot ->
      match slot with
      | Pole.Single k -> out.(k) <- residues.(k).Complex.re
      | Pole.Pair_first k ->
          out.(k) <- residues.(k).Complex.re;
          out.(k + 1) <- residues.(k).Complex.im)
    (Pole.structure poles);
  out

let state_matrices poles =
  let p = Array.length poles in
  let a = Linalg.Mat.create p p in
  let b = Linalg.Vec.create p in
  List.iter
    (fun slot ->
      match slot with
      | Pole.Single k ->
          Linalg.Mat.set a k k poles.(k).Complex.re;
          b.(k) <- 1.0
      | Pole.Pair_first k ->
          let alpha = poles.(k).Complex.re and beta = poles.(k).Complex.im in
          Linalg.Mat.set a k k alpha;
          Linalg.Mat.set a k (k + 1) beta;
          Linalg.Mat.set a (k + 1) k (-.beta);
          Linalg.Mat.set a (k + 1) (k + 1) alpha;
          b.(k) <- 2.0;
          b.(k + 1) <- 0.0)
    (Pole.structure poles);
  (a, b)

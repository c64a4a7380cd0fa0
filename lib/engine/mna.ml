type output = Node of string | Diff of string * string
type backend = Dense | Sparse

(* Where stamp Jacobian contributions land. The stamps themselves are
   closed over build-time constants only — which add_mat calls run, and
   with which (r, c) arguments, never depends on the linearization
   point. That invariant is what makes the Probe/Fill pair sound: one
   probe evaluation records the exact occurrence sequence every later
   evaluation will replay, so Fill can stream values into precompiled
   slots of a flat value array with a plain counter — slot r·n + c of
   the row-major dense layout, or the compiled CSC slot of the sparse
   one. *)
type sink =
  | No_sink
  | Probe of (int * int) list ref  (* reversed occurrence sequence *)
  | Fill of fill

and fill = { slots : int array; vals : float array; mutable next : int }

type acc = {
  mutable v : Linalg.Vec.t;
  i_vec : Linalg.Vec.t;
  q_vec : Linalg.Vec.t;
  g_mat : sink;
  c_mat : sink;
}

type eval = {
  i_vec : Linalg.Vec.t;
  q_vec : Linalg.Vec.t;
  g_mat : Linalg.Mat.t option;
  c_mat : Linalg.Mat.t option;
}

(* The stamp helpers are inlined, so a stamp's computed float reaches
   the store unboxed: this compiler boxes the float argument of a call
   it does not inline. Index -1 denotes the ground reference. *)
let[@inline] volt acc k = if k < 0 then 0.0 else acc.v.(k)
let[@inline] add_vec vec k x = if k >= 0 then vec.(k) <- vec.(k) +. x

let[@inline] add_mat sink r c x =
  if r >= 0 && c >= 0 then
    match sink with
    | No_sink -> ()
    | Probe occ -> occ := (r, c) :: !occ
    | Fill f ->
        let slot = f.slots.(f.next) in
        f.next <- f.next + 1;
        f.vals.(slot) <- f.vals.(slot) +. x

(* a two-terminal capacitance between nodes [a] and [b] *)
let[@inline] stamp_cap acc a b cap =
  if cap > 0.0 then begin
    let q = cap *. (volt acc a -. volt acc b) in
    add_vec acc.q_vec a q;
    add_vec acc.q_vec b (-.q);
    add_mat acc.c_mat a a cap;
    add_mat acc.c_mat a b (-.cap);
    add_mat acc.c_mat b a (-.cap);
    add_mat acc.c_mat b b cap
  end

type t = {
  netlist : Circuit.Netlist.t;
  n_nodes : int;
  n : int;
  node_of_name : (string, int) Hashtbl.t;
  stamps : (acc -> unit) array;
  (* time-dependent injections: residual gets i_vec.(row) -= coeff·src(t) *)
  injections : (int * float * Signal.Source.t) array;
  b : Linalg.Mat.t;
  d : Linalg.Mat.t;
  input_sources : Signal.Source.t array;
  (* the stamp occurrence sequences of G and C as dense slots r·n + c:
     immutable, so domains may share them *)
  g_dense : int array;
  c_dense : int array;
}

let stamp_all stamps acc =
  for k = 0 to Array.length stamps - 1 do
    stamps.(k) acc
  done

(* residual gets i_vec.(row) -= coeff·src(t) *)
let inject injections (acc : acc) ~time =
  for k = 0 to Array.length injections - 1 do
    let row, coeff, src = injections.(k) in
    acc.i_vec.(row) <- acc.i_vec.(row) -. (coeff *. src time)
  done

(* the occurrence replay drifting from the probe would silently scatter
   values to wrong entries — make it loud instead *)
let check_replay name = function
  | Fill f when f.next <> Array.length f.slots ->
      invalid_arg (name ^ ": stamp occurrence sequence diverged")
  | No_sink | Probe _ | Fill _ -> ()

let node_idx tbl name =
  if Circuit.Netlist.is_ground name then -1
  else
    match Hashtbl.find_opt tbl name with
    | Some k -> k
    | None -> invalid_arg (Printf.sprintf "Mna: unknown node %S" name)

let build ?(inputs = []) ?(outputs = []) (nl : Circuit.Netlist.t) =
  let node_names = Circuit.Netlist.nodes nl in
  let node_of_name = Hashtbl.create 32 in
  List.iteri (fun k name -> Hashtbl.add node_of_name name k) node_names;
  let n_nodes = List.length node_names in
  (* branch unknowns for voltage sources and inductors, in netlist order *)
  let next_branch = ref n_nodes in
  let branch_of_name = Hashtbl.create 8 in
  List.iter
    (fun (c : Circuit.Netlist.component) ->
      match c.element with
      | Circuit.Netlist.Vsource _ | Circuit.Netlist.Inductor _
      | Circuit.Netlist.Vcvs _ ->
          Hashtbl.add branch_of_name c.name !next_branch;
          incr next_branch
      | Circuit.Netlist.Resistor _ | Circuit.Netlist.Capacitor _ | Circuit.Netlist.Isource _
      | Circuit.Netlist.Vccs _ | Circuit.Netlist.Cccs _ | Circuit.Netlist.Diode _
      | Circuit.Netlist.Junction_cap _ | Circuit.Netlist.Mosfet _
      | Circuit.Netlist.Bjt _ -> ())
    nl.components;
  let n = !next_branch in
  let idx = node_idx node_of_name in
  let stamps = ref [] in
  let injections = ref [] in
  let add_stamp f = stamps := f :: !stamps in
  List.iter
    (fun (c : Circuit.Netlist.component) ->
      match c.element with
      | Circuit.Netlist.Resistor { p; n = nn; ohms } ->
          let p = idx p and nn = idx nn in
          let g = 1.0 /. ohms in
          add_stamp (fun acc ->
              let i = g *. (volt acc p -. volt acc nn) in
              add_vec acc.i_vec p i;
              add_vec acc.i_vec nn (-.i);
              add_mat acc.g_mat p p g;
              add_mat acc.g_mat p nn (-.g);
              add_mat acc.g_mat nn p (-.g);
              add_mat acc.g_mat nn nn g)
      | Circuit.Netlist.Capacitor { p; n = nn; farads } ->
          let p = idx p and nn = idx nn in
          add_stamp (fun acc ->
              let q = farads *. (volt acc p -. volt acc nn) in
              add_vec acc.q_vec p q;
              add_vec acc.q_vec nn (-.q);
              add_mat acc.c_mat p p farads;
              add_mat acc.c_mat p nn (-.farads);
              add_mat acc.c_mat nn p (-.farads);
              add_mat acc.c_mat nn nn farads)
      | Circuit.Netlist.Inductor { p; n = nn; henries } ->
          let p = idx p and nn = idx nn in
          let br = Hashtbl.find branch_of_name c.name in
          add_stamp (fun acc ->
              let il = acc.v.(br) in
              (* KCL: branch current leaves p, enters n *)
              add_vec acc.i_vec p il;
              add_vec acc.i_vec nn (-.il);
              add_mat acc.g_mat p br 1.0;
              add_mat acc.g_mat nn br (-1.0);
              (* branch: v_p − v_n − L·di/dt = 0, flux enters q with −L·i *)
              add_vec acc.i_vec br (volt acc p -. volt acc nn);
              add_mat acc.g_mat br p 1.0;
              add_mat acc.g_mat br nn (-1.0);
              add_vec acc.q_vec br (-.henries *. il);
              add_mat acc.c_mat br br (-.henries))
      | Circuit.Netlist.Vsource { p; n = nn; wave } ->
          let p = idx p and nn = idx nn in
          let br = Hashtbl.find branch_of_name c.name in
          add_stamp (fun acc ->
              let il = acc.v.(br) in
              add_vec acc.i_vec p il;
              add_vec acc.i_vec nn (-.il);
              add_mat acc.g_mat p br 1.0;
              add_mat acc.g_mat nn br (-1.0);
              add_vec acc.i_vec br (volt acc p -. volt acc nn);
              add_mat acc.g_mat br p 1.0;
              add_mat acc.g_mat br nn (-1.0));
          (* branch equation: v_p − v_n − u(t) = 0 → inject +u on row br *)
          injections := (br, 1.0, Circuit.Netlist.wave_to_source wave) :: !injections
      | Circuit.Netlist.Isource { p; n = nn; wave } ->
          let p = idx p and nn = idx nn in
          let src = Circuit.Netlist.wave_to_source wave in
          (* current u flows p→n through the source: leaves p, enters n *)
          if p >= 0 then injections := (p, -1.0, src) :: !injections;
          if nn >= 0 then injections := (nn, 1.0, src) :: !injections
      | Circuit.Netlist.Vccs { p; n = nn; cp; cn; gm } ->
          let p = idx p and nn = idx nn and cp = idx cp and cn = idx cn in
          add_stamp (fun acc ->
              let i = gm *. (volt acc cp -. volt acc cn) in
              add_vec acc.i_vec p i;
              add_vec acc.i_vec nn (-.i);
              add_mat acc.g_mat p cp gm;
              add_mat acc.g_mat p cn (-.gm);
              add_mat acc.g_mat nn cp (-.gm);
              add_mat acc.g_mat nn cn gm)
      | Circuit.Netlist.Vcvs { p; n = nn; cp; cn; gain } ->
          let p = idx p and nn = idx nn and cp = idx cp and cn = idx cn in
          let br = Hashtbl.find branch_of_name c.name in
          add_stamp (fun acc ->
              let il = acc.v.(br) in
              add_vec acc.i_vec p il;
              add_vec acc.i_vec nn (-.il);
              add_mat acc.g_mat p br 1.0;
              add_mat acc.g_mat nn br (-1.0);
              (* branch: v_p − v_n − gain·(v_cp − v_cn) = 0 *)
              add_vec acc.i_vec br
                (volt acc p -. volt acc nn
                -. (gain *. (volt acc cp -. volt acc cn)));
              add_mat acc.g_mat br p 1.0;
              add_mat acc.g_mat br nn (-1.0);
              add_mat acc.g_mat br cp (-.gain);
              add_mat acc.g_mat br cn gain)
      | Circuit.Netlist.Cccs { p; n = nn; vname; gain } ->
          let p = idx p and nn = idx nn in
          let ctrl =
            match Hashtbl.find_opt branch_of_name vname with
            | Some br -> br
            | None ->
                invalid_arg
                  (Printf.sprintf
                     "Mna: CCCS %s controlled by unknown voltage source %S"
                     c.name vname)
          in
          add_stamp (fun acc ->
              let i = gain *. acc.v.(ctrl) in
              add_vec acc.i_vec p i;
              add_vec acc.i_vec nn (-.i);
              add_mat acc.g_mat p ctrl gain;
              add_mat acc.g_mat nn ctrl (-.gain))
      | Circuit.Netlist.Diode { p; n = nn; params } ->
          let p = idx p and nn = idx nn in
          add_stamp (fun acc ->
              let vd = volt acc p -. volt acc nn in
              let i, g = Device.diode_iv params vd in
              add_vec acc.i_vec p i;
              add_vec acc.i_vec nn (-.i);
              add_mat acc.g_mat p p g;
              add_mat acc.g_mat p nn (-.g);
              add_mat acc.g_mat nn p (-.g);
              add_mat acc.g_mat nn nn g;
              if params.cj > 0.0 then begin
                let q = params.cj *. vd in
                add_vec acc.q_vec p q;
                add_vec acc.q_vec nn (-.q);
                add_mat acc.c_mat p p params.cj;
                add_mat acc.c_mat p nn (-.params.cj);
                add_mat acc.c_mat nn p (-.params.cj);
                add_mat acc.c_mat nn nn params.cj
              end)
      | Circuit.Netlist.Junction_cap { p; n = nn; params } ->
          let p = idx p and nn = idx nn in
          add_stamp (fun acc ->
              let vd = volt acc p -. volt acc nn in
              let q, cap = Device.junction_q params vd in
              add_vec acc.q_vec p q;
              add_vec acc.q_vec nn (-.q);
              add_mat acc.c_mat p p cap;
              add_mat acc.c_mat p nn (-.cap);
              add_mat acc.c_mat nn p (-.cap);
              add_mat acc.c_mat nn nn cap)
      | Circuit.Netlist.Mosfet { d; g; s; pol; params } ->
          let d = idx d and g = idx g and s = idx s in
          add_stamp (fun acc ->
              let vd = volt acc d and vg = volt acc g and vs = volt acc s in
              let id, dd, dg, ds = Device.mosfet_ids pol params ~vd ~vg ~vs in
              (* drain current enters the drain node from the channel *)
              add_vec acc.i_vec d id;
              add_vec acc.i_vec s (-.id);
              add_mat acc.g_mat d d dd;
              add_mat acc.g_mat d g dg;
              add_mat acc.g_mat d s ds;
              add_mat acc.g_mat s d (-.dd);
              add_mat acc.g_mat s g (-.dg);
              add_mat acc.g_mat s s (-.ds);
              (* lumped capacitances *)
              stamp_cap acc g s params.cgs;
              stamp_cap acc g d params.cgd;
              stamp_cap acc d (-1) params.cdb)
      | Circuit.Netlist.Bjt { c; b = bb; e; pol; params } ->
          let c = idx c and bb = idx bb and e = idx e in
          add_stamp (fun acc ->
              let vc = volt acc c and vb = volt acc bb and ve = volt acc e in
              let ev = Device.bjt_currents pol params ~vc ~vb ~ve in
              (* KCL: collector and base currents enter their terminals,
                 the emitter carries the return −(ic + ib) *)
              add_vec acc.i_vec c ev.Device.ic;
              add_vec acc.i_vec bb ev.Device.ib;
              add_vec acc.i_vec e (-.(ev.Device.ic +. ev.Device.ib));
              add_mat acc.g_mat c c ev.Device.dic_dvc;
              add_mat acc.g_mat c bb ev.Device.dic_dvb;
              add_mat acc.g_mat c e ev.Device.dic_dve;
              add_mat acc.g_mat bb c ev.Device.dib_dvc;
              add_mat acc.g_mat bb bb ev.Device.dib_dvb;
              add_mat acc.g_mat bb e ev.Device.dib_dve;
              add_mat acc.g_mat e c (-.(ev.Device.dic_dvc +. ev.Device.dib_dvc));
              add_mat acc.g_mat e bb (-.(ev.Device.dic_dvb +. ev.Device.dib_dvb));
              add_mat acc.g_mat e e (-.(ev.Device.dic_dve +. ev.Device.dib_dve));
              stamp_cap acc bb e params.cje;
              stamp_cap acc bb c params.cjc))
    nl.components;
  (* inputs: designated sources *)
  let input_entries =
    List.map
      (fun name ->
        match Circuit.Netlist.find nl name with
        | None -> invalid_arg (Printf.sprintf "Mna.build: unknown input %S" name)
        | Some c -> begin
            match c.element with
            | Circuit.Netlist.Vsource { wave; _ } ->
                let br = Hashtbl.find branch_of_name c.name in
                ([ (br, 1.0) ], Circuit.Netlist.wave_to_source wave)
            | Circuit.Netlist.Isource { p; n = nn; wave } ->
                let p = idx p and nn = idx nn in
                let rows =
                  (if p >= 0 then [ (p, -1.0) ] else [])
                  @ if nn >= 0 then [ (nn, 1.0) ] else []
                in
                (rows, Circuit.Netlist.wave_to_source wave)
            | Circuit.Netlist.Resistor _ | Circuit.Netlist.Capacitor _ | Circuit.Netlist.Inductor _
            | Circuit.Netlist.Vccs _ | Circuit.Netlist.Vcvs _ | Circuit.Netlist.Cccs _
            | Circuit.Netlist.Diode _ | Circuit.Netlist.Junction_cap _
            | Circuit.Netlist.Mosfet _ | Circuit.Netlist.Bjt _ ->
                invalid_arg
                  (Printf.sprintf "Mna.build: input %S is not a source" name)
          end)
      inputs
  in
  let mi = List.length input_entries in
  let b = Linalg.Mat.create n mi in
  List.iteri
    (fun j (rows, _) -> List.iter (fun (r, coeff) -> Linalg.Mat.set b r j coeff) rows)
    input_entries;
  let input_sources =
    Array.of_list (List.map (fun (_, src) -> src) input_entries)
  in
  let mo = List.length outputs in
  let d = Linalg.Mat.create n mo in
  List.iteri
    (fun j out ->
      match out with
      | Node name ->
          let k = node_idx node_of_name name in
          if k < 0 then invalid_arg "Mna.build: ground is not an output";
          Linalg.Mat.set d k j 1.0
      | Diff (np, nn) ->
          let kp = node_idx node_of_name np and kn = node_idx node_of_name nn in
          if kp >= 0 then Linalg.Mat.set d kp j 1.0;
          if kn >= 0 then Linalg.Mat.set d kn j (-1.0))
    outputs;
  let stamps = Array.of_list (List.rev !stamps) in
  (* probe pass: record the (r, c) occurrence sequence of each matrix at
     an arbitrary linearization point (the sequence is state-independent) *)
  let g_occ = ref [] and c_occ = ref [] in
  stamp_all stamps
    {
      v = Linalg.Vec.create n;
      i_vec = Linalg.Vec.create n;
      q_vec = Linalg.Vec.create n;
      g_mat = Probe g_occ;
      c_mat = Probe c_occ;
    };
  let dense occ = Array.of_list (List.rev_map (fun (r, c) -> (r * n) + c) !occ) in
  {
    netlist = nl;
    n_nodes;
    n;
    node_of_name;
    stamps;
    injections = Array.of_list (List.rev !injections);
    b;
    d;
    input_sources;
    g_dense = dense g_occ;
    c_dense = dense c_occ;
  }

let size t = t.n
let n_nodes t = t.n_nodes
let n_inputs t = Linalg.Mat.cols t.b
let n_outputs t = Linalg.Mat.cols t.d

let node_index t name =
  match Hashtbl.find_opt t.node_of_name name with
  | Some k -> k
  | None -> raise Not_found

let netlist t = t.netlist

let eval t ?(with_matrices = true) ~time v =
  if Array.length v <> t.n then invalid_arg "Mna.eval: bad vector size";
  let matrix slots =
    if with_matrices then
      let m = Linalg.Mat.create t.n t.n in
      (Some m, Fill { slots; vals = Linalg.Mat.unsafe_data m; next = 0 })
    else (None, No_sink)
  in
  let g, g_mat = matrix t.g_dense and c, c_mat = matrix t.c_dense in
  let acc =
    {
      v;
      i_vec = Linalg.Vec.create t.n;
      q_vec = Linalg.Vec.create t.n;
      g_mat;
      c_mat;
    }
  in
  stamp_all t.stamps acc;
  inject t.injections acc ~time;
  check_replay "Mna.eval" acc.g_mat;
  check_replay "Mna.eval" acc.c_mat;
  { i_vec = acc.i_vec; q_vec = acc.q_vec; g_mat = g; c_mat = c }

(* --- in-place assembly ---------------------------------------------- *)

(* Caller-owned storage: [acc]'s vectors hold i and q, its Fill sinks
   stream G and C into the value arrays of [g_fill] and [c_fill]. *)
type assembly = { acc : acc; g_fill : fill; c_fill : fill }

let make_assembly t ~g_slots ~c_slots ~len =
  let g_fill = { slots = g_slots; vals = Array.make len 0.0; next = 0 }
  and c_fill = { slots = c_slots; vals = Array.make len 0.0; next = 0 } in
  {
    acc =
      {
        v = Linalg.Vec.create t.n;
        i_vec = Linalg.Vec.create t.n;
        q_vec = Linalg.Vec.create t.n;
        g_mat = Fill g_fill;
        c_mat = Fill c_fill;
      };
    g_fill;
    c_fill;
  }

let dense_assembly t =
  make_assembly t ~g_slots:t.g_dense ~c_slots:t.c_dense ~len:(t.n * t.n)

let residual a = a.acc.i_vec
let charge a = a.acc.q_vec
let g_values a = a.g_fill.vals
let c_values a = a.c_fill.vals

let assemble t a ~time v =
  if Array.length v <> t.n then invalid_arg "Mna.assemble: bad vector size";
  let acc = a.acc in
  acc.v <- v;
  Array.fill acc.i_vec 0 t.n 0.0;
  Array.fill acc.q_vec 0 t.n 0.0;
  Array.fill a.g_fill.vals 0 (Array.length a.g_fill.vals) 0.0;
  Array.fill a.c_fill.vals 0 (Array.length a.c_fill.vals) 0.0;
  a.g_fill.next <- 0;
  a.c_fill.next <- 0;
  stamp_all t.stamps acc;
  inject t.injections acc ~time;
  check_replay "Mna.assemble" acc.g_mat;
  check_replay "Mna.assemble" acc.c_mat

(* q(v) alone, without matrices or injections; the stamps' current
   contributions land in the assembly's residual, used as scratch *)
let charge_into t a v q =
  if Array.length v <> t.n || Array.length q <> t.n then
    invalid_arg "Mna.charge_into: bad vector size";
  let i_vec = a.acc.i_vec in
  Array.fill i_vec 0 t.n 0.0;
  Array.fill q 0 t.n 0.0;
  stamp_all t.stamps { v; i_vec; q_vec = q; g_mat = No_sink; c_mat = No_sink }

(* --- sparse assembly ------------------------------------------------- *)

type sparse_ctx = {
  pattern : Linalg.Sp.pattern;  (* union pattern of G and C, plus the diagonal *)
  asm : assembly;  (* value arrays over [pattern] *)
  g_sp : Linalg.Sp.t;  (* views of [asm]'s value arrays *)
  c_sp : Linalg.Sp.t;
}

type sparse_eval = {
  si_vec : Linalg.Vec.t;
  sq_vec : Linalg.Vec.t;
  sg : Linalg.Sp.t;
  sc : Linalg.Sp.t;
}

let sparse_ctx t =
  let occ = Array.map (fun s -> (s / t.n, s mod t.n)) in
  let ng = Array.length t.g_dense and nc = Array.length t.c_dense in
  (* one union pattern so the AC pencil G + s·C is an elementwise fill;
     the full diagonal rides along so gmin regularization and pivoting
     always have their slots, at the cost of a few explicit zeros *)
  let diag = Array.init t.n (fun k -> (k, k)) in
  let pattern, slots =
    Linalg.Sp.compile ~nrows:t.n ~ncols:t.n
      (Array.concat [ occ t.g_dense; occ t.c_dense; diag ])
  in
  let asm =
    make_assembly t ~g_slots:(Array.sub slots 0 ng)
      ~c_slots:(Array.sub slots ng nc) ~len:(Linalg.Sp.nnz pattern)
  in
  {
    pattern;
    asm;
    g_sp = { Linalg.Sp.pat = pattern; v = g_values asm };
    c_sp = { Linalg.Sp.pat = pattern; v = c_values asm };
  }

let sparse_pattern ctx = ctx.pattern
let sparse_assembly ctx = ctx.asm

let eval_sparse t ctx ~time v =
  assemble t ctx.asm ~time v;
  {
    si_vec = Linalg.Vec.copy (residual ctx.asm);
    sq_vec = Linalg.Vec.copy (charge ctx.asm);
    sg = ctx.g_sp;
    sc = ctx.c_sp;
  }

let b_matrix t = Linalg.Mat.copy t.b
let d_matrix t = Linalg.Mat.copy t.d

let input_values t time = Array.map (fun src -> src time) t.input_sources
let output_values t v = Linalg.Mat.mulv_t t.d v

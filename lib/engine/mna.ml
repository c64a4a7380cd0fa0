type output = Node of string | Diff of string * string
type backend = Dense | Sparse

(* Where the device stamps' Jacobian contributions land. A device stamp
   is closed over build-time constants only — which add_mat calls run,
   and with which (r, c) arguments, never depends on the linearization
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
  mutable q_vec : Linalg.Vec.t;
  g_mat : sink;
  c_mat : sink;
  charge_only : bool;  (* q alone: the linear elements skip i *)
  dev : Device.scratch;
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
let[@inline] volt v k = if k < 0 then 0.0 else v.(k)
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
    let q = cap *. (volt acc.v a -. volt acc.v b) in
    add_vec acc.q_vec a q;
    add_vec acc.q_vec b (-.q);
    add_mat acc.c_mat a a cap;
    add_mat acc.c_mat a b (-.cap);
    add_mat acc.c_mat b a (-.cap);
    add_mat acc.c_mat b b cap
  end

(* --- the stamp program ----------------------------------------------- *)

(* The linear elements compiled to data: a kind, five unknown indices
   (p, n, cp, cn and the branch or controlling branch; -1 is ground or
   unused) and one value. *)
type kind = Res | Cap | Ind | Vsrc | Vccs | Vcvs | Cccs

type linear = { kind : kind array; node : int array; value : float array }

(* One matrix's entries split by what reaches them. An entry that only
   linear elements stamp is constant: {!make_assembly} sums it once, in
   stamp order from 0.0, and no evaluation zeroes or restamps it. Every
   other entry varies: each evaluation zeroes it and adds all of its
   contributions, linear ones included, in stamp order. Keys are dense
   indices r·n + c. *)
type plan = {
  occ : int array;  (* the keys of every contribution to a varying entry *)
  var_val : float array;  (* the linear ones' values, in stamp order *)
  const_key : int array;  (* every contribution to a constant entry *)
  const_val : float array;
  varying : int array;  (* the distinct varying entries *)
}

(* The program runs in netlist order: a block of consecutive linear
   elements [first, last) is a flat loop, whose contributions to varying
   entries are [var_val] ranges; a nonlinear device is a closure. So
   every entry of i, q, G and C keeps the accumulation order of one
   closure per element. *)
type op =
  | Linear of {
      first : int;
      last : int;
      g_first : int;
      g_last : int;
      c_first : int;
      c_last : int;
    }
  | Device of (acc -> unit)

type t = {
  netlist : Circuit.Netlist.t;
  n_nodes : int;
  n : int;
  node_of_name : (string, int) Hashtbl.t;
  program : op array;
  linear : linear;
  (* time-dependent injections: residual gets i_vec.(row) -= coeff·src(t) *)
  injections : (int * float * Signal.Source.t) array;
  b : Linalg.Mat.t;
  d : Linalg.Mat.t;
  input_sources : Signal.Source.t array;
  (* immutable, so domains may share them *)
  g_plan : plan;
  c_plan : plan;
}

(* the i and q contributions of linear elements [first, last) *)
let run_vectors lin (acc : acc) ~first ~last =
  let v = acc.v and i_vec = acc.i_vec and q_vec = acc.q_vec in
  let charge_only = acc.charge_only in
  for k = first to last - 1 do
    let o = 5 * k in
    let p = lin.node.(o) and nn = lin.node.(o + 1) in
    let x = lin.value.(k) in
    match lin.kind.(k) with
    | Res ->
        if not charge_only then begin
          let i = x *. (volt v p -. volt v nn) in
          add_vec i_vec p i;
          add_vec i_vec nn (-.i)
        end
    | Cap ->
        let q = x *. (volt v p -. volt v nn) in
        add_vec q_vec p q;
        add_vec q_vec nn (-.q)
    | Ind (* the flux enters q with −L·i *) ->
        let br = lin.node.(o + 4) in
        let il = v.(br) in
        if not charge_only then begin
          (* KCL: branch current leaves p, enters n *)
          add_vec i_vec p il;
          add_vec i_vec nn (-.il);
          (* branch: v_p − v_n − L·di/dt = 0 *)
          add_vec i_vec br (volt v p -. volt v nn)
        end;
        add_vec q_vec br (-.x *. il)
    | Vsrc ->
        if not charge_only then begin
          let br = lin.node.(o + 4) in
          let il = v.(br) in
          add_vec i_vec p il;
          add_vec i_vec nn (-.il);
          add_vec i_vec br (volt v p -. volt v nn)
        end
    | Vccs ->
        if not charge_only then begin
          let cp = lin.node.(o + 2) and cn = lin.node.(o + 3) in
          let i = x *. (volt v cp -. volt v cn) in
          add_vec i_vec p i;
          add_vec i_vec nn (-.i)
        end
    | Vcvs ->
        if not charge_only then begin
          let cp = lin.node.(o + 2) and cn = lin.node.(o + 3) in
          let br = lin.node.(o + 4) in
          let il = v.(br) in
          add_vec i_vec p il;
          add_vec i_vec nn (-.il);
          (* branch: v_p − v_n − gain·(v_cp − v_cn) = 0 *)
          add_vec i_vec br
            (volt v p -. volt v nn -. (x *. (volt v cp -. volt v cn)))
        end
    | Cccs ->
        if not charge_only then begin
          let i = x *. v.(lin.node.(o + 4)) in
          add_vec i_vec p i;
          add_vec i_vec nn (-.i)
        end
  done

(* a linear block's contributions to varying entries, streamed through
   the Fill counter in stamp order *)
let run_matrix sink var_val ~first ~last =
  match sink with
  | Fill f ->
      for j = first to last - 1 do
        let slot = f.slots.(f.next) in
        f.next <- f.next + 1;
        f.vals.(slot) <- f.vals.(slot) +. var_val.(j)
      done
  | No_sink | Probe _ -> ()

let run t acc =
  let program = t.program in
  for k = 0 to Array.length program - 1 do
    match program.(k) with
    | Device stamp -> stamp acc
    | Linear { first; last; g_first; g_last; c_first; c_last } ->
        run_vectors t.linear acc ~first ~last;
        run_matrix acc.g_mat t.g_plan.var_val ~first:g_first ~last:g_last;
        run_matrix acc.c_mat t.c_plan.var_val ~first:c_first ~last:c_last
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

(* --- nonlinear device stamps ----------------------------------------- *)

(* Each reads its terminal voltages into the accumulator's scratch,
   evaluates the device there and stamps the results. *)
let diode_stamp p nn (params : Circuit.Netlist.diode_params) acc =
  let e = acc.dev in
  let vd = volt acc.v p -. volt acc.v nn in
  e.Device.x1 <- vd;
  Device.diode params e;
  let i = e.Device.f and g = e.Device.df1 in
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
  end

let junction_stamp p nn params acc =
  let e = acc.dev in
  e.Device.x1 <- volt acc.v p -. volt acc.v nn;
  Device.junction params e;
  let q = e.Device.f and cap = e.Device.df1 in
  add_vec acc.q_vec p q;
  add_vec acc.q_vec nn (-.q);
  add_mat acc.c_mat p p cap;
  add_mat acc.c_mat p nn (-.cap);
  add_mat acc.c_mat nn p (-.cap);
  add_mat acc.c_mat nn nn cap

let mosfet_stamp d g s pol (params : Circuit.Netlist.mos_params) acc =
  let e = acc.dev in
  e.Device.x1 <- volt acc.v d;
  e.Device.x2 <- volt acc.v g;
  e.Device.x3 <- volt acc.v s;
  Device.mosfet pol params e;
  let id = e.Device.f and dd = e.Device.df1 in
  let dg = e.Device.df2 and ds = e.Device.df3 in
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
  stamp_cap acc d (-1) params.cdb

let bjt_stamp c bb e_ pol (params : Circuit.Netlist.bjt_params) acc =
  let e = acc.dev in
  e.Device.x1 <- volt acc.v c;
  e.Device.x2 <- volt acc.v bb;
  e.Device.x3 <- volt acc.v e_;
  Device.bjt pol params e;
  let ic = e.Device.f and ib = e.Device.h in
  let dic_dvc = e.Device.df1 and dic_dvb = e.Device.df2 in
  let dic_dve = e.Device.df3 and dib_dvc = e.Device.dh1 in
  let dib_dvb = e.Device.dh2 and dib_dve = e.Device.dh3 in
  (* KCL: collector and base currents enter their terminals, the
     emitter carries the return −(ic + ib) *)
  add_vec acc.i_vec c ic;
  add_vec acc.i_vec bb ib;
  add_vec acc.i_vec e_ (-.(ic +. ib));
  add_mat acc.g_mat c c dic_dvc;
  add_mat acc.g_mat c bb dic_dvb;
  add_mat acc.g_mat c e_ dic_dve;
  add_mat acc.g_mat bb c dib_dvc;
  add_mat acc.g_mat bb bb dib_dvb;
  add_mat acc.g_mat bb e_ dib_dve;
  add_mat acc.g_mat e_ c (-.(dic_dvc +. dib_dvc));
  add_mat acc.g_mat e_ bb (-.(dic_dvb +. dib_dvb));
  add_mat acc.g_mat e_ e_ (-.(dic_dve +. dib_dve));
  stamp_cap acc bb e_ params.cje;
  stamp_cap acc bb c params.cjc

(* --- compiling the netlist ------------------------------------------- *)

(* the program's shape before its matrix ranges are known: runs of
   consecutive linear elements [first, last) and device stamps, by
   index, in netlist order *)
type shape = Run of int * int | Dev of int

let two_terminal f p nn x =
  f p p x;
  f p nn (-.x);
  f nn p (-.x);
  f nn nn x

(* KCL of the branch current at p and n, and the branch row's v_p − v_n *)
let branch f p nn br =
  f p br 1.0;
  f nn br (-1.0);
  f br p 1.0;
  f br nn (-1.0)

(* [f r c x] for each static contribution of linear element [k] to G
   ([~g:true]) or C, in stamp order *)
let lin_entries lin k ~g f =
  let o = 5 * k in
  let p = lin.node.(o) and nn = lin.node.(o + 1) in
  let cp = lin.node.(o + 2) and cn = lin.node.(o + 3) in
  let br = lin.node.(o + 4) and x = lin.value.(k) in
  match lin.kind.(k) with
  | Res -> if g then two_terminal f p nn x
  | Cap -> if not g then two_terminal f p nn x
  | Ind -> if g then branch f p nn br else f br br (-.x)
  | Vsrc -> if g then branch f p nn br
  | Vccs ->
      if g then begin
        f p cp x;
        f p cn (-.x);
        f nn cp (-.x);
        f nn cn x
      end
  | Vcvs ->
      if g then begin
        branch f p nn br;
        f br cp (-.x);
        f br cn x
      end
  | Cccs ->
      if g then begin
        f p br x;
        f nn br (-.x)
      end

let new_acc ~n ~v ~g_mat ~c_mat ~charge_only =
  {
    v;
    i_vec = Linalg.Vec.create n;
    q_vec = Linalg.Vec.create n;
    g_mat;
    c_mat;
    charge_only;
    dev = Device.scratch ();
  }

(* Split one matrix's contributions, in program order, into the
   constant and varying entries (see [plan]); [dev_occ.(d)] is device
   [d]'s probed occurrence sequence. Returns the plan and the [var_val]
   range of each step of [shape]. *)
let make_plan ~n ~g lin shape dev_occ =
  let varying = Hashtbl.create 64 in
  Array.iter (List.iter (fun (r, c) -> Hashtbl.replace varying ((r * n) + c) ())) dev_occ;
  let n_dev = Array.fold_left (fun a l -> a + List.length l) 0 dev_occ in
  let n_var = ref 0 and n_const = ref 0 in
  let count r c _ =
    if r >= 0 && c >= 0 then
      if Hashtbl.mem varying ((r * n) + c) then incr n_var else incr n_const
  in
  let each_lin f =
    List.iter
      (function
        | Run (first, last) ->
            for k = first to last - 1 do
              lin_entries lin k ~g f
            done
        | Dev _ -> ())
      shape
  in
  each_lin count;
  let occ = Array.make (n_dev + !n_var) 0 and var_val = Array.make !n_var 0.0 in
  let const_key = Array.make !n_const 0 and const_val = Array.make !n_const 0.0 in
  let io = ref 0 and iv = ref 0 and ic = ref 0 in
  let fill r c x =
    if r >= 0 && c >= 0 then begin
      let key = (r * n) + c in
      if Hashtbl.mem varying key then begin
        occ.(!io) <- key;
        incr io;
        var_val.(!iv) <- x;
        incr iv
      end
      else begin
        const_key.(!ic) <- key;
        const_val.(!ic) <- x;
        incr ic
      end
    end
  in
  let ranges =
    List.map
      (function
        | Dev d ->
            List.iter
              (fun (r, c) ->
                occ.(!io) <- (r * n) + c;
                incr io)
              dev_occ.(d);
            (0, 0)
        | Run (first, last) ->
            let v0 = !iv in
            for k = first to last - 1 do
              lin_entries lin k ~g fill
            done;
            (v0, !iv))
      shape
  in
  let keys = Array.of_list (Hashtbl.fold (fun k () a -> k :: a) varying []) in
  Array.sort compare keys;
  ({ occ; var_val; const_key; const_val; varying = keys }, ranges)

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
  (* the linear elements' data, sized for every component *)
  let m = List.length nl.components in
  let linear =
    { kind = Array.make m Res; node = Array.make (5 * m) (-1); value = Array.make m 0.0 }
  in
  let n_lin = ref 0 and run_first = ref 0 in
  let shape = ref [] and devs = ref [] and n_devs = ref 0 in
  let injections = ref [] in
  let lin kind ?(cp = -1) ?(cn = -1) ?(br = -1) p nn value =
    let k = !n_lin in
    linear.kind.(k) <- kind;
    let o = 5 * k in
    linear.node.(o) <- p;
    linear.node.(o + 1) <- nn;
    linear.node.(o + 2) <- cp;
    linear.node.(o + 3) <- cn;
    linear.node.(o + 4) <- br;
    linear.value.(k) <- value;
    incr n_lin
  in
  let dev stamp =
    if !n_lin > !run_first then shape := Run (!run_first, !n_lin) :: !shape;
    run_first := !n_lin;
    shape := Dev !n_devs :: !shape;
    devs := stamp :: !devs;
    incr n_devs
  in
  List.iter
    (fun (c : Circuit.Netlist.component) ->
      match c.element with
      | Circuit.Netlist.Resistor { p; n = nn; ohms } ->
          lin Res (idx p) (idx nn) (1.0 /. ohms)
      | Circuit.Netlist.Capacitor { p; n = nn; farads } ->
          lin Cap (idx p) (idx nn) farads
      | Circuit.Netlist.Inductor { p; n = nn; henries } ->
          lin Ind ~br:(Hashtbl.find branch_of_name c.name) (idx p) (idx nn) henries
      | Circuit.Netlist.Vsource { p; n = nn; wave } ->
          let br = Hashtbl.find branch_of_name c.name in
          lin Vsrc ~br (idx p) (idx nn) 0.0;
          (* branch equation: v_p − v_n − u(t) = 0 → inject +u on row br *)
          injections := (br, 1.0, Circuit.Netlist.wave_to_source wave) :: !injections
      | Circuit.Netlist.Isource { p; n = nn; wave } ->
          let p = idx p and nn = idx nn in
          let src = Circuit.Netlist.wave_to_source wave in
          (* current u flows p→n through the source: leaves p, enters n *)
          if p >= 0 then injections := (p, -1.0, src) :: !injections;
          if nn >= 0 then injections := (nn, 1.0, src) :: !injections
      | Circuit.Netlist.Vccs { p; n = nn; cp; cn; gm } ->
          lin Vccs ~cp:(idx cp) ~cn:(idx cn) (idx p) (idx nn) gm
      | Circuit.Netlist.Vcvs { p; n = nn; cp; cn; gain } ->
          let br = Hashtbl.find branch_of_name c.name in
          lin Vcvs ~cp:(idx cp) ~cn:(idx cn) ~br (idx p) (idx nn) gain
      | Circuit.Netlist.Cccs { p; n = nn; vname; gain } ->
          let ctrl =
            match Hashtbl.find_opt branch_of_name vname with
            | Some br -> br
            | None ->
                invalid_arg
                  (Printf.sprintf
                     "Mna: CCCS %s controlled by unknown voltage source %S"
                     c.name vname)
          in
          lin Cccs ~br:ctrl (idx p) (idx nn) gain
      | Circuit.Netlist.Diode { p; n = nn; params } ->
          dev (diode_stamp (idx p) (idx nn) params)
      | Circuit.Netlist.Junction_cap { p; n = nn; params } ->
          dev (junction_stamp (idx p) (idx nn) params)
      | Circuit.Netlist.Mosfet { d; g; s; pol; params } ->
          dev (mosfet_stamp (idx d) (idx g) (idx s) pol params)
      | Circuit.Netlist.Bjt { c; b = bb; e; pol; params } ->
          dev (bjt_stamp (idx c) (idx bb) (idx e) pol params))
    nl.components;
  if !n_lin > !run_first then shape := Run (!run_first, !n_lin) :: !shape;
  let shape = List.rev !shape and devs = Array.of_list (List.rev !devs) in
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
  (* probe pass: record each device's (r, c) occurrence sequence of
     either matrix at an arbitrary linearization point (the sequence is
     state-independent) *)
  let probes =
    Array.map
      (fun stamp ->
        let g_occ = ref [] and c_occ = ref [] in
        stamp
          (new_acc ~n ~v:(Linalg.Vec.create n) ~g_mat:(Probe g_occ)
             ~c_mat:(Probe c_occ) ~charge_only:false);
        (List.rev !g_occ, List.rev !c_occ))
      devs
  in
  let g_plan, g_ranges = make_plan ~n ~g:true linear shape (Array.map fst probes) in
  let c_plan, c_ranges = make_plan ~n ~g:false linear shape (Array.map snd probes) in
  let program =
    List.map2
      (fun step ((g_first, g_last), (c_first, c_last)) ->
        match step with
        | Dev d -> Device devs.(d)
        | Run (first, last) ->
            Linear { first; last; g_first; g_last; c_first; c_last })
      shape
      (List.combine g_ranges c_ranges)
  in
  {
    netlist = nl;
    n_nodes;
    n;
    node_of_name;
    program = Array.of_list program;
    linear;
    injections = Array.of_list (List.rev !injections);
    b;
    d;
    input_sources;
    g_plan;
    c_plan;
  }

let size t = t.n
let n_nodes t = t.n_nodes
let n_inputs t = Linalg.Mat.cols t.b
let n_outputs t = Linalg.Mat.cols t.d

let node_index t name =
  match Hashtbl.find_opt t.node_of_name name with
  | Some k -> k
  | None -> raise Not_found

(* --- in-place assembly ---------------------------------------------- *)

(* Caller-owned storage: [acc]'s vectors hold i and q, its Fill sinks
   stream G and C into the value arrays of [g_fill] and [c_fill];
   [g_zero] and [c_zero] are the varying slots an evaluation zeroes;
   [qacc] is the charge-only accumulator [charge_into] runs, sharing
   the residual (as scratch) and the device scratch. *)
type assembly = {
  acc : acc;
  qacc : acc;
  g_fill : fill;
  c_fill : fill;
  g_zero : int array;
  c_zero : int array;
}

(* [slot_of] maps a dense key r·n + c to the layout's slot; the value
   arrays come in zeroed and leave with the constant entries summed *)
let make_assembly t ~slot_of ~g_vals ~c_vals =
  let fill plan vals =
    for j = 0 to Array.length plan.const_key - 1 do
      let s = slot_of plan.const_key.(j) in
      vals.(s) <- vals.(s) +. plan.const_val.(j)
    done;
    { slots = Array.map slot_of plan.occ; vals; next = 0 }
  in
  let g_fill = fill t.g_plan g_vals and c_fill = fill t.c_plan c_vals in
  let acc =
    new_acc ~n:t.n ~v:[||] ~g_mat:(Fill g_fill) ~c_mat:(Fill c_fill)
      ~charge_only:false
  in
  {
    acc;
    qacc =
      {
        acc with
        q_vec = [||];
        g_mat = No_sink;
        c_mat = No_sink;
        charge_only = true;
      };
    g_fill;
    c_fill;
    g_zero = Array.map slot_of t.g_plan.varying;
    c_zero = Array.map slot_of t.c_plan.varying;
  }

let dense_assembly t =
  let len = t.n * t.n in
  make_assembly t ~slot_of:Fun.id ~g_vals:(Array.make len 0.0)
    ~c_vals:(Array.make len 0.0)

let residual a = a.acc.i_vec
let charge a = a.acc.q_vec
let g_values a = a.g_fill.vals
let c_values a = a.c_fill.vals

let varying_slots a =
  let s = Array.append a.g_zero a.c_zero in
  Array.sort compare s;
  let out = ref [] in
  Array.iteri (fun k x -> if k = 0 || s.(k - 1) <> x then out := x :: !out) s;
  Array.of_list (List.rev !out)

let zero_slots vals slots =
  for k = 0 to Array.length slots - 1 do
    vals.(slots.(k)) <- 0.0
  done

let assemble t a ~time v =
  if Array.length v <> t.n then invalid_arg "Mna.assemble: bad vector size";
  let acc = a.acc in
  acc.v <- v;
  Array.fill acc.i_vec 0 t.n 0.0;
  Array.fill acc.q_vec 0 t.n 0.0;
  zero_slots a.g_fill.vals a.g_zero;
  zero_slots a.c_fill.vals a.c_zero;
  a.g_fill.next <- 0;
  a.c_fill.next <- 0;
  run t acc;
  inject t.injections acc ~time;
  check_replay "Mna.assemble" acc.g_mat;
  check_replay "Mna.assemble" acc.c_mat

(* q(v) alone, without matrices or injections; the devices' current
   contributions land in the assembly's residual, used as scratch *)
let charge_into t a v q =
  if Array.length v <> t.n || Array.length q <> t.n then
    invalid_arg "Mna.charge_into: bad vector size";
  let acc = a.qacc in
  acc.v <- v;
  acc.q_vec <- q;
  Array.fill q 0 t.n 0.0;
  run t acc

let eval t ?(with_matrices = true) ~time v =
  if Array.length v <> t.n then invalid_arg "Mna.eval: bad vector size";
  if with_matrices then begin
    let g = Linalg.Mat.create t.n t.n and c = Linalg.Mat.create t.n t.n in
    let a =
      make_assembly t ~slot_of:Fun.id ~g_vals:(Linalg.Mat.unsafe_data g)
        ~c_vals:(Linalg.Mat.unsafe_data c)
    in
    assemble t a ~time v;
    { i_vec = a.acc.i_vec; q_vec = a.acc.q_vec; g_mat = Some g; c_mat = Some c }
  end
  else begin
    let acc = new_acc ~n:t.n ~v ~g_mat:No_sink ~c_mat:No_sink ~charge_only:false in
    run t acc;
    inject t.injections acc ~time;
    { i_vec = acc.i_vec; q_vec = acc.q_vec; g_mat = None; c_mat = None }
  end

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
  let n = t.n in
  let entries keys = Array.map (fun s -> (s / n, s mod n)) keys in
  (* one union pattern so the AC pencil G + s·C is an elementwise fill;
     the full diagonal rides along so gmin regularization and pivoting
     always have their slots, at the cost of a few explicit zeros *)
  let diag = Array.init n (fun k -> (k, k)) in
  let pattern, _ =
    Linalg.Sp.compile ~nrows:n ~ncols:n
      (Array.concat
         [
           entries t.g_plan.occ;
           entries t.g_plan.const_key;
           entries t.c_plan.occ;
           entries t.c_plan.const_key;
           diag;
         ])
  in
  let slot_of key =
    match Linalg.Sp.find pattern (key / n) (key mod n) with
    | Some s -> s
    | None -> assert false (* every key went into the pattern *)
  in
  let nnz = Linalg.Sp.nnz pattern in
  let asm =
    make_assembly t ~slot_of ~g_vals:(Array.make nnz 0.0)
      ~c_vals:(Array.make nnz 0.0)
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

(* The reference stamper of the MNA stamp program: one closure per
   element, every G and C entry zeroed and re-added on each evaluation,
   and device models that return tuples — the evaluation that
   [Engine.Mna] compiled its stamp program and in-place devices from.
   The stamp-program property compares the two bit for bit. *)

module N = Circuit.Netlist

(* the device models as tuple-returning functions *)
module Device = struct
  let thermal_voltage = 0.025852

  let diode_gmin = 1e-12
  let exp_limit = 40.0

  let diode_iv (p : Circuit.Netlist.diode_params) vd =
    let vt = thermal_voltage *. p.ideality in
    let x = vd /. vt in
    let i, g =
      if x <= exp_limit then begin
        let e = exp x in
        (p.i_sat *. (e -. 1.0), p.i_sat *. e /. vt)
      end
      else begin
        (* linear continuation of the exponential beyond the limit *)
        let e_lim = exp exp_limit in
        let e = e_lim *. (1.0 +. (x -. exp_limit)) in
        (p.i_sat *. (e -. 1.0), p.i_sat *. e_lim /. vt)
      end
    in
    (i +. (diode_gmin *. vd), g +. diode_gmin)

  let mos_leak = 1e-9

  (* Forward level-1 drain current for vds >= 0:
     returns (id, gm, gds) = (F, dF/dvgs, dF/dvds). *)
  let level1_forward (p : Circuit.Netlist.mos_params) vgs vds =
    let beta = p.kp *. p.w /. p.l in
    let vov = vgs -. p.vth in
    if vov <= 0.0 then (0.0, 0.0, 0.0)
    else begin
      let clm = 1.0 +. (p.lambda *. vds) in
      if vds >= vov then begin
        (* saturation *)
        let id0 = 0.5 *. beta *. vov *. vov in
        (id0 *. clm, beta *. vov *. clm, id0 *. p.lambda)
      end
      else begin
        (* triode *)
        let id0 = beta *. ((vov *. vds) -. (0.5 *. vds *. vds)) in
        let did0_dvds = beta *. (vov -. vds) in
        ( id0 *. clm,
          beta *. vds *. clm,
          (did0_dvds *. clm) +. (id0 *. p.lambda) )
      end
    end

  (* NMOS-like current into drain for arbitrary bias (symmetric swap). *)
  let nmos_ids p ~vd ~vg ~vs =
    if vd >= vs then begin
      let id, gm, gds = level1_forward p (vg -. vs) (vd -. vs) in
      let id = id +. (mos_leak *. (vd -. vs)) in
      let gds = gds +. mos_leak in
      (id, gds, gm, -.(gm +. gds))
    end
    else begin
      (* reverse operation: drain and source exchange roles *)
      let id, gm, gds = level1_forward p (vg -. vd) (vs -. vd) in
      let id = id +. (mos_leak *. (vs -. vd)) in
      let gds = gds +. mos_leak in
      (-.id, gm +. gds, -.gm, -.gds)
    end

  let mosfet_ids pol p ~vd ~vg ~vs =
    match pol with
    | Circuit.Netlist.Nmos -> nmos_ids p ~vd ~vg ~vs
    | Circuit.Netlist.Pmos ->
        (* mirror: Id_p(vd,vg,vs) = -Id_n(-vd,-vg,-vs); the chain rule through
           the sign flips leaves the conductances unchanged in sign. *)
        let id, dd, dg, ds =
          nmos_ids p ~vd:(-.vd) ~vg:(-.vg) ~vs:(-.vs)
        in
        (-.id, dd, dg, ds)

  let junction_fc = 0.5

  let junction_q (p : Circuit.Netlist.junction_params) v =
    let vb = junction_fc *. p.phi in
    if v < vb then begin
      let w = 1.0 -. (v /. p.phi) in
      let q = p.cj0 *. p.phi /. (1.0 -. p.m) *. (1.0 -. (w ** (1.0 -. p.m))) in
      let c = p.cj0 *. (w ** -.p.m) in
      (q, c)
    end
    else begin
      (* linearized continuation above fc·phi *)
      let w_b = 1.0 -. junction_fc in
      let q_b = p.cj0 *. p.phi /. (1.0 -. p.m) *. (1.0 -. (w_b ** (1.0 -. p.m))) in
      let c_b = p.cj0 *. (w_b ** -.p.m) in
      let dc_dv = p.cj0 *. p.m /. p.phi *. (w_b ** -.(p.m +. 1.0)) in
      let dv = v -. vb in
      (q_b +. (c_b *. dv) +. (0.5 *. dc_dv *. dv *. dv), c_b +. (dc_dv *. dv))
    end

  type bjt_eval = {
    ic : float;
    ib : float;
    dic_dvc : float;
    dic_dvb : float;
    dic_dve : float;
    dib_dvc : float;
    dib_dvb : float;
    dib_dve : float;
  }

  (* limited exponential shared with the diode model *)
  let lim_exp x =
    if x <= exp_limit then begin
      let e = exp x in
      (e, e)
    end
    else begin
      let e_lim = exp exp_limit in
      (e_lim *. (1.0 +. (x -. exp_limit)), e_lim)
    end

  let npn_currents (p : Circuit.Netlist.bjt_params) ~vc ~vb ~ve =
    let vt = thermal_voltage in
    let ef, def = lim_exp ((vb -. ve) /. vt) in
    let er, der = lim_exp ((vb -. vc) /. vt) in
    let i_f = p.Circuit.Netlist.is_bjt *. (ef -. 1.0) in
    let i_r = p.Circuit.Netlist.is_bjt *. (er -. 1.0) in
    let gf = p.Circuit.Netlist.is_bjt *. def /. vt in
    let gr = p.Circuit.Netlist.is_bjt *. der /. vt in
    let krr = 1.0 +. (1.0 /. p.Circuit.Netlist.br) in
    (* small ohmic leakage keeps isolated nodes solvable *)
    let ic = i_f -. (krr *. i_r) +. (diode_gmin *. (vc -. ve)) in
    let ib =
      (i_f /. p.Circuit.Netlist.bf) +. (i_r /. p.Circuit.Netlist.br)
      +. (diode_gmin *. (vb -. ve))
    in
    {
      ic;
      ib;
      dic_dvc = (krr *. gr) +. diode_gmin;
      dic_dvb = gf -. (krr *. gr);
      dic_dve = -.gf -. diode_gmin;
      dib_dvc = -.gr /. p.Circuit.Netlist.br;
      dib_dvb = (gf /. p.Circuit.Netlist.bf) +. (gr /. p.Circuit.Netlist.br) +. diode_gmin;
      dib_dve = (-.gf /. p.Circuit.Netlist.bf) -. diode_gmin;
    }

  let bjt_currents pol p ~vc ~vb ~ve =
    match pol with
    | Circuit.Netlist.Npn -> npn_currents p ~vc ~vb ~ve
    | Circuit.Netlist.Pnp ->
        (* mirror: currents negate, conductances keep their sign *)
        let e = npn_currents p ~vc:(-.vc) ~vb:(-.vb) ~ve:(-.ve) in
        { e with ic = -.e.ic; ib = -.e.ib }
end

type eval = {
  i_vec : float array;  (* i(v) − s(t) *)
  q_vec : float array;
  g : float array;  (* n×n row-major *)
  c : float array;
}

type acc = {
  v : float array;
  n : int;
  ai : float array;
  aq : float array;
  ag : float array;
  ac : float array;
}

let volt acc k = if k < 0 then 0.0 else acc.v.(k)
let add_vec vec k x = if k >= 0 then vec.(k) <- vec.(k) +. x

let add_mat acc m r c x =
  if r >= 0 && c >= 0 then m.((r * acc.n) + c) <- m.((r * acc.n) + c) +. x

let stamp_cap acc a b cap =
  if cap > 0.0 then begin
    let q = cap *. (volt acc a -. volt acc b) in
    add_vec acc.aq a q;
    add_vec acc.aq b (-.q);
    add_mat acc acc.ac a a cap;
    add_mat acc acc.ac a b (-.cap);
    add_mat acc acc.ac b a (-.cap);
    add_mat acc acc.ac b b cap
  end

(* [eval nl ~time v]: the unknowns are the sorted non-ground nodes, then
   one branch current per V, L and E in netlist order *)
let eval (nl : N.t) ~time v =
  let names = N.nodes nl in
  let node_of = Hashtbl.create 16 in
  List.iteri (fun k name -> Hashtbl.add node_of name k) names;
  let idx name = if N.is_ground name then -1 else Hashtbl.find node_of name in
  let next = ref (List.length names) in
  let branch_of = Hashtbl.create 8 in
  List.iter
    (fun (c : N.component) ->
      match c.element with
      | N.Vsource _ | N.Inductor _ | N.Vcvs _ ->
          Hashtbl.add branch_of c.name !next;
          incr next
      | _ -> ())
    nl.N.components;
  let n = !next in
  let acc =
    {
      v;
      n;
      ai = Array.make n 0.0;
      aq = Array.make n 0.0;
      ag = Array.make (n * n) 0.0;
      ac = Array.make (n * n) 0.0;
    }
  in
  let injections = ref [] in
  let stamps =
    List.filter_map
      (fun (c : N.component) ->
        match c.element with
        | N.Resistor { p; n = nn; ohms } ->
            let p = idx p and nn = idx nn in
            let g = 1.0 /. ohms in
            Some
              (fun acc ->
                let i = g *. (volt acc p -. volt acc nn) in
                add_vec acc.ai p i;
                add_vec acc.ai nn (-.i);
                add_mat acc acc.ag p p g;
                add_mat acc acc.ag p nn (-.g);
                add_mat acc acc.ag nn p (-.g);
                add_mat acc acc.ag nn nn g)
        | N.Capacitor { p; n = nn; farads } ->
            let p = idx p and nn = idx nn in
            Some
              (fun acc ->
                let q = farads *. (volt acc p -. volt acc nn) in
                add_vec acc.aq p q;
                add_vec acc.aq nn (-.q);
                add_mat acc acc.ac p p farads;
                add_mat acc acc.ac p nn (-.farads);
                add_mat acc acc.ac nn p (-.farads);
                add_mat acc acc.ac nn nn farads)
        | N.Inductor { p; n = nn; henries } ->
            let p = idx p and nn = idx nn in
            let br = Hashtbl.find branch_of c.name in
            Some
              (fun acc ->
                let il = acc.v.(br) in
                add_vec acc.ai p il;
                add_vec acc.ai nn (-.il);
                add_mat acc acc.ag p br 1.0;
                add_mat acc acc.ag nn br (-1.0);
                add_vec acc.ai br (volt acc p -. volt acc nn);
                add_mat acc acc.ag br p 1.0;
                add_mat acc acc.ag br nn (-1.0);
                add_vec acc.aq br (-.henries *. il);
                add_mat acc acc.ac br br (-.henries))
        | N.Vsource { p; n = nn; wave } ->
            let p = idx p and nn = idx nn in
            let br = Hashtbl.find branch_of c.name in
            injections := (br, 1.0, N.wave_to_source wave) :: !injections;
            Some
              (fun acc ->
                let il = acc.v.(br) in
                add_vec acc.ai p il;
                add_vec acc.ai nn (-.il);
                add_mat acc acc.ag p br 1.0;
                add_mat acc acc.ag nn br (-1.0);
                add_vec acc.ai br (volt acc p -. volt acc nn);
                add_mat acc acc.ag br p 1.0;
                add_mat acc acc.ag br nn (-1.0))
        | N.Isource { p; n = nn; wave } ->
            let p = idx p and nn = idx nn in
            let src = N.wave_to_source wave in
            if p >= 0 then injections := (p, -1.0, src) :: !injections;
            if nn >= 0 then injections := (nn, 1.0, src) :: !injections;
            None
        | N.Vccs { p; n = nn; cp; cn; gm } ->
            let p = idx p and nn = idx nn and cp = idx cp and cn = idx cn in
            Some
              (fun acc ->
                let i = gm *. (volt acc cp -. volt acc cn) in
                add_vec acc.ai p i;
                add_vec acc.ai nn (-.i);
                add_mat acc acc.ag p cp gm;
                add_mat acc acc.ag p cn (-.gm);
                add_mat acc acc.ag nn cp (-.gm);
                add_mat acc acc.ag nn cn gm)
        | N.Vcvs { p; n = nn; cp; cn; gain } ->
            let p = idx p and nn = idx nn and cp = idx cp and cn = idx cn in
            let br = Hashtbl.find branch_of c.name in
            Some
              (fun acc ->
                let il = acc.v.(br) in
                add_vec acc.ai p il;
                add_vec acc.ai nn (-.il);
                add_mat acc acc.ag p br 1.0;
                add_mat acc acc.ag nn br (-1.0);
                add_vec acc.ai br
                  (volt acc p -. volt acc nn
                  -. (gain *. (volt acc cp -. volt acc cn)));
                add_mat acc acc.ag br p 1.0;
                add_mat acc acc.ag br nn (-1.0);
                add_mat acc acc.ag br cp (-.gain);
                add_mat acc acc.ag br cn gain)
        | N.Cccs { p; n = nn; vname; gain } ->
            let p = idx p and nn = idx nn in
            let ctrl = Hashtbl.find branch_of vname in
            Some
              (fun acc ->
                let i = gain *. acc.v.(ctrl) in
                add_vec acc.ai p i;
                add_vec acc.ai nn (-.i);
                add_mat acc acc.ag p ctrl gain;
                add_mat acc acc.ag nn ctrl (-.gain))
        | N.Diode { p; n = nn; params } ->
            let p = idx p and nn = idx nn in
            Some
              (fun acc ->
                let vd = volt acc p -. volt acc nn in
                let i, g = Device.diode_iv params vd in
                add_vec acc.ai p i;
                add_vec acc.ai nn (-.i);
                add_mat acc acc.ag p p g;
                add_mat acc acc.ag p nn (-.g);
                add_mat acc acc.ag nn p (-.g);
                add_mat acc acc.ag nn nn g;
                if params.cj > 0.0 then begin
                  let q = params.cj *. vd in
                  add_vec acc.aq p q;
                  add_vec acc.aq nn (-.q);
                  add_mat acc acc.ac p p params.cj;
                  add_mat acc acc.ac p nn (-.params.cj);
                  add_mat acc acc.ac nn p (-.params.cj);
                  add_mat acc acc.ac nn nn params.cj
                end)
        | N.Junction_cap { p; n = nn; params } ->
            let p = idx p and nn = idx nn in
            Some
              (fun acc ->
                let vd = volt acc p -. volt acc nn in
                let q, cap = Device.junction_q params vd in
                add_vec acc.aq p q;
                add_vec acc.aq nn (-.q);
                add_mat acc acc.ac p p cap;
                add_mat acc acc.ac p nn (-.cap);
                add_mat acc acc.ac nn p (-.cap);
                add_mat acc acc.ac nn nn cap)
        | N.Mosfet { d; g; s; pol; params } ->
            let d = idx d and g = idx g and s = idx s in
            Some
              (fun acc ->
                let vd = volt acc d and vg = volt acc g and vs = volt acc s in
                let id, dd, dg, ds = Device.mosfet_ids pol params ~vd ~vg ~vs in
                add_vec acc.ai d id;
                add_vec acc.ai s (-.id);
                add_mat acc acc.ag d d dd;
                add_mat acc acc.ag d g dg;
                add_mat acc acc.ag d s ds;
                add_mat acc acc.ag s d (-.dd);
                add_mat acc acc.ag s g (-.dg);
                add_mat acc acc.ag s s (-.ds);
                stamp_cap acc g s params.cgs;
                stamp_cap acc g d params.cgd;
                stamp_cap acc d (-1) params.cdb)
        | N.Bjt { c; b = bb; e; pol; params } ->
            let c = idx c and bb = idx bb and e = idx e in
            Some
              (fun acc ->
                let vc = volt acc c and vb = volt acc bb and ve = volt acc e in
                let ev = Device.bjt_currents pol params ~vc ~vb ~ve in
                add_vec acc.ai c ev.Device.ic;
                add_vec acc.ai bb ev.Device.ib;
                add_vec acc.ai e (-.(ev.Device.ic +. ev.Device.ib));
                add_mat acc acc.ag c c ev.Device.dic_dvc;
                add_mat acc acc.ag c bb ev.Device.dic_dvb;
                add_mat acc acc.ag c e ev.Device.dic_dve;
                add_mat acc acc.ag bb c ev.Device.dib_dvc;
                add_mat acc acc.ag bb bb ev.Device.dib_dvb;
                add_mat acc acc.ag bb e ev.Device.dib_dve;
                add_mat acc acc.ag e c (-.(ev.Device.dic_dvc +. ev.Device.dib_dvc));
                add_mat acc acc.ag e bb (-.(ev.Device.dic_dvb +. ev.Device.dib_dvb));
                add_mat acc acc.ag e e (-.(ev.Device.dic_dve +. ev.Device.dib_dve));
                stamp_cap acc bb e params.cje;
                stamp_cap acc bb c params.cjc))
      nl.N.components
  in
  List.iter (fun stamp -> stamp acc) stamps;
  List.iter
    (fun (row, coeff, src) -> acc.ai.(row) <- acc.ai.(row) -. (coeff *. src time))
    (List.rev !injections);
  { i_vec = acc.ai; q_vec = acc.aq; g = acc.ag; c = acc.ac }

let thermal_voltage = 0.025852

let diode_gmin = 1e-12
let exp_limit = 40.0

(* Every evaluation reads its terminal voltages from a scratch record
   and writes its results there. A record of floats only stores them
   unboxed, so an evaluation allocates nothing: this compiler has no
   flambda, and a float passed to or returned from a call it does not
   inline is boxed. The helpers that take floats are inlined. *)
type scratch = {
  mutable x1 : float;
  mutable x2 : float;
  mutable x3 : float;
  mutable f : float;
  mutable df1 : float;
  mutable df2 : float;
  mutable df3 : float;
  mutable h : float;
  mutable dh1 : float;
  mutable dh2 : float;
  mutable dh3 : float;
}

let scratch () =
  {
    x1 = 0.0;
    x2 = 0.0;
    x3 = 0.0;
    f = 0.0;
    df1 = 0.0;
    df2 = 0.0;
    df3 = 0.0;
    h = 0.0;
    dh1 = 0.0;
    dh2 = 0.0;
    dh3 = 0.0;
  }

let diode (p : Circuit.Netlist.diode_params) e =
  let vd = e.x1 in
  let vt = thermal_voltage *. p.ideality in
  let x = vd /. vt in
  if x <= exp_limit then begin
    let ex = exp x in
    e.f <- (p.i_sat *. (ex -. 1.0)) +. (diode_gmin *. vd);
    e.df1 <- (p.i_sat *. ex /. vt) +. diode_gmin
  end
  else begin
    (* linear continuation of the exponential beyond the limit *)
    let e_lim = exp exp_limit in
    let ex = e_lim *. (1.0 +. (x -. exp_limit)) in
    e.f <- (p.i_sat *. (ex -. 1.0)) +. (diode_gmin *. vd);
    e.df1 <- (p.i_sat *. e_lim /. vt) +. diode_gmin
  end

let diode_iv p vd =
  let e = scratch () in
  e.x1 <- vd;
  diode p e;
  (e.f, e.df1)

let mos_leak = 1e-9

(* Forward level-1 drain current for vds >= 0: writes
   (F, dF/dvgs, dF/dvds) into (e.f, e.df2, e.df1). *)
let[@inline] level1_forward (p : Circuit.Netlist.mos_params) e vgs vds =
  let beta = p.kp *. p.w /. p.l in
  let vov = vgs -. p.vth in
  if vov <= 0.0 then begin
    e.f <- 0.0;
    e.df2 <- 0.0;
    e.df1 <- 0.0
  end
  else begin
    let clm = 1.0 +. (p.lambda *. vds) in
    if vds >= vov then begin
      (* saturation *)
      let id0 = 0.5 *. beta *. vov *. vov in
      e.f <- id0 *. clm;
      e.df2 <- beta *. vov *. clm;
      e.df1 <- id0 *. p.lambda
    end
    else begin
      (* triode *)
      let id0 = beta *. ((vov *. vds) -. (0.5 *. vds *. vds)) in
      let did0_dvds = beta *. (vov -. vds) in
      e.f <- id0 *. clm;
      e.df2 <- beta *. vds *. clm;
      e.df1 <- (did0_dvds *. clm) +. (id0 *. p.lambda)
    end
  end

(* NMOS-like current into drain for arbitrary bias (symmetric swap):
   (id, did/dvd, did/dvg, did/dvs) into (e.f, e.df1, e.df2, e.df3) *)
let[@inline] nmos p e vd vg vs =
  if vd >= vs then begin
    level1_forward p e (vg -. vs) (vd -. vs);
    let gm = e.df2 and gds = e.df1 +. mos_leak in
    e.f <- e.f +. (mos_leak *. (vd -. vs));
    e.df1 <- gds;
    e.df2 <- gm;
    e.df3 <- -.(gm +. gds)
  end
  else begin
    (* reverse operation: drain and source exchange roles *)
    level1_forward p e (vg -. vd) (vs -. vd);
    let gm = e.df2 and gds = e.df1 +. mos_leak in
    e.f <- -.(e.f +. (mos_leak *. (vs -. vd)));
    e.df1 <- gm +. gds;
    e.df2 <- -.gm;
    e.df3 <- -.gds
  end

let mosfet pol p e =
  match pol with
  | Circuit.Netlist.Nmos -> nmos p e e.x1 e.x2 e.x3
  | Circuit.Netlist.Pmos ->
      (* mirror: Id_p(vd,vg,vs) = -Id_n(-vd,-vg,-vs); the chain rule through
         the sign flips leaves the conductances unchanged in sign. *)
      nmos p e (-.e.x1) (-.e.x2) (-.e.x3);
      e.f <- -.e.f

let mosfet_ids pol p ~vd ~vg ~vs =
  let e = scratch () in
  e.x1 <- vd;
  e.x2 <- vg;
  e.x3 <- vs;
  mosfet pol p e;
  (e.f, e.df1, e.df2, e.df3)

let junction_fc = 0.5

let junction (p : Circuit.Netlist.junction_params) e =
  let v = e.x1 in
  let vb = junction_fc *. p.phi in
  if v < vb then begin
    let w = 1.0 -. (v /. p.phi) in
    e.f <- p.cj0 *. p.phi /. (1.0 -. p.m) *. (1.0 -. (w ** (1.0 -. p.m)));
    e.df1 <- p.cj0 *. (w ** -.p.m)
  end
  else begin
    (* linearized continuation above fc·phi *)
    let w_b = 1.0 -. junction_fc in
    let q_b = p.cj0 *. p.phi /. (1.0 -. p.m) *. (1.0 -. (w_b ** (1.0 -. p.m))) in
    let c_b = p.cj0 *. (w_b ** -.p.m) in
    let dc_dv = p.cj0 *. p.m /. p.phi *. (w_b ** -.(p.m +. 1.0)) in
    let dv = v -. vb in
    e.f <- q_b +. (c_b *. dv) +. (0.5 *. dc_dv *. dv *. dv);
    e.df1 <- c_b +. (dc_dv *. dv)
  end

let junction_q p v =
  let e = scratch () in
  e.x1 <- v;
  junction p e;
  (e.f, e.df1)

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

(* the limited exponential shared with the diode model; its slope is
   itself below the limit and the limit's value above it *)
let[@inline] lim_exp x =
  if x <= exp_limit then exp x
  else exp exp_limit *. (1.0 +. (x -. exp_limit))

let[@inline] lim_exp_slope x e = if x <= exp_limit then e else exp exp_limit

let[@inline] npn (p : Circuit.Netlist.bjt_params) e vc vb ve =
  let vt = thermal_voltage in
  let xf = (vb -. ve) /. vt and xr = (vb -. vc) /. vt in
  let ef = lim_exp xf and er = lim_exp xr in
  let def = lim_exp_slope xf ef and der = lim_exp_slope xr er in
  let i_f = p.is_bjt *. (ef -. 1.0) in
  let i_r = p.is_bjt *. (er -. 1.0) in
  let gf = p.is_bjt *. def /. vt in
  let gr = p.is_bjt *. der /. vt in
  let krr = 1.0 +. (1.0 /. p.br) in
  (* small ohmic leakage keeps isolated nodes solvable *)
  e.f <- i_f -. (krr *. i_r) +. (diode_gmin *. (vc -. ve));
  e.h <- (i_f /. p.bf) +. (i_r /. p.br) +. (diode_gmin *. (vb -. ve));
  e.df1 <- (krr *. gr) +. diode_gmin;
  e.df2 <- gf -. (krr *. gr);
  e.df3 <- -.gf -. diode_gmin;
  e.dh1 <- -.gr /. p.br;
  e.dh2 <- (gf /. p.bf) +. (gr /. p.br) +. diode_gmin;
  e.dh3 <- (-.gf /. p.bf) -. diode_gmin

let bjt pol p e =
  match pol with
  | Circuit.Netlist.Npn -> npn p e e.x1 e.x2 e.x3
  | Circuit.Netlist.Pnp ->
      (* mirror: currents negate, conductances keep their sign *)
      npn p e (-.e.x1) (-.e.x2) (-.e.x3);
      e.f <- -.e.f;
      e.h <- -.e.h

let bjt_currents pol p ~vc ~vb ~ve =
  let e = scratch () in
  e.x1 <- vc;
  e.x2 <- vb;
  e.x3 <- ve;
  bjt pol p e;
  {
    ic = e.f;
    ib = e.h;
    dic_dvc = e.df1;
    dic_dvb = e.df2;
    dic_dve = e.df3;
    dib_dvc = e.dh1;
    dib_dvb = e.dh2;
    dib_dve = e.dh3;
  }

(* Tests for the MNA simulation engine: device equations (values and
   finite-difference derivative checks), DC, transient vs closed-form
   solutions, AC vs analytic transfer functions, and snapshot capture. *)

let check_float = Alcotest.(check (float 1e-9))
let check_close tol = Alcotest.(check (float tol))

let nmos = Circuit.Netlist.default_nmos

(* ---------------- Device equations ---------------- *)

let test_diode_forward () =
  let p = { Circuit.Netlist.i_sat = 1e-14; ideality = 1.0; cj = 0.0 } in
  let i, g = Engine.Device.diode_iv p 0.6 in
  let expected = 1e-14 *. (exp (0.6 /. 0.025852) -. 1.0) in
  check_close (1e-6 *. expected) "forward current" expected (i -. (1e-12 *. 0.6));
  Alcotest.(check bool) "conductance positive" true (g > 0.0)

let test_diode_reverse () =
  let p = { Circuit.Netlist.i_sat = 1e-14; ideality = 1.0; cj = 0.0 } in
  let i, _ = Engine.Device.diode_iv p (-1.0) in
  Alcotest.(check bool) "reverse leakage tiny" true (Float.abs i < 1e-11)

let test_diode_limiting_continuity () =
  let p = { Circuit.Netlist.i_sat = 1e-14; ideality = 1.0; cj = 0.0 } in
  let vt = Engine.Device.thermal_voltage in
  let v_lim = 40.0 *. vt in
  let i1, g1 = Engine.Device.diode_iv p (v_lim -. 1e-9) in
  let i2, g2 = Engine.Device.diode_iv p (v_lim +. 1e-9) in
  Alcotest.(check bool) "current continuous" true (Float.abs (i2 -. i1) /. i1 < 1e-6);
  Alcotest.(check bool) "conductance continuous" true
    (Float.abs (g2 -. g1) /. g1 < 1e-6)

let fd_derivative f x =
  let h = 1e-7 in
  (f (x +. h) -. f (x -. h)) /. (2.0 *. h)

let test_diode_derivative_fd () =
  let p = { Circuit.Netlist.i_sat = 1e-13; ideality = 1.4; cj = 0.0 } in
  List.iter
    (fun v ->
      let _, g = Engine.Device.diode_iv p v in
      let g_fd = fd_derivative (fun v -> fst (Engine.Device.diode_iv p v)) v in
      check_close (1e-4 *. Float.max g 1e-12) (Printf.sprintf "g at %g" v) g g_fd)
    [ -0.5; 0.0; 0.3; 0.55; 0.7 ]

let test_mosfet_regions () =
  (* cutoff *)
  let id, _, _, _ = Engine.Device.mosfet_ids Circuit.Netlist.Nmos nmos ~vd:1.0 ~vg:0.2 ~vs:0.0 in
  Alcotest.(check bool) "cutoff leakage only" true (Float.abs id < 1e-8 *. 1.0 +. 1e-8);
  (* saturation: vgs = 0.9, vov = 0.5, vds = 1.2 > vov *)
  let id_sat, _, _, _ =
    Engine.Device.mosfet_ids Circuit.Netlist.Nmos nmos ~vd:1.2 ~vg:0.9 ~vs:0.0
  in
  let beta = nmos.Circuit.Netlist.kp *. nmos.Circuit.Netlist.w /. nmos.Circuit.Netlist.l in
  let expected = 0.5 *. beta *. 0.25 *. (1.0 +. (nmos.Circuit.Netlist.lambda *. 1.2)) in
  check_close (1e-3 *. expected) "saturation current" expected id_sat;
  (* triode: small vds *)
  let id_tri, _, _, _ =
    Engine.Device.mosfet_ids Circuit.Netlist.Nmos nmos ~vd:0.05 ~vg:0.9 ~vs:0.0
  in
  Alcotest.(check bool) "triode < saturation" true (id_tri < id_sat)

let test_mosfet_symmetry () =
  (* swapping drain and source negates the current *)
  let id_fwd, _, _, _ =
    Engine.Device.mosfet_ids Circuit.Netlist.Nmos nmos ~vd:0.3 ~vg:1.0 ~vs:0.0
  in
  let id_rev, _, _, _ =
    Engine.Device.mosfet_ids Circuit.Netlist.Nmos nmos ~vd:0.0 ~vg:1.0 ~vs:0.3
  in
  check_close (1e-9 +. (1e-9 *. Float.abs id_fwd)) "antisymmetric" (-.id_fwd) id_rev

let test_mosfet_pmos_mirror () =
  let pmos = Circuit.Netlist.default_pmos in
  let id_p, _, _, _ =
    Engine.Device.mosfet_ids Circuit.Netlist.Pmos pmos ~vd:(-1.0) ~vg:(-1.0) ~vs:0.0
  in
  (* PMOS with source high conducts negative drain current *)
  Alcotest.(check bool) "pmos conducts negative" true (id_p < 0.0)

let test_mosfet_derivatives_fd () =
  let cases =
    [ (1.2, 0.9, 0.0); (0.05, 0.9, 0.0); (0.5, 1.2, 0.2); (0.0, 1.0, 0.4) ]
  in
  List.iter
    (fun (vd, vg, vs) ->
      let _, dd, dg, ds =
        Engine.Device.mosfet_ids Circuit.Netlist.Nmos nmos ~vd ~vg ~vs
      in
      let id_of ~vd ~vg ~vs =
        let i, _, _, _ = Engine.Device.mosfet_ids Circuit.Netlist.Nmos nmos ~vd ~vg ~vs in
        i
      in
      let tol g = 1e-4 *. Float.max (Float.abs g) 1e-6 in
      check_close (tol dd) "dId/dVd" dd (fd_derivative (fun v -> id_of ~vd:v ~vg ~vs) vd);
      check_close (tol dg) "dId/dVg" dg (fd_derivative (fun v -> id_of ~vd ~vg:v ~vs) vg);
      check_close (tol ds) "dId/dVs" ds (fd_derivative (fun v -> id_of ~vd ~vg ~vs:v) vs))
    cases

let test_junction_continuity_and_fd () =
  let p = Circuit.Netlist.default_junction in
  let vb = 0.5 *. p.Circuit.Netlist.phi in
  let q1, c1 = Engine.Device.junction_q p (vb -. 1e-9) in
  let q2, c2 = Engine.Device.junction_q p (vb +. 1e-9) in
  Alcotest.(check bool) "q continuous" true (Float.abs (q2 -. q1) < 1e-12 *. 1e-3);
  Alcotest.(check bool) "c continuous" true (Float.abs (c2 -. c1) /. c1 < 1e-6);
  List.iter
    (fun v ->
      let _, c = Engine.Device.junction_q p v in
      let c_fd = fd_derivative (fun v -> fst (Engine.Device.junction_q p v)) v in
      check_close (1e-3 *. c) (Printf.sprintf "C at %g" v) c c_fd)
    [ -2.0; -0.5; 0.0; 0.3; 0.6 ]

let test_bjt_regions () =
  let p = Circuit.Netlist.default_npn in
  (* forward active: vbe = 0.7, vbc < 0 *)
  let e = Engine.Device.bjt_currents Circuit.Netlist.Npn p ~vc:3.0 ~vb:0.7 ~ve:0.0 in
  Alcotest.(check bool) "ic positive" true (e.Engine.Device.ic > 1e-6);
  check_close (0.02 *. e.Engine.Device.ic /. 100.0) "beta relation"
    (e.Engine.Device.ic /. 100.0) e.Engine.Device.ib;
  (* off: everything tiny *)
  let off = Engine.Device.bjt_currents Circuit.Netlist.Npn p ~vc:3.0 ~vb:0.0 ~ve:0.0 in
  Alcotest.(check bool) "off" true (Float.abs off.Engine.Device.ic < 1e-9)

let test_bjt_pnp_mirror () =
  let p = Circuit.Netlist.default_pnp in
  let e = Engine.Device.bjt_currents Circuit.Netlist.Pnp p ~vc:(-3.0) ~vb:(-0.7) ~ve:0.0 in
  Alcotest.(check bool) "pnp collector current negative" true
    (e.Engine.Device.ic < -1e-6)

let test_bjt_derivatives_fd () =
  let p = Circuit.Netlist.default_npn in
  List.iter
    (fun (vc, vb, ve) ->
      let e = Engine.Device.bjt_currents Circuit.Netlist.Npn p ~vc ~vb ~ve in
      let ic ~vc ~vb ~ve = (Engine.Device.bjt_currents Circuit.Netlist.Npn p ~vc ~vb ~ve).Engine.Device.ic in
      let ib ~vc ~vb ~ve = (Engine.Device.bjt_currents Circuit.Netlist.Npn p ~vc ~vb ~ve).Engine.Device.ib in
      let tol g = 1e-3 *. Float.max (Float.abs g) 1e-9 in
      check_close (tol e.Engine.Device.dic_dvc) "dIc/dVc" e.Engine.Device.dic_dvc
        (fd_derivative (fun v -> ic ~vc:v ~vb ~ve) vc);
      check_close (tol e.Engine.Device.dic_dvb) "dIc/dVb" e.Engine.Device.dic_dvb
        (fd_derivative (fun v -> ic ~vc ~vb:v ~ve) vb);
      check_close (tol e.Engine.Device.dic_dve) "dIc/dVe" e.Engine.Device.dic_dve
        (fd_derivative (fun v -> ic ~vc ~vb ~ve:v) ve);
      check_close (tol e.Engine.Device.dib_dvc) "dIb/dVc" e.Engine.Device.dib_dvc
        (fd_derivative (fun v -> ib ~vc:v ~vb ~ve) vc);
      check_close (tol e.Engine.Device.dib_dvb) "dIb/dVb" e.Engine.Device.dib_dvb
        (fd_derivative (fun v -> ib ~vc ~vb:v ~ve) vb);
      check_close (tol e.Engine.Device.dib_dve) "dIb/dVe" e.Engine.Device.dib_dve
        (fd_derivative (fun v -> ib ~vc ~vb ~ve:v) ve))
    [ (3.0, 0.7, 0.0); (0.1, 0.7, 0.0); (1.0, 0.2, 0.5) ]

let test_bjt_ce_amp_dc_and_gain () =
  let nl = Circuits.Library.bjt_amp ~input_wave:(Circuit.Netlist.Dc 0.75) () in
  let mna =
    Engine.Mna.build ~inputs:[ Circuits.Library.bjt_input ]
      ~outputs:[ Circuits.Library.bjt_output ] nl
  in
  let v = Engine.Dc.solve mna in
  let vc = v.(Engine.Mna.node_index mna "c") in
  let ve = v.(Engine.Mna.node_index mna "e") in
  (* emitter follows base minus one vbe; collector sits below vcc *)
  Alcotest.(check bool) "vbe plausible" true (0.75 -. ve > 0.6 && 0.75 -. ve < 0.75);
  Alcotest.(check bool) "collector biased" true (vc > 3.0 && vc < 5.0);
  (* small-signal gain ≈ −Rc / (Re + 1/gm) with gm = Ic/Vt *)
  let ic = (5.0 -. vc) /. 2000.0 in
  let expected = -2000.0 /. (200.0 +. (Engine.Device.thermal_voltage /. ic)) in
  let h = (Engine.Ac.sweep_siso mna ~at:v ~freqs_hz:[| 1e3 |]).(0) in
  check_close (0.05 *. Float.abs expected) "ce gain" expected h.Complex.re

(* ---------------- MNA assembly ---------------- *)

let divider () =
  Circuit.Parser.parse_string {|
V1 a 0 DC 10
R1 a b 6k
R2 b 0 4k
|}

let test_mna_size () =
  let mna = Engine.Mna.build (divider ()) in
  (* two nodes + one vsource branch *)
  Alcotest.(check int) "unknowns" 3 (Engine.Mna.size mna);
  Alcotest.(check int) "nodes" 2 (Engine.Mna.n_nodes mna)

let test_mna_unknown_input () =
  Alcotest.(check bool) "unknown input rejected" true
    (match Engine.Mna.build ~inputs:[ "Vx" ] (divider ()) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_mna_jacobian_fd () =
  (* G matches finite differences of i(v) on a nonlinear circuit *)
  let nl = Circuit.Parser.parse_string {|
V1 a 0 DC 0.8
R1 a b 1k
D1 b 0 IS=1e-12 N=1.6
M1 b a 0 NMOS
|} in
  let mna = Engine.Mna.build nl in
  let n = Engine.Mna.size mna in
  let v = Array.init n (fun k -> 0.1 +. (0.2 *. float_of_int k)) in
  let ev = Engine.Mna.eval mna ~time:0.0 v in
  let g = match ev.Engine.Mna.g_mat with Some g -> g | None -> assert false in
  let h = 1e-7 in
  for j = 0 to n - 1 do
    let vp = Array.copy v and vm = Array.copy v in
    vp.(j) <- vp.(j) +. h;
    vm.(j) <- vm.(j) -. h;
    let fp = (Engine.Mna.eval mna ~with_matrices:false ~time:0.0 vp).Engine.Mna.i_vec in
    let fm = (Engine.Mna.eval mna ~with_matrices:false ~time:0.0 vm).Engine.Mna.i_vec in
    for i = 0 to n - 1 do
      let fd = (fp.(i) -. fm.(i)) /. (2.0 *. h) in
      let expected = Linalg.Mat.get g i j in
      check_close
        (1e-3 *. Float.max (Float.abs expected) 1e-6)
        (Printf.sprintf "G[%d][%d]" i j) expected fd
    done
  done

let test_mna_charge_jacobian_fd () =
  let nl = Circuit.Parser.parse_string {|
V1 a 0 DC 1
R1 a b 1k
C1 b 0 2p
J1 0 b CJ0=1p PHI=0.7 M=0.5
|} in
  let mna = Engine.Mna.build nl in
  let n = Engine.Mna.size mna in
  let v = Array.init n (fun k -> 0.3 +. (0.1 *. float_of_int k)) in
  let ev = Engine.Mna.eval mna ~time:0.0 v in
  let c = match ev.Engine.Mna.c_mat with Some c -> c | None -> assert false in
  let h = 1e-7 in
  for j = 0 to n - 1 do
    let vp = Array.copy v and vm = Array.copy v in
    vp.(j) <- vp.(j) +. h;
    vm.(j) <- vm.(j) -. h;
    let qp = (Engine.Mna.eval mna ~with_matrices:false ~time:0.0 vp).Engine.Mna.q_vec in
    let qm = (Engine.Mna.eval mna ~with_matrices:false ~time:0.0 vm).Engine.Mna.q_vec in
    for i = 0 to n - 1 do
      let fd = (qp.(i) -. qm.(i)) /. (2.0 *. h) in
      let expected = Linalg.Mat.get c i j in
      check_close
        (1e-3 *. Float.max (Float.abs expected) 1e-16)
        (Printf.sprintf "C[%d][%d]" i j) expected fd
    done
  done

(* ---------------- DC ---------------- *)

let test_dc_divider () =
  let mna = Engine.Mna.build (divider ()) in
  let v = Engine.Dc.solve mna in
  check_close 1e-6 "divider voltage" 4.0 v.(Engine.Mna.node_index mna "b")

let test_dc_diode_kcl () =
  let nl = Circuit.Parser.parse_string {|
V1 a 0 DC 0.8
R1 a b 1k
D1 b 0 IS=1e-14 N=1
|} in
  let mna = Engine.Mna.build nl in
  let v = Engine.Dc.solve mna in
  let vb = v.(Engine.Mna.node_index mna "b") in
  let i_r = (0.8 -. vb) /. 1000.0 in
  let i_d = 1e-14 *. (exp (vb /. 0.025852) -. 1.0) in
  check_close (1e-6 *. i_r) "KCL at diode node" i_r i_d

let test_dc_vccs () =
  (* VCCS driving a resistor: v_out = -gm * R * v_c *)
  let nl = Circuit.Parser.parse_string {|
V1 c 0 DC 1
G1 out 0 c 0 1m
R1 out 0 2k
|} in
  let mna = Engine.Mna.build nl in
  let v = Engine.Dc.solve mna in
  check_close 1e-6 "vccs output" (-2.0) v.(Engine.Mna.node_index mna "out")

let test_dc_vcvs () =
  (* ideal amplifier with a resistive divider feedback: out = 4*vc *)
  let nl = Circuit.Parser.parse_string {|
V1 c 0 DC 0.5
E1 out 0 c 0 4
R1 out 0 1k
|} in
  let mna = Engine.Mna.build nl in
  let v = Engine.Dc.solve mna in
  check_close 1e-9 "vcvs output" 2.0 v.(Engine.Mna.node_index mna "out")

let test_dc_cccs () =
  (* current mirror via CCCS: I(R2) = 3 * I(V1 branch) *)
  let nl = Circuit.Parser.parse_string {|
V1 a 0 DC 1
R1 a 0 1k
F1 0 out V1 3
R2 out 0 500
|} in
  let mna = Engine.Mna.build nl in
  let v = Engine.Dc.solve mna in
  (* I through V1 = −1mA (current drawn by R1 enters the source's + pin);
     the CCCS pushes gain·i from node 0 into out *)
  let vout = v.(Engine.Mna.node_index mna "out") in
  check_close 1e-9 "cccs output" 1.5 (Float.abs vout)

let test_dc_cccs_unknown_source () =
  let nl = Circuit.Parser.parse_string {|
V1 a 0 DC 1
R1 a 0 1k
F1 0 out Vmissing 3
R2 out 0 500
|} in
  Alcotest.(check bool) "unknown control rejected" true
    (match Engine.Mna.build nl with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_dc_inductor_short () =
  let nl = Circuit.Parser.parse_string {|
V1 a 0 DC 5
R1 a b 1k
L1 b c 1u
R2 c 0 1k
|} in
  let mna = Engine.Mna.build nl in
  let v = Engine.Dc.solve mna in
  check_close 1e-6 "inductor is a DC short" 2.5 v.(Engine.Mna.node_index mna "c")

let test_dc_buffer_converges () =
  let mna = Circuits.Buffer.mna () in
  let v = Engine.Dc.solve mna in
  Alcotest.(check bool) "finite solution" true (Array.for_all Float.is_finite v);
  (* differential output is zero at the balanced operating point *)
  let y = (Engine.Mna.output_values mna v).(0) in
  Alcotest.(check bool) "balanced output" true (Float.abs y < 1e-6)

(* ---------------- Transient ---------------- *)

let test_tran_rc_step () =
  let nl = Circuit.Parser.parse_string {|
Vin in 0 PULSE(0 1 0 1p 1p 1 2)
R1 in out 1k
C1 out 0 1n
|} in
  let mna = Engine.Mna.build ~outputs:[ Engine.Mna.Node "out" ] nl in
  let res = Engine.Tran.run mna ~t_stop:5e-6 ~dt:5e-9 in
  let w = Engine.Tran.output_waveform res 0 in
  List.iter
    (fun t ->
      let v_ref = 1.0 -. exp (-.t /. 1e-6) in
      check_close 2e-3 (Printf.sprintf "rc step at %g" t)
        v_ref (Signal.Waveform.value_at w t))
    [ 0.5e-6; 1e-6; 2e-6; 4e-6 ]

let test_tran_rlc_resonance () =
  (* series RLC: underdamped oscillation frequency ~ 1/(2 pi sqrt(LC)) *)
  let nl = Circuit.Parser.parse_string {|
Vin in 0 PULSE(0 1 0 1p 1p 1 2)
R1 in a 10
L1 a b 1u
C1 b 0 1n
|} in
  let mna = Engine.Mna.build ~outputs:[ Engine.Mna.Node "b" ] nl in
  let res = Engine.Tran.run mna ~t_stop:1e-6 ~dt:2e-10 in
  let w = Engine.Tran.output_waveform res 0 in
  (* peak of the first overshoot should exceed 1 (underdamped) *)
  let peak = Array.fold_left Float.max neg_infinity (Signal.Waveform.values w) in
  Alcotest.(check bool) "underdamped overshoot" true (peak > 1.2);
  (* final value settles to 1 *)
  check_close 0.02 "settles" 1.0 (Signal.Waveform.value_at w 0.99e-6)

let test_tran_be_vs_tr () =
  let nl = Circuit.Parser.parse_string {|
Vin in 0 SIN(0 1 1e6)
R1 in out 1k
C1 out 0 1n
|} in
  let mna = Engine.Mna.build ~outputs:[ Engine.Mna.Node "out" ] nl in
  let run integration =
    let opts = { Engine.Tran.default_opts with Engine.Tran.integration } in
    Engine.Tran.output_waveform (Engine.Tran.run ~opts mna ~t_stop:2e-6 ~dt:2e-9) 0
  in
  let w_tr = run Engine.Tran.Trapezoidal in
  let w_be = run Engine.Tran.Backward_euler in
  (* both close, TR more accurate; just check they agree to ~1% *)
  Alcotest.(check bool) "methods agree" true (Signal.Waveform.rmse w_tr w_be < 0.01)

let test_tran_snapshots () =
  let nl = Circuit.Parser.parse_string {|
Vin in 0 SIN(0.3 0.3 1e6)
R1 in out 1k
D1 out 0 IS=1e-12 N=1.5
C1 out 0 10p
|} in
  let mna =
    Engine.Mna.build ~inputs:[ "Vin" ] ~outputs:[ Engine.Mna.Node "out" ] nl
  in
  let opts = { Engine.Tran.default_opts with Engine.Tran.snapshot_every = 10 } in
  let res = Engine.Tran.run ~opts mna ~t_stop:1e-6 ~dt:1e-8 in
  Alcotest.(check int) "snapshot count" 11 (Array.length res.Engine.Tran.snapshots);
  (* Jacobians stamped at the snapshot states must vary along the
     trajectory (nonlinear) *)
  let g_at k =
    let s = res.Engine.Tran.snapshots.(k) in
    Option.get
      (Engine.Mna.eval mna ~time:s.Engine.Tran.time s.Engine.Tran.state)
        .Engine.Mna.g_mat
  in
  let g0 = g_at 2 and g1 = g_at 5 in
  Alcotest.(check bool) "snapshots differ" true
    (Linalg.Mat.max_abs (Linalg.Mat.sub g0 g1) > 1e-9);
  (* inputs recorded match the wave *)
  let s = res.Engine.Tran.snapshots.(3) in
  check_close 1e-9 "recorded input"
    (0.3 +. (0.3 *. sin (2.0 *. Float.pi *. 1e6 *. s.Engine.Tran.time)))
    s.Engine.Tran.inputs.(0)

let test_tran_invalid_args () =
  let mna = Engine.Mna.build (divider ()) in
  Alcotest.(check bool) "bad dt" true
    (match Engine.Tran.run mna ~t_stop:1.0 ~dt:0.0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_tran_adaptive_accuracy () =
  let nl = Circuit.Parser.parse_string {|
Vin in 0 PULSE(0 1 1u 1n 1n 0.2u 5u)
R1 in out 1k
C1 out 0 1n
|} in
  let mna = Engine.Mna.build ~outputs:[ Engine.Mna.Node "out" ] nl in
  let fixed = Engine.Tran.run mna ~t_stop:10e-6 ~dt:1e-9 in
  let adaptive = Engine.Tran.run_adaptive mna ~t_stop:10e-6 ~dt:1e-9 ~reltol:1e-4 in
  Alcotest.(check bool) "fewer steps on a sparse waveform" true
    (Array.length adaptive.Engine.Tran.times
    < Array.length fixed.Engine.Tran.times / 2);
  let grid = Signal.Grid.linspace 1e-8 9.9e-6 500 in
  let wf =
    Signal.Waveform.resample (Engine.Tran.output_waveform fixed 0) grid
  in
  let wa =
    Signal.Waveform.resample (Engine.Tran.output_waveform adaptive 0) grid
  in
  Alcotest.(check bool) "matches the fixed-step reference" true
    (Signal.Waveform.rmse wf wa < 1e-4)

let test_tran_adaptive_monotone_times () =
  let nl = Circuit.Parser.parse_string {|
Vin in 0 SIN(0 1 1e6)
R1 in out 1k
C1 out 0 1n
|} in
  let mna = Engine.Mna.build ~outputs:[ Engine.Mna.Node "out" ] nl in
  let r = Engine.Tran.run_adaptive mna ~t_stop:2e-6 ~dt:1e-9 in
  let ok = ref true in
  Array.iteri
    (fun k t -> if k > 0 && t <= r.Engine.Tran.times.(k - 1) then ok := false)
    r.Engine.Tran.times;
  Alcotest.(check bool) "strictly increasing time axis" true !ok;
  check_close 1e-18 "ends at t_stop" 2e-6
    r.Engine.Tran.times.(Array.length r.Engine.Tran.times - 1)

(* ---------------- AC ---------------- *)

let test_ac_rc () =
  let nl = Circuit.Parser.parse_string {|
Vin in 0 DC 0
R1 in out 1k
C1 out 0 1n
|} in
  let mna =
    Engine.Mna.build ~inputs:[ "Vin" ] ~outputs:[ Engine.Mna.Node "out" ] nl
  in
  let at = Engine.Dc.solve mna in
  let freqs = [| 1e3; 159154.9431; 1e7 |] in
  let h = Engine.Ac.sweep_siso mna ~at ~freqs_hz:freqs in
  let analytic f =
    let wrc = 2.0 *. Float.pi *. f *. 1e3 *. 1e-9 in
    1.0 /. sqrt (1.0 +. (wrc *. wrc))
  in
  Array.iteri
    (fun k f ->
      check_close 1e-6 (Printf.sprintf "|H| at %g" f) (analytic f)
        (Complex.norm h.(k)))
    freqs;
  (* phase at the corner is -45 degrees *)
  check_close 1e-3 "phase at corner" (-.Float.pi /. 4.0) (Complex.arg h.(1))

let test_ac_rlc_peak () =
  let nl = Circuit.Parser.parse_string {|
Vin in 0 DC 0
R1 in a 10
L1 a b 1u
C1 b 0 1n
|} in
  let mna = Engine.Mna.build ~inputs:[ "Vin" ] ~outputs:[ Engine.Mna.Node "b" ] nl in
  let at = Engine.Dc.solve mna in
  let f0 = 1.0 /. (2.0 *. Float.pi *. sqrt (1e-6 *. 1e-9)) in
  let h = Engine.Ac.sweep_siso mna ~at ~freqs_hz:[| f0 |] in
  (* |H| at resonance = Q = sqrt(L/C)/R *)
  let q = sqrt (1e-6 /. 1e-9) /. 10.0 in
  check_close (1e-3 *. q) "resonance peak" q (Complex.norm h.(0))

let test_ac_matches_tft_pencil () =
  (* transfer_at with the DC Jacobians equals the AC sweep *)
  let mna = Circuits.Buffer.mna () in
  let at = Engine.Dc.solve mna in
  let ev = Engine.Mna.eval mna ~time:0.0 at in
  let g, c =
    match (ev.Engine.Mna.g_mat, ev.Engine.Mna.c_mat) with
    | Some g, Some c -> (g, c)
    | _, _ -> assert false
  in
  let b = Engine.Mna.b_matrix mna and d = Engine.Mna.d_matrix mna in
  let f = 1e9 in
  let h1 = (Engine.Ac.sweep_siso mna ~at ~freqs_hz:[| f |]).(0) in
  let h2 =
    Linalg.Cmat.get (Engine.Ac.transfer_at ~g ~c ~b ~d ~s:(Signal.Grid.s_of_hz f)) 0 0
  in
  Alcotest.(check bool) "pencil solve consistent" true
    (Complex.norm (Complex.sub h1 h2) < 1e-10)

(* ---------------- dense sweep: reduction, certificate, fallback ------ *)

let bits_equal (a : Complex.t) (b : Complex.t) =
  Int64.bits_of_float a.Complex.re = Int64.bits_of_float b.Complex.re
  && Int64.bits_of_float a.Complex.im = Int64.bits_of_float b.Complex.im

let sweep_fallbacks o =
  Option.value ~default:0
    (List.assoc_opt "ac.sweep_fallbacks"
       (Metrics.snapshot (Obs.metrics o)).Metrics.counters)

let test_grid = Array.map Signal.Grid.s_of_hz [| 1e3; 1e6; 1e8; 1e9; 1e10 |]

(* Vin drives two series capacitors: their middle node has no DC path,
   so G is singular and every point of the sweep is one complex LU —
   bit for bit the per-point solve, and the divider ratio *)
let test_ac_singular_g_falls_back () =
  let c1 = 1e-12 and c2 = 3e-12 in
  (* unknowns: v(in), v(out), i(Vin) *)
  let g =
    Linalg.Mat.of_arrays
      [| [| 0.0; 0.0; 1.0 |]; [| 0.0; 0.0; 0.0 |]; [| 1.0; 0.0; 0.0 |] |]
  and c =
    Linalg.Mat.of_arrays
      [| [| c1; -.c1; 0.0 |]; [| -.c1; c1 +. c2; 0.0 |]; [| 0.0; 0.0; 0.0 |] |]
  and b = Linalg.Mat.of_arrays [| [| 0.0 |]; [| 0.0 |]; [| 1.0 |] |]
  and d = Linalg.Mat.of_arrays [| [| 0.0 |]; [| 1.0 |]; [| 0.0 |] |] in
  let o = Obs.create () in
  let h =
    Engine.Ac.transfer_sweep ~obs:o (Engine.Ac.make_ws ~b ~d) ~g ~c ~ss:test_grid
  in
  Alcotest.(check int) "every point answered by the complex LU"
    (Array.length test_grid) (sweep_fallbacks o);
  Array.iteri
    (fun l s ->
      let z = Linalg.Cmat.get h.(l) 0 0 in
      let lu = Linalg.Cmat.get (Engine.Ac.transfer_at ~g ~c ~b ~d ~s) 0 0 in
      Alcotest.(check bool) "bit-identical to the per-point LU" true
        (bits_equal z lu);
      check_close 1e-12 "C1/(C1+C2)" (c1 /. (c1 +. c2)) z.Complex.re;
      check_close 1e-12 "no phase" 0.0 z.Complex.im)
    test_grid

(* the Hessenberg elimination hosts the complex-LU pivot probe: its
   firing sends exactly that point to the per-point LU *)
let test_ac_pivot_probe_falls_back () =
  let mna = Circuits.Buffer.mna () in
  let at = Engine.Dc.solve mna in
  let ev = Engine.Mna.eval mna ~with_matrices:true ~time:0.0 at in
  let g = Option.get ev.Engine.Mna.g_mat
  and c = Option.get ev.Engine.Mna.c_mat
  and b = Engine.Mna.b_matrix mna
  and d = Engine.Mna.d_matrix mna in
  let sweep ?obs () =
    Engine.Ac.transfer_sweep ?obs (Engine.Ac.make_ws ~b ~d) ~g ~c ~ss:test_grid
  in
  let clean_obs = Obs.create () in
  let clean = sweep ~obs:clean_obs () in
  Alcotest.(check int) "clean sweep: no fallback" 0 (sweep_fallbacks clean_obs);
  let o = Obs.create () in
  let faulted =
    Fun.protect ~finally:(fun () -> ignore (Fault.disarm ())) (fun () ->
        Fault.arm_exact ~site:"clu.pivot_zero" ~fire_at:2 ~burst:1 ();
        sweep ~obs:o ())
  in
  Alcotest.(check int) "one point answered by the complex LU" 1
    (sweep_fallbacks o);
  Array.iteri
    (fun l hm ->
      let a = Linalg.Cmat.get hm 0 0 and b = Linalg.Cmat.get faulted.(l) 0 0 in
      Alcotest.(check bool) "within 1e-12 of the clean sweep" true
        (Complex.norm (Complex.sub a b) <= 1e-12 *. Complex.norm a))
    clean

let test_ac_certificate () =
  Alcotest.(check bool) "1e-13 passes" true (Engine.Ac.certified 1e-13);
  Alcotest.(check bool) "1e-12 passes" true (Engine.Ac.certified 1e-12);
  Alcotest.(check bool) "1e-11 fails" false (Engine.Ac.certified 1e-11);
  Alcotest.(check bool) "infinity fails" false
    (Engine.Ac.certified Float.infinity);
  Alcotest.(check bool) "NaN fails" false (Engine.Ac.certified Float.nan)

(* ---------------- generative circuit property ---------------- *)

(* random ladder of resistors/diodes/capacitors driven by a DC source:
   whatever the topology, a converged DC solve must satisfy KCL to the
   solver tolerance *)
let prop_dc_kcl_random_ladders =
  QCheck.Test.make ~count:30 ~name:"dc solution satisfies kcl on random ladders"
    QCheck.(pair (int_range 2 6) (int_bound 100000))
    (fun (stages, seed) ->
      let st = Random.State.make [| seed; 0xc1c |] in
      let comps = ref [ Circuit.Netlist.vsource ~name:"V1" "n0" "0"
                          (Circuit.Netlist.Dc (0.5 +. Random.State.float st 2.0)) ] in
      for k = 1 to stages do
        let prev = Printf.sprintf "n%d" (k - 1) in
        let cur = Printf.sprintf "n%d" k in
        comps :=
          Circuit.Netlist.resistor ~name:(Printf.sprintf "R%d" k) prev cur
            (100.0 +. Random.State.float st 10e3)
          :: !comps;
        (* random shunt element *)
        (match Random.State.int st 3 with
        | 0 ->
            comps :=
              Circuit.Netlist.resistor ~name:(Printf.sprintf "Rs%d" k) cur "0"
                (1e3 +. Random.State.float st 50e3)
              :: !comps
        | 1 ->
            comps :=
              Circuit.Netlist.diode ~name:(Printf.sprintf "D%d" k)
                ~params:{ Circuit.Netlist.i_sat = 1e-12; ideality = 1.5; cj = 0.0 }
                cur "0" ()
              :: !comps
        | _ ->
            comps :=
              Circuit.Netlist.capacitor ~name:(Printf.sprintf "Cs%d" k) cur "0"
                1e-12
              :: !comps)
      done;
      let nl = Circuit.Netlist.make !comps in
      let mna = Engine.Mna.build nl in
      match Engine.Dc.solve mna with
      | exception Engine.Dc.No_convergence _ -> false
      | v ->
          let ev = Engine.Mna.eval mna ~with_matrices:false ~time:0.0 v in
          Linalg.Vec.norm_inf ev.Engine.Mna.i_vec < 1e-6)

let suite =
  [
    Alcotest.test_case "diode forward" `Quick test_diode_forward;
    Alcotest.test_case "diode reverse" `Quick test_diode_reverse;
    Alcotest.test_case "diode limiting continuity" `Quick test_diode_limiting_continuity;
    Alcotest.test_case "diode derivative fd" `Quick test_diode_derivative_fd;
    Alcotest.test_case "mosfet regions" `Quick test_mosfet_regions;
    Alcotest.test_case "mosfet symmetry" `Quick test_mosfet_symmetry;
    Alcotest.test_case "mosfet pmos mirror" `Quick test_mosfet_pmos_mirror;
    Alcotest.test_case "mosfet derivatives fd" `Quick test_mosfet_derivatives_fd;
    Alcotest.test_case "junction cap continuity + fd" `Quick test_junction_continuity_and_fd;
    Alcotest.test_case "bjt regions" `Quick test_bjt_regions;
    Alcotest.test_case "bjt pnp mirror" `Quick test_bjt_pnp_mirror;
    Alcotest.test_case "bjt derivatives fd" `Quick test_bjt_derivatives_fd;
    Alcotest.test_case "bjt ce amp" `Quick test_bjt_ce_amp_dc_and_gain;
    Alcotest.test_case "mna size" `Quick test_mna_size;
    Alcotest.test_case "mna unknown input" `Quick test_mna_unknown_input;
    Alcotest.test_case "mna conductance jacobian fd" `Quick test_mna_jacobian_fd;
    Alcotest.test_case "mna charge jacobian fd" `Quick test_mna_charge_jacobian_fd;
    Alcotest.test_case "dc divider" `Quick test_dc_divider;
    Alcotest.test_case "dc diode kcl" `Quick test_dc_diode_kcl;
    Alcotest.test_case "dc vccs" `Quick test_dc_vccs;
    Alcotest.test_case "dc vcvs" `Quick test_dc_vcvs;
    Alcotest.test_case "dc cccs" `Quick test_dc_cccs;
    Alcotest.test_case "dc cccs unknown source" `Quick test_dc_cccs_unknown_source;
    Alcotest.test_case "dc inductor short" `Quick test_dc_inductor_short;
    Alcotest.test_case "dc buffer converges" `Quick test_dc_buffer_converges;
    Alcotest.test_case "tran rc step" `Quick test_tran_rc_step;
    Alcotest.test_case "tran rlc resonance" `Quick test_tran_rlc_resonance;
    Alcotest.test_case "tran be vs tr" `Quick test_tran_be_vs_tr;
    Alcotest.test_case "tran snapshots" `Quick test_tran_snapshots;
    Alcotest.test_case "tran invalid args" `Quick test_tran_invalid_args;
    Alcotest.test_case "tran adaptive accuracy" `Quick test_tran_adaptive_accuracy;
    Alcotest.test_case "tran adaptive monotone" `Quick test_tran_adaptive_monotone_times;
    Alcotest.test_case "ac rc" `Quick test_ac_rc;
    Alcotest.test_case "ac rlc peak" `Quick test_ac_rlc_peak;
    Alcotest.test_case "ac pencil consistency" `Quick test_ac_matches_tft_pencil;
    Alcotest.test_case "ac singular G falls back" `Quick
      test_ac_singular_g_falls_back;
    Alcotest.test_case "ac pivot probe falls back" `Quick
      test_ac_pivot_probe_falls_back;
    Alcotest.test_case "ac certificate" `Quick test_ac_certificate;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_dc_kcl_random_ladders ]

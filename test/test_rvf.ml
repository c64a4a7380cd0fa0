(* Tests for the closed-form integration (Ratfn) and the RVF extraction
   driver on circuits with known behaviour. *)

let cx re im = { Complex.re; im }
let check_close tol = Alcotest.(check (float tol))

(* ---------------- Ratfn ---------------- *)

let sample_ratfn () =
  {
    Rvf.Ratfn.pairs =
      [|
        { Rvf.Ratfn.beta = 0.8; alpha = 0.3; c1 = 1.5; c2 = -0.4 };
        { Rvf.Ratfn.beta = 1.2; alpha = 0.1; c1 = -0.7; c2 = 0.9 };
      |];
    const = 0.25;
    offset = 1.0;
  }

let test_ratfn_derivative_is_integrand () =
  (* d/dx eval = deriv, checked by finite differences *)
  let r = sample_ratfn () in
  let h = 1e-6 in
  List.iter
    (fun x ->
      let fd = (Rvf.Ratfn.eval r (x +. h) -. Rvf.Ratfn.eval r (x -. h)) /. (2.0 *. h) in
      check_close 1e-6 (Printf.sprintf "derivative at %g" x) (Rvf.Ratfn.deriv r x) fd)
    [ 0.0; 0.5; 0.8; 1.0; 1.3; 2.0 ]

let test_ratfn_matches_quadrature () =
  (* eval(x) - eval(a) equals the numeric integral of deriv over [a, x] *)
  let r = sample_ratfn () in
  let a = 0.2 and x = 1.7 in
  let n = 20000 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    let t0 = a +. ((x -. a) *. float_of_int k /. float_of_int n) in
    let t1 = a +. ((x -. a) *. float_of_int (k + 1) /. float_of_int n) in
    acc := !acc +. (0.5 *. (Rvf.Ratfn.deriv r t0 +. Rvf.Ratfn.deriv r t1) *. (t1 -. t0))
  done;
  check_close 1e-6 "fundamental theorem of calculus" !acc
    (Rvf.Ratfn.eval r x -. Rvf.Ratfn.eval r a)

let test_ratfn_set_value () =
  let r = Rvf.Ratfn.set_value (sample_ratfn ()) ~at:0.9 ~value:42.0 in
  check_close 1e-12 "anchored" 42.0 (Rvf.Ratfn.eval r 0.9)

let test_ratfn_of_model () =
  let poles = [| cx 0.8 0.3; cx 0.8 (-0.3) |] in
  let model =
    { Vf.Model.poles; coeffs = [| [| 1.5; -0.4 |] |]; consts = [| 0.25 |]; slopes = [| 0.0 |] }
  in
  let r = Rvf.Ratfn.of_model model ~elem:0 in
  (* deriv equals the model evaluated on the real axis *)
  List.iter
    (fun x ->
      check_close 1e-10
        (Printf.sprintf "deriv matches model at %g" x)
        (Vf.Model.eval_real model ~elem:0 x)
        (Rvf.Ratfn.deriv r x))
    [ 0.1; 0.8; 1.1; 1.9 ]

let test_ratfn_rejects_real_poles () =
  let model =
    {
      Vf.Model.poles = [| cx 0.5 0.0 |];
      coeffs = [| [| 2.0 |] |];
      consts = [| 0.0 |];
      slopes = [| 0.0 |];
    }
  in
  Alcotest.(check bool) "real pole rejected" true
    (match Rvf.Ratfn.of_model model ~elem:0 with
    | exception Rvf.Ratfn.Not_integrable _ -> true
    | _ -> false)

(* a NaN slope is corruption, not a slope term: it fails typed at the
   closed form's own site *)
let test_ratfn_nan_slope_is_violation () =
  let model =
    {
      Vf.Model.poles = [| cx 0.8 0.3; cx 0.8 (-0.3) |];
      coeffs = [| [| 1.5; -0.4 |] |];
      consts = [| 0.25 |];
      slopes = [| Float.nan |];
    }
  in
  Alcotest.(check bool) "guard violation at rvf.ratfn" true
    (match Rvf.Ratfn.of_model model ~elem:0 with
    | exception Guard.Violation { Guard.site = "rvf.ratfn"; _ } -> true
    | exception _ -> false
    | _ -> false)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan k = k + nn <= nh && (String.sub hay k nn = needle || scan (k + 1)) in
  nn = 0 || scan 0

let test_ratfn_formula_mentions_terms () =
  let s = Rvf.Ratfn.formula (sample_ratfn ()) in
  Alcotest.(check bool) "has ln" true (contains_substring s "ln(");
  Alcotest.(check bool) "has atan" true (contains_substring s "atan(")

let test_ratfn_to_static_fn () =
  let r = sample_ratfn () in
  let f = Rvf.Ratfn.to_static_fn r in
  Alcotest.(check bool) "analytic" true f.Hammerstein.Static_fn.analytic;
  check_close 1e-12 "eval consistent" (Rvf.Ratfn.eval r 1.1)
    (f.Hammerstein.Static_fn.eval 1.1);
  check_close 1e-12 "deriv consistent" (Rvf.Ratfn.deriv r 1.1)
    (f.Hammerstein.Static_fn.deriv 1.1)

(* ---------------- RVF extraction on known circuits ---------------- *)

(* A linear RC circuit: the extracted model must match the AC response at
   every state (the residues are state-independent). *)
let test_rvf_linear_circuit () =
  let nl = Circuit.Parser.parse_string {|
Vin in 0 SIN(0.5 0.4 1e6)
R1 in out 1k
C1 out 0 1n
|} in
  let mna = Engine.Mna.build ~inputs:[ "Vin" ] ~outputs:[ Engine.Mna.Node "out" ] nl in
  let opts = { Engine.Tran.default_opts with Engine.Tran.snapshot_every = 10 } in
  let run = Engine.Tran.run ~opts mna ~t_stop:1e-6 ~dt:1e-8 in
  let ds =
    Tft.Dataset.of_snapshots ~mna ~estimator:(Tft.Estimator.make ())
      ~freqs_hz:(Signal.Grid.logspace 1e3 1e8 30)
      run.Engine.Tran.snapshots
  in
  let r = Rvf.extract ~dataset:ds ~input:0 ~output:0 () in
  (* model transfer matches 1/(1+sRC) at several states and frequencies *)
  List.iter
    (fun x ->
      List.iter
        (fun f ->
          let t = Hammerstein.Hmodel.transfer r.Rvf.model ~x ~s:(Signal.Grid.s_of_hz f) in
          let wrc = 2.0 *. Float.pi *. f *. 1e-6 in
          let expected = Complex.div Complex.one (cx 1.0 wrc) in
          Alcotest.(check bool)
            (Printf.sprintf "T(%g, %g)" x f)
            true
            (Complex.norm (Complex.sub t expected) < 2e-2))
        [ 1e4; 159154.9; 1e7 ])
    [ 0.2; 0.5; 0.8 ]

let test_rvf_static_path_matches_dc_sweep () =
  (* the static path F0 reproduces the DC transfer curve of the clipper *)
  let nl = Circuits.Library.clipper ~input_wave:(Circuit.Netlist.Sine
    { offset = 0.3; ampl = 0.5; freq = 1e6; phase = 0.0 }) () in
  let mna =
    Engine.Mna.build ~inputs:[ Circuits.Library.clipper_input ]
      ~outputs:[ Circuits.Library.clipper_output ] nl
  in
  let opts = { Engine.Tran.default_opts with Engine.Tran.snapshot_every = 4 } in
  let run = Engine.Tran.run ~opts mna ~t_stop:1e-6 ~dt:2.5e-9 in
  let ds =
    Tft.Dataset.of_snapshots ~mna ~estimator:(Tft.Estimator.make ())
      ~freqs_hz:(Signal.Grid.logspace 1e4 1e9 30)
      run.Engine.Tran.snapshots
  in
  let r = Rvf.extract ~dataset:ds ~input:0 ~output:0 () in
  (* compare the model's large-signal DC transfer (static path plus branch
     equilibria) against an actual DC sweep of the circuit *)
  List.iter
    (fun u ->
      let nl_dc = Circuits.Library.clipper ~input_wave:(Circuit.Netlist.Dc u) () in
      let mna_dc = Engine.Mna.build ~outputs:[ Circuits.Library.clipper_output ] nl_dc in
      let v = Engine.Dc.solve mna_dc in
      let y_dc = (Engine.Mna.output_values mna_dc v).(0) in
      check_close 5e-3 (Printf.sprintf "dc_output(%g)" u) y_dc
        (Hammerstein.Hmodel.dc_output r.Rvf.model ~x:u))
    [ -0.1; 0.1; 0.3; 0.5; 0.7 ]

let test_rvf_dynamic_branches_vanish_at_anchor () =
  (* branch static stages are anchored to zero at the trajectory start *)
  let nl = Circuits.Library.clipper ~input_wave:(Circuit.Netlist.Sine
    { offset = 0.3; ampl = 0.5; freq = 1e6; phase = 0.0 }) () in
  let mna =
    Engine.Mna.build ~inputs:[ Circuits.Library.clipper_input ]
      ~outputs:[ Circuits.Library.clipper_output ] nl
  in
  let opts = { Engine.Tran.default_opts with Engine.Tran.snapshot_every = 10 } in
  let run = Engine.Tran.run ~opts mna ~t_stop:1e-6 ~dt:1e-8 in
  let ds =
    Tft.Dataset.of_snapshots ~mna ~estimator:(Tft.Estimator.make ())
      ~freqs_hz:(Signal.Grid.logspace 1e4 1e9 25)
      run.Engine.Tran.snapshots
  in
  let r = Rvf.extract ~dataset:ds ~input:0 ~output:0 () in
  let x0 = ds.Tft.Dataset.samples.(0).Tft.Dataset.x.(0) in
  Array.iter
    (fun branch ->
      match branch with
      | Hammerstein.Hmodel.First_order { f; _ } ->
          check_close 1e-9 "anchored f" 0.0 (f.Hammerstein.Static_fn.eval x0)
      | Hammerstein.Hmodel.Second_order { f1; f2; _ } ->
          check_close 1e-9 "anchored f1" 0.0 (f1.Hammerstein.Static_fn.eval x0);
          check_close 1e-9 "anchored f2" 0.0 (f2.Hammerstein.Static_fn.eval x0))
    r.Rvf.model.Hammerstein.Hmodel.branches

let test_rvf_rejects_multidim_estimator () =
  let nl = Circuits.Library.clipper ~input_wave:(Circuit.Netlist.Sine
    { offset = 0.3; ampl = 0.5; freq = 1e6; phase = 0.0 }) () in
  let mna =
    Engine.Mna.build ~inputs:[ Circuits.Library.clipper_input ]
      ~outputs:[ Circuits.Library.clipper_output ] nl
  in
  let opts = { Engine.Tran.default_opts with Engine.Tran.snapshot_every = 20 } in
  let run = Engine.Tran.run ~opts mna ~t_stop:1e-6 ~dt:1e-8 in
  let ds =
    Tft.Dataset.of_snapshots ~mna
      ~estimator:(Tft.Estimator.make ~delays:[ 1e-8 ] ())
      ~freqs_hz:(Signal.Grid.logspace 1e4 1e9 20)
      run.Engine.Tran.snapshots
  in
  Alcotest.(check bool) "multidim rejected" true
    (match Rvf.extract ~dataset:ds ~input:0 ~output:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_rvf_clipper_time_domain () =
  (* end-to-end accuracy on an unseen test input (the headline result) *)
  let train_wave =
    Circuit.Netlist.Sine { offset = 0.3; ampl = 0.5; freq = 1e6; phase = 0.0 }
  in
  let nl = Circuits.Library.clipper ~input_wave:train_wave () in
  let mna =
    Engine.Mna.build ~inputs:[ Circuits.Library.clipper_input ]
      ~outputs:[ Circuits.Library.clipper_output ] nl
  in
  let opts = { Engine.Tran.default_opts with Engine.Tran.snapshot_every = 4 } in
  let run = Engine.Tran.run ~opts mna ~t_stop:1e-6 ~dt:2.5e-9 in
  let ds =
    Tft.Dataset.of_snapshots ~mna ~estimator:(Tft.Estimator.make ())
      ~freqs_hz:(Signal.Grid.logspace 1e4 1e9 40)
      run.Engine.Tran.snapshots
  in
  let r = Rvf.extract ~dataset:ds ~input:0 ~output:0 () in
  let wave =
    Circuit.Netlist.Bits
      {
        low = -0.1;
        high = 0.7;
        rate = 20e6;
        rise = 5e-9;
        bits = Signal.Source.prbs_bits ~seed:3 ~length:12;
      }
  in
  let v =
    Tft_rvf.Report.validate ~model:r.Rvf.model ~netlist:nl
      ~input:Circuits.Library.clipper_input
      ~output:Circuits.Library.clipper_output ~wave ~t_stop:6e-7 ~dt:2e-10 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "nrmse %.1f dB below -30 dB" v.Tft_rvf.Report.nrmse_db)
    true
    (v.Tft_rvf.Report.nrmse_db < -30.0)

let suite =
  [
    Alcotest.test_case "ratfn derivative" `Quick test_ratfn_derivative_is_integrand;
    Alcotest.test_case "ratfn quadrature" `Quick test_ratfn_matches_quadrature;
    Alcotest.test_case "ratfn set_value" `Quick test_ratfn_set_value;
    Alcotest.test_case "ratfn of_model" `Quick test_ratfn_of_model;
    Alcotest.test_case "ratfn rejects real poles" `Quick test_ratfn_rejects_real_poles;
    Alcotest.test_case "ratfn nan slope is a violation" `Quick
      test_ratfn_nan_slope_is_violation;
    Alcotest.test_case "ratfn formula" `Quick test_ratfn_formula_mentions_terms;
    Alcotest.test_case "ratfn to_static_fn" `Quick test_ratfn_to_static_fn;
    Alcotest.test_case "rvf linear circuit" `Slow test_rvf_linear_circuit;
    Alcotest.test_case "rvf static path" `Slow test_rvf_static_path_matches_dc_sweep;
    Alcotest.test_case "rvf anchored branches" `Slow test_rvf_dynamic_branches_vanish_at_anchor;
    Alcotest.test_case "rvf rejects multidim" `Slow test_rvf_rejects_multidim_estimator;
    Alcotest.test_case "rvf clipper time domain" `Slow test_rvf_clipper_time_domain;
  ]

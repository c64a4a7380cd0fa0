(* Checkpoint artifact (de)serialization for the extraction pipeline.

   Every payload stored by [Pipeline.extract ~checkpoint_dir] goes
   through these encoders; floats are rendered by {!Minijson}'s [%.17g]
   token, which round-trips every finite double bit-exactly — the
   mechanical fact behind the bit-identical-resume invariant. Non-finite
   values come back from Minijson as the strings ["nan"]/["inf"]/
   ["-inf"] (JSON has no token for them), so the decoders accept both
   forms; they can legitimately appear in a quarantined-then-repaired
   dataset that was checkpointed before repair.

   Decoders raise [Invalid_argument] with an ["Artifact:"] prefix on any
   structural mismatch. The pipeline treats a failing decode like a
   torn file: warn, drop the artifact and recompute the stage.

   [canonical_netlist] and the primitive renderers at the bottom feed
   the run fingerprint: a stable, %.17g-exact textual form of the
   circuit and configuration whose MD5 identifies the checkpoint set.
   The rendering is deliberately independent of [Netlist.pp] (a
   pretty-printer, free to change) — fingerprints must only change when
   the extraction inputs change. *)

let invalid what = invalid_arg ("Artifact: malformed " ^ what)

(* --- primitives ------------------------------------------------------ *)

let json_of_float v =
  if Float.is_finite v then Minijson.Num v
  else if Float.is_nan v then Minijson.Str "nan"
  else if v > 0.0 then Minijson.Str "inf"
  else Minijson.Str "-inf"

let float_of_json = function
  | Minijson.Num v -> v
  | Minijson.Str "nan" -> Float.nan
  | Minijson.Str "inf" -> Float.infinity
  | Minijson.Str "-inf" -> Float.neg_infinity
  | _ -> invalid "number"

let json_of_floats a = Minijson.Arr (Array.to_list (Array.map json_of_float a))

let floats_of_json j =
  match j with
  | Minijson.Arr l -> Array.of_list (List.map float_of_json l)
  | _ -> invalid "float array"

let get j name = match Minijson.field j name with
  | Some v -> v
  | None -> invalid ("object: missing field " ^ name)

let num j name = float_of_json (get j name)
let int_f j name = int_of_float (num j name)
let farr j name = floats_of_json (get j name)

let str j name =
  match Minijson.str_field j name with
  | Some s -> s
  | None -> invalid ("object: missing string field " ^ name)

let bool_f j name =
  match get j name with Minijson.Bool b -> b | _ -> invalid "bool field"

let arr j name =
  match Minijson.arr_field j name with
  | Some l -> l
  | None -> invalid ("object: missing array field " ^ name)

(* --- linalg ---------------------------------------------------------- *)

let json_of_vec (v : Linalg.Vec.t) = json_of_floats v
let vec_of_json j : Linalg.Vec.t = floats_of_json j

let json_of_mat (m : Linalg.Mat.t) =
  let rows = Linalg.Mat.rows m and cols = Linalg.Mat.cols m in
  let data = Array.init (rows * cols) (fun k ->
      Linalg.Mat.get m (k / cols) (k mod cols)) in
  Minijson.Obj
    [
      ("rows", Minijson.Num (float_of_int rows));
      ("cols", Minijson.Num (float_of_int cols));
      ("data", json_of_floats data);
    ]

let mat_of_json j =
  let rows = int_f j "rows" and cols = int_f j "cols" in
  let data = farr j "data" in
  if Array.length data <> rows * cols then invalid "matrix";
  Linalg.Mat.init rows cols (fun r c -> data.((r * cols) + c))

let json_of_cmat (m : Linalg.Cmat.t) =
  let rows = Linalg.Cmat.rows m and cols = Linalg.Cmat.cols m in
  let re = Array.init (rows * cols) (fun k ->
      (Linalg.Cmat.get m (k / cols) (k mod cols)).Complex.re) in
  let im = Array.init (rows * cols) (fun k ->
      (Linalg.Cmat.get m (k / cols) (k mod cols)).Complex.im) in
  Minijson.Obj
    [
      ("rows", Minijson.Num (float_of_int rows));
      ("cols", Minijson.Num (float_of_int cols));
      ("re", json_of_floats re);
      ("im", json_of_floats im);
    ]

let cmat_of_json j =
  let rows = int_f j "rows" and cols = int_f j "cols" in
  let re = farr j "re" and im = farr j "im" in
  if Array.length re <> rows * cols || Array.length im <> rows * cols then
    invalid "complex matrix";
  Linalg.Cmat.init rows cols (fun r c ->
      let k = (r * cols) + c in
      { Complex.re = re.(k); im = im.(k) })

let json_of_complexes (a : Complex.t array) =
  Minijson.Obj
    [
      ("re", json_of_floats (Array.map (fun z -> z.Complex.re) a));
      ("im", json_of_floats (Array.map (fun z -> z.Complex.im) a));
    ]

let complexes_of_json j =
  let re = farr j "re" and im = farr j "im" in
  if Array.length re <> Array.length im then invalid "complex array";
  Array.map2 (fun re im -> { Complex.re; im }) re im

(* --- transient stage ------------------------------------------------- *)

let json_of_snapshot (s : Engine.Tran.snapshot) =
  Minijson.Obj
    [
      ("time", json_of_float s.Engine.Tran.time);
      ("state", json_of_vec s.Engine.Tran.state);
      ("inputs", json_of_vec s.Engine.Tran.inputs);
      ("outputs", json_of_vec s.Engine.Tran.outputs);
    ]

(* artifacts written before snapshots dropped their Jacobians also
   carry "g_mat"/"c_mat" keys; they are functions of the state, so the
   decoder skips them and those checkpoints keep resuming *)
let snapshot_of_json j : Engine.Tran.snapshot =
  {
    Engine.Tran.time = num j "time";
    state = vec_of_json (get j "state");
    inputs = vec_of_json (get j "inputs");
    outputs = vec_of_json (get j "outputs");
  }

let json_of_tran (r : Engine.Tran.result) =
  Minijson.Obj
    [
      ("times", json_of_floats r.Engine.Tran.times);
      ( "states",
        Minijson.Arr
          (Array.to_list (Array.map json_of_vec r.Engine.Tran.states)) );
      ("outputs", json_of_mat r.Engine.Tran.outputs);
      ( "snapshots",
        Minijson.Arr
          (Array.to_list (Array.map json_of_snapshot r.Engine.Tran.snapshots))
      );
      ( "newton_iterations",
        Minijson.Num (float_of_int r.Engine.Tran.newton_iterations) );
      ("be_fallbacks", Minijson.Num (float_of_int r.Engine.Tran.be_fallbacks));
      ( "step_rejections",
        Minijson.Num (float_of_int r.Engine.Tran.step_rejections) );
    ]

let tran_of_json j : Engine.Tran.result =
  {
    Engine.Tran.times = farr j "times";
    states = Array.of_list (List.map vec_of_json (arr j "states"));
    outputs = mat_of_json (get j "outputs");
    snapshots = Array.of_list (List.map snapshot_of_json (arr j "snapshots"));
    newton_iterations = int_f j "newton_iterations";
    be_fallbacks = int_f j "be_fallbacks";
    step_rejections = int_f j "step_rejections";
  }

(* --- TFT dataset ----------------------------------------------------- *)

let json_of_sample (s : Tft.Dataset.sample) =
  Minijson.Obj
    [
      ("time", json_of_float s.Tft.Dataset.time);
      ("x", json_of_floats s.Tft.Dataset.x);
      ("u", json_of_floats s.Tft.Dataset.u);
      ("y", json_of_floats s.Tft.Dataset.y);
      ( "h",
        Minijson.Arr (Array.to_list (Array.map json_of_cmat s.Tft.Dataset.h))
      );
      ("h0", json_of_cmat s.Tft.Dataset.h0);
    ]

let sample_of_json j : Tft.Dataset.sample =
  {
    Tft.Dataset.time = num j "time";
    x = farr j "x";
    u = farr j "u";
    y = farr j "y";
    h = Array.of_list (List.map cmat_of_json (arr j "h"));
    h0 = cmat_of_json (get j "h0");
  }

let json_of_dataset (d : Tft.Dataset.t) =
  Minijson.Obj
    [
      ("freqs_hz", json_of_floats d.Tft.Dataset.freqs_hz);
      ( "samples",
        Minijson.Arr
          (Array.to_list (Array.map json_of_sample d.Tft.Dataset.samples)) );
      ("n_inputs", Minijson.Num (float_of_int d.Tft.Dataset.n_inputs));
      ("n_outputs", Minijson.Num (float_of_int d.Tft.Dataset.n_outputs));
    ]

let dataset_of_json j : Tft.Dataset.t =
  {
    Tft.Dataset.freqs_hz = farr j "freqs_hz";
    samples = Array.of_list (List.map sample_of_json (arr j "samples"));
    n_inputs = int_f j "n_inputs";
    n_outputs = int_f j "n_outputs";
  }

(* --- vector-fitting models ------------------------------------------- *)

let json_of_vf_model (m : Vf.Model.t) =
  Minijson.Obj
    [
      ("poles", json_of_complexes m.Vf.Model.poles);
      ( "coeffs",
        Minijson.Arr (Array.to_list (Array.map json_of_floats m.Vf.Model.coeffs))
      );
      ("consts", json_of_floats m.Vf.Model.consts);
      ("slopes", json_of_floats m.Vf.Model.slopes);
    ]

let vf_model_of_json j : Vf.Model.t =
  {
    Vf.Model.poles = complexes_of_json (get j "poles");
    coeffs = Array.of_list (List.map floats_of_json (arr j "coeffs"));
    consts = farr j "consts";
    slopes = farr j "slopes";
  }

let json_of_vf_info (i : Vf.Vfit.info) =
  Minijson.Obj
    [
      ("rms", json_of_float i.Vf.Vfit.rms);
      ("max_err", json_of_float i.Vf.Vfit.max_err);
      ("iterations_run", Minijson.Num (float_of_int i.Vf.Vfit.iterations_run));
      ("pole_count", Minijson.Num (float_of_int i.Vf.Vfit.pole_count));
    ]

let vf_info_of_json j : Vf.Vfit.info =
  {
    Vf.Vfit.rms = num j "rms";
    max_err = num j "max_err";
    iterations_run = int_f j "iterations_run";
    pole_count = int_f j "pole_count";
  }

(* --- fit artifact ---------------------------------------------------- *)

(* The settled outcome of one ladder fit: everything needed to rebuild
   the analytical model without re-running any VF stage, plus the rung
   label so a resumed report keeps the original escalation note. *)
type fit = {
  rung : string;
  freq_model : Vf.Model.t;
  freq_info : Vf.Vfit.info;
  residue_model : Vf.Model.t;
  residue_info : Vf.Vfit.info;
  static_model : Vf.Model.t;
  static_info : Vf.Vfit.info;
  x_range : float * float;
  x0 : float;
  y0 : float;
  has_const : bool;
  build_seconds : float;
}

let fit_of_rvf ~rung (r : Rvf.result) =
  {
    rung;
    freq_model = r.Rvf.freq_model;
    freq_info = r.Rvf.freq_info;
    residue_model = r.Rvf.residue_model;
    residue_info = r.Rvf.residue_info;
    static_model = r.Rvf.static_model;
    static_info = r.Rvf.static_info;
    x_range = r.Rvf.x_range;
    x0 = r.Rvf.x0;
    y0 = r.Rvf.y0;
    has_const = r.Rvf.has_const;
    build_seconds = r.Rvf.build_seconds;
  }

(* The inverse: reassemble the Hammerstein model from the serialized VF
   models. [Rvf.assemble_model] is pure and deterministic, so the
   resumed result's model is bit-identical (same equations text, same
   numerics) to the one the original run built. *)
let rvf_of_fit f : Rvf.result =
  {
    Rvf.model =
      Rvf.assemble_model ~freq_model:f.freq_model
        ~residue_model:f.residue_model ~static_model:f.static_model
        ~has_const:f.has_const ~x0:f.x0 ~y0:f.y0;
    freq_model = f.freq_model;
    freq_info = f.freq_info;
    residue_model = f.residue_model;
    residue_info = f.residue_info;
    static_model = f.static_model;
    static_info = f.static_info;
    x_range = f.x_range;
    x0 = f.x0;
    y0 = f.y0;
    has_const = f.has_const;
    build_seconds = f.build_seconds;
  }

let json_of_fit f =
  let lo, hi = f.x_range in
  Minijson.Obj
    [
      ("rung", Minijson.Str f.rung);
      ("freq_model", json_of_vf_model f.freq_model);
      ("freq_info", json_of_vf_info f.freq_info);
      ("residue_model", json_of_vf_model f.residue_model);
      ("residue_info", json_of_vf_info f.residue_info);
      ("static_model", json_of_vf_model f.static_model);
      ("static_info", json_of_vf_info f.static_info);
      ("x_lo", json_of_float lo);
      ("x_hi", json_of_float hi);
      ("x0", json_of_float f.x0);
      ("y0", json_of_float f.y0);
      ("has_const", Minijson.Bool f.has_const);
      ("build_seconds", json_of_float f.build_seconds);
    ]

let fit_of_json j =
  {
    rung = str j "rung";
    freq_model = vf_model_of_json (get j "freq_model");
    freq_info = vf_info_of_json (get j "freq_info");
    residue_model = vf_model_of_json (get j "residue_model");
    residue_info = vf_info_of_json (get j "residue_info");
    static_model = vf_model_of_json (get j "static_model");
    static_info = vf_info_of_json (get j "static_info");
    x_range = (num j "x_lo", num j "x_hi");
    x0 = num j "x0";
    y0 = num j "y0";
    has_const = bool_f j "has_const";
    build_seconds = num j "build_seconds";
  }

(* --- canonical fingerprint rendering --------------------------------- *)

let g v = Printf.sprintf "%.17g" v

let render_wave (w : Circuit.Netlist.wave) =
  match w with
  | Circuit.Netlist.Dc v -> "dc(" ^ g v ^ ")"
  | Sine { offset; ampl; freq; phase } ->
      Printf.sprintf "sine(%s,%s,%s,%s)" (g offset) (g ampl) (g freq) (g phase)
  | Pulse { low; high; delay; rise; width; period } ->
      Printf.sprintf "pulse(%s,%s,%s,%s,%s,%s)" (g low) (g high) (g delay)
        (g rise) (g width) (g period)
  | Pwl pts ->
      "pwl("
      ^ String.concat ";"
          (List.map (fun (t, v) -> g t ^ ":" ^ g v) pts)
      ^ ")"
  | Bits { low; high; rate; rise; bits } ->
      Printf.sprintf "bits(%s,%s,%s,%s,%s)" (g low) (g high) (g rate) (g rise)
        (String.concat ""
           (List.map (fun b -> if b then "1" else "0") (Array.to_list bits)))
  | Ext _ ->
      (* closures have no canonical text: a distinguishing marker keeps
         the fingerprint honest (two Ext sources never collide with a
         printable wave), at the cost that runs driven by programmatic
         sources share one fingerprint — documented in DESIGN.md *)
      "ext(<fun>)"

let render_element (e : Circuit.Netlist.element) =
  match e with
  | Circuit.Netlist.Resistor { p; n; ohms } ->
      Printf.sprintf "R(%s,%s,%s)" p n (g ohms)
  | Capacitor { p; n; farads } -> Printf.sprintf "C(%s,%s,%s)" p n (g farads)
  | Inductor { p; n; henries } -> Printf.sprintf "L(%s,%s,%s)" p n (g henries)
  | Vsource { p; n; wave } ->
      Printf.sprintf "V(%s,%s,%s)" p n (render_wave wave)
  | Isource { p; n; wave } ->
      Printf.sprintf "I(%s,%s,%s)" p n (render_wave wave)
  | Vccs { p; n; cp; cn; gm } ->
      Printf.sprintf "G(%s,%s,%s,%s,%s)" p n cp cn (g gm)
  | Vcvs { p; n; cp; cn; gain } ->
      Printf.sprintf "E(%s,%s,%s,%s,%s)" p n cp cn (g gain)
  | Cccs { p; n; vname; gain } ->
      Printf.sprintf "F(%s,%s,%s,%s)" p n vname (g gain)
  | Diode { p; n; params = { i_sat; ideality; cj } } ->
      Printf.sprintf "D(%s,%s,%s,%s,%s)" p n (g i_sat) (g ideality) (g cj)
  | Junction_cap { p; n; params = { cj0; phi; m } } ->
      Printf.sprintf "Cj(%s,%s,%s,%s,%s)" p n (g cj0) (g phi) (g m)
  | Mosfet { d; g = gate; s; pol; params } ->
      Printf.sprintf "M(%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s)" d gate s
        (match pol with Circuit.Netlist.Nmos -> "nmos" | Pmos -> "pmos")
        (g params.Circuit.Netlist.kp)
        (g params.vth) (g params.lambda) (g params.w) (g params.l)
        (g params.cgs) (g params.cgd) (g params.cdb)
  | Bjt { c; b; e; pol; params } ->
      Printf.sprintf "Q(%s,%s,%s,%s,%s,%s,%s,%s,%s)" c b e
        (match pol with Circuit.Netlist.Npn -> "npn" | Pnp -> "pnp")
        (g params.Circuit.Netlist.is_bjt)
        (g params.bf) (g params.br) (g params.cje) (g params.cjc)

let canonical_netlist (nl : Circuit.Netlist.t) =
  String.concat "\n"
    (List.map
       (fun (c : Circuit.Netlist.component) ->
         c.Circuit.Netlist.name ^ "=" ^ render_element c.Circuit.Netlist.element)
       nl.Circuit.Netlist.components)

let render_output (o : Engine.Mna.output) =
  match o with
  | Engine.Mna.Node n -> "node(" ^ n ^ ")"
  | Engine.Mna.Diff (p, n) -> Printf.sprintf "diff(%s,%s)" p n

let render_float = g
let render_floats a = String.concat "," (Array.to_list (Array.map g a))

let render_vfit_opts (o : Vf.Vfit.opts) =
  Printf.sprintf "iters=%d,const=%b,slope=%b,stable=%b,min_imag=%s,relax=%b,w=%s,maxmag=%s,kernel=%s"
    o.Vf.Vfit.iterations o.Vf.Vfit.with_const o.Vf.Vfit.with_slope
    o.Vf.Vfit.enforce_stable (g o.Vf.Vfit.min_imag) o.Vf.Vfit.relax
    (match o.Vf.Vfit.weighting with
    | Vf.Vfit.Uniform -> "uniform"
    | Vf.Vfit.Inv_magnitude -> "inv_mag"
    | Vf.Vfit.Inv_sqrt -> "inv_sqrt")
    (g o.Vf.Vfit.max_magnitude)
    (match o.Vf.Vfit.relocation_kernel with
    | Vf.Vfit.Dense -> "dense"
    | Vf.Vfit.Fast -> "fast")

let render_rvf_config (c : Rvf.config) =
  String.concat ";"
    [
      "eps=" ^ g c.Rvf.eps;
      "freq_opts=" ^ render_vfit_opts c.Rvf.freq_opts;
      "state_opts=" ^ render_vfit_opts c.Rvf.state_opts;
      Printf.sprintf "freq=%d+%d..%d" c.Rvf.freq_start c.Rvf.freq_step
        c.Rvf.max_freq_poles;
      Printf.sprintf "state=%d+%d..%d" c.Rvf.state_start c.Rvf.state_step
        c.Rvf.max_state_poles;
      Printf.sprintf "dc_point=%b" c.Rvf.include_dc_point;
      "min_imag_fraction=" ^ g c.Rvf.min_imag_fraction;
    ]

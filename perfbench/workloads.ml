(* Seeded input generation for the benchmark workloads. Everything the
   program under test receives — netlist, training pump, frequency grid,
   bit pattern — is drawn here from the workload seed, so one seed always
   gives the same inputs. *)

type extraction = {
  netlist : Circuit.Netlist.t;
  input : string;
  output : Engine.Mna.output;
  config : Tft_rvf.Pipeline.config;
}

type ladder = {
  stages : int;
  r : float;
  c : float;
  exact : Oracle.Ladder.rational;  (** closed-form input→output transfer *)
  grid : float array;  (** the extraction's frequency grid, Hz *)
}

(* one independent stream per (seed, purpose) pair *)
let rng ~seed ~salt = Random.State.make [| seed; salt |]

let log_uniform st lo hi =
  exp (log lo +. Random.State.float st (log hi -. log lo))

(* ---- buffer_extract: the Section IV experiment ---------------------- *)

let buffer_snapshots = 100
let buffer_points = 40

(* the training pump's phase in radians, the only seeded input *)
let buffer_phase ~seed = Random.State.float (rng ~seed ~salt:1) (2.0 *. Float.pi)

let buffer_config ~phase =
  let base = Tft_rvf.Pipeline.buffer_config ~snapshots:buffer_snapshots () in
  let wave =
    match base.Tft_rvf.Pipeline.training.Tft_rvf.Pipeline.wave with
    | Circuit.Netlist.Sine s -> Circuit.Netlist.Sine { s with phase }
    | _ -> invalid_arg "Workloads.buffer_config: the pump is not a sine"
  in
  {
    base with
    Tft_rvf.Pipeline.training = { base.Tft_rvf.Pipeline.training with wave };
  }

let buffer_extraction config =
  {
    netlist = Circuits.Buffer.netlist ();
    input = Circuits.Buffer.input_name;
    output = Circuits.Buffer.output;
    config;
  }

let buffer ~seed = buffer_extraction (buffer_config ~phase:(buffer_phase ~seed))

(* the Table I model: the paper's pump phase, used by bitstream_sim *)
let table1 = buffer_extraction (Tft_rvf.Pipeline.buffer_config ())

(* ---- ladder_extract: the large-circuit regime ----------------------- *)

let ladder_stages = 512
let ladder_snapshots = 25
let ladder_points = 40
let ladder_steps_per_snapshot = 4

(* slowest pole magnitude, rad/s: sets the pump and grid scale (RC·N²) *)
let slowest_pole (exact : Oracle.Ladder.rational) =
  Array.fold_left
    (fun a p -> Float.min a (Complex.norm p))
    Float.infinity exact.Oracle.Ladder.poles

let ladder ~seed =
  let st = rng ~seed ~salt:2 in
  (* R stays within 5% of 1 kOhm: the reference transient's error grows
     in proportion to R through the engine's gmin leakage, so a wide R
     range would spread time_rmse_v tenfold across seeds. C sets the
     time scale, which the pump, grid and patterns follow. *)
  let r = 1e3 *. (0.95 +. Random.State.float st 0.1) in
  let c = log_uniform st 1e-10 1e-8 in
  let o = Oracle.Ladder.rc ~stages:ladder_stages ~r ~c () in
  let f1 = slowest_pole o.Oracle.Ladder.exact /. (2.0 *. Float.pi) in
  (* one quasi-static period, slow against the slowest pole *)
  let f_train = f1 /. 50.0 in
  let t_stop = 1.0 /. f_train in
  let steps = ladder_snapshots * ladder_steps_per_snapshot in
  let training =
    {
      Tft_rvf.Pipeline.wave =
        Circuit.Netlist.Sine
          { offset = 0.5; ampl = 0.4; freq = f_train; phase = 0.0 };
      t_stop;
      dt = t_stop /. float_of_int steps;
      snapshot_every = ladder_steps_per_snapshot;
    }
  in
  let config =
    Tft_rvf.Pipeline.default_config_for ~points:ladder_points
      ~backend:Engine.Mna.Sparse ~f_min:(f1 /. 30.0) ~f_max:(f1 *. 100.0)
      ~training ()
  in
  ( {
      netlist = o.Oracle.Ladder.netlist;
      input = o.Oracle.Ladder.input;
      output = o.Oracle.Ladder.output;
      config;
    },
    {
      stages = ladder_stages;
      r;
      c;
      exact = o.Oracle.Ladder.exact;
      grid = config.Tft_rvf.Pipeline.freqs_hz;
    } )

(* ---- bit patterns ---------------------------------------------------- *)

let bits = 32
let bit_rate = 2.5e9
let samples_per_pattern = 2560

type pattern = {
  wave : Circuit.Netlist.wave;
  t_stop : float;
  dt : float;
}

(* the i-th PRBS of a run: a 7-bit LFSR seed in 1..127 per pattern *)
let pattern_seeds ~seed n =
  let st = rng ~seed ~salt:3 in
  Array.init n (fun _ -> 1 + Random.State.int st 127)

let buffer_pattern ~pattern_seed =
  let t_stop = float_of_int bits /. bit_rate in
  {
    wave =
      Circuits.Buffer.bit_wave ~rate:bit_rate ~seed:pattern_seed ~length:bits ();
    t_stop;
    dt = t_stop /. float_of_int samples_per_pattern;
  }

(* the same PRBS on the ladder's time scale: two slowest time constants
   per bit, swinging across the pump's range *)
let ladder_pattern (l : ladder) ~pattern_seed =
  let rate = slowest_pole l.exact /. 2.0 in
  let t_stop = float_of_int bits /. rate in
  {
    wave =
      Circuit.Netlist.Bits
        {
          low = 0.1;
          high = 0.9;
          rate;
          rise = 0.25 /. rate;
          bits = Signal.Source.prbs_bits ~seed:pattern_seed ~length:bits;
        };
    t_stop;
    dt = t_stop /. float_of_int samples_per_pattern;
  }

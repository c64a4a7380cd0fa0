(* Per-workload inputs and the checks every output must pass. A check
   returns the violations it found; an empty list passes. *)

let bound what value limit =
  if Float.is_finite value && value <= limit then []
  else [ Printf.sprintf "%s %.4g beyond its bound %.4g" what value limit ]

let same what a b = if String.equal a b then [] else [ what ^ " differ" ]

type spec = {
  extraction : Workloads.extraction;
  pattern : int -> Workloads.pattern;  (** bit pattern from its LFSR seed *)
  surface_bound : float;  (** linear TFT-surface RMS *)
  rmse_bound : float;  (** V, model vs transistor-level reference *)
  oracle : (Hammerstein.Hmodel.t -> float) option;
      (** max relative error against a closed form, when one exists *)
  sizes : string;
}

let oracle_bound = 1e-2

(* worst relative deviation of the model's frozen-state transfer from
   the closed-form ladder, over the grid and across the pump's range *)
let ladder_oracle (l : Workloads.ladder) model =
  let ss = Array.map Signal.Grid.s_of_hz l.Workloads.grid in
  Array.fold_left
    (fun acc x ->
      let row = Array.map (fun s -> Hammerstein.Hmodel.transfer model ~x ~s) ss in
      Float.max acc
        (Oracle.Ladder.max_rel_error ~exact:l.Workloads.exact ~points:ss row))
    0.0 [| 0.1; 0.5; 0.9 |]

let spec_of ~workload ~seed =
  match workload with
  | "buffer_extract" ->
      {
        extraction = Workloads.buffer ~seed;
        pattern = (fun pattern_seed -> Workloads.buffer_pattern ~pattern_seed);
        surface_bound = 5e-3;
        rmse_bound = 0.05;
        oracle = None;
        sizes =
          Printf.sprintf "pump phase %.4f rad, %d snapshots x %d points, dense"
            (Workloads.buffer_phase ~seed)
            Workloads.buffer_snapshots Workloads.buffer_points;
      }
  | "ladder_extract" ->
      let extraction, l = Workloads.ladder ~seed in
      {
        extraction;
        pattern = (fun pattern_seed -> Workloads.ladder_pattern l ~pattern_seed);
        surface_bound = 1e-3;
        rmse_bound = 1e-3;
        oracle = Some (ladder_oracle l);
        sizes =
          Printf.sprintf
            "%d stages, R %.1f ohm, C %.4g F, %d snapshots x %d points, sparse"
            l.Workloads.stages l.Workloads.r l.Workloads.c
            Workloads.ladder_snapshots Workloads.ladder_points;
      }
  | "bitstream_sim" ->
      {
        extraction = Workloads.table1;
        pattern = (fun pattern_seed -> Workloads.buffer_pattern ~pattern_seed);
        surface_bound = 5e-3;
        rmse_bound = 0.05;
        oracle = None;
        sizes =
          Printf.sprintf "Table I model, %d-bit %.1f GS/s PRBS, %d steps"
            Workloads.bits (Workloads.bit_rate /. 1e9)
            Workloads.samples_per_pattern;
      }
  | w -> invalid_arg ("Specs.spec_of: unknown workload " ^ w)

let surface_rms (o : Tft_rvf.Pipeline.outcome) =
  (Tft_rvf.Report.surface_error ~model:o.Tft_rvf.Pipeline.model
     ~dataset:o.Tft_rvf.Pipeline.dataset ~input:0 ~output:0)
    .Tft_rvf.Report.rms

(* checks every extracted model must pass *)
let model_checks spec ~reference (o : Tft_rvf.Pipeline.outcome) =
  let model = o.Tft_rvf.Pipeline.model in
  (if Hammerstein.Hmodel.analytic model then [] else [ "model not analytic" ])
  @ bound "surface_rms" (surface_rms o) spec.surface_bound
  @ (match spec.oracle with
    | Some f -> bound "oracle_rel_err" (f model) oracle_bound
    | None -> [])
  @ same "model bytes across repeats of one seed" reference
      (Stages.model_bytes model)


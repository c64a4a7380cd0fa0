(* Offline renderer for observability bundles written by
   `tft_extract --obs-dir`:

     obs_report BUNDLE_DIR [-o OUTDIR]

   Loads and validates the bundle (manifest, trace, metrics,
   convergence.jsonl), then writes a self-contained HTML report —
   pole-migration SVG across VF iterations and recursion levels,
   residual-decay and rcond curves, a self-time table and histogram
   sparklines — plus an OpenMetrics text export. A malformed bundle
   exits nonzero with a typed reason naming the offending file. *)

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let run dir out_dir =
  match Obs_bundle.load dir with
  | bundle ->
      let out = Option.value out_dir ~default:dir in
      if not (Sys.file_exists out) then Sys.mkdir out 0o755;
      let html_path = Filename.concat out "report.html" in
      let om_path = Filename.concat out "metrics.om" in
      write_file html_path (Obs_render.render_html bundle);
      write_file om_path (Obs_render.openmetrics bundle);
      Printf.printf "wrote %s\nwrote %s\n" html_path om_path
  | exception Obs_bundle.Invalid { file; reason } ->
      Printf.eprintf "obs_report: %s\n"
        (Obs_bundle.describe_invalid ~file ~reason);
      exit 1

open Cmdliner

let dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"BUNDLE_DIR"
        ~doc:"Bundle directory written by $(b,tft_extract --obs-dir).")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"DIR"
        ~doc:
          "Write $(b,report.html) and $(b,metrics.om) here instead of \
           into the bundle directory.")

let cmd =
  let doc =
    "render an extraction observability bundle as a self-contained HTML \
     report and an OpenMetrics text export"
  in
  Cmd.v (Cmd.info "obs_report" ~doc) Term.(const run $ dir_arg $ out_arg)

let () = exit (Cmd.eval cmd)

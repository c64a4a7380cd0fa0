let pf = Printf.sprintf

(* Metrics.to_json renders non-finite floats as the strings "nan" /
   "inf" / "-inf"; read numbers through this everywhere. *)
let fnum = function
  | Minijson.Num v -> v
  | Minijson.Str "nan" -> Float.nan
  | Minijson.Str "inf" -> Float.infinity
  | Minijson.Str "-inf" -> Float.neg_infinity
  | _ -> Float.nan

let fnum_field j key =
  match Minijson.field j key with None -> Float.nan | Some v -> fnum v

let str_field_or d j key = Option.value ~default:d (Minijson.str_field j key)

let html_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let g6 v =
  if Float.is_nan v then "nan"
  else if Float.abs v >= 1e21 then pf "%.3e" v
  else pf "%.4g" v

(* --- OpenMetrics ------------------------------------------------------ *)

let om_name s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    s

let om_value v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else pf "%.17g" v

let openmetrics (b : Obs_bundle.t) =
  let buf = Buffer.create 4096 in
  let counters = Option.value ~default:[] (Minijson.obj_field b.metrics "counters") in
  let gauges = Option.value ~default:[] (Minijson.obj_field b.metrics "gauges") in
  let histograms =
    Option.value ~default:[] (Minijson.arr_field b.metrics "histograms")
  in
  List.iter
    (fun (name, v) ->
      let n = om_name name in
      Printf.bprintf buf "# TYPE %s counter\n%s_total %s\n" n n (om_value (fnum v)))
    counters;
  List.iter
    (fun (name, v) ->
      let n = om_name name in
      Printf.bprintf buf "# TYPE %s gauge\n%s %s\n" n n (om_value (fnum v)))
    gauges;
  List.iter
    (fun h ->
      let n = om_name (str_field_or "histogram" h "name") in
      let buckets = Option.value ~default:[] (Minijson.arr_field h "buckets") in
      Printf.bprintf buf "# TYPE %s histogram\n" n;
      let cum = ref 0.0 in
      List.iter
        (fun bk ->
          cum := !cum +. fnum_field bk "count";
          Printf.bprintf buf "%s_bucket{le=\"%s\"} %s\n" n
            (om_value (fnum_field bk "le"))
            (om_value !cum))
        buckets;
      Printf.bprintf buf "%s_bucket{le=\"+Inf\"} %s\n" n
        (om_value (fnum_field h "count"));
      Printf.bprintf buf "%s_sum %s\n" n (om_value (fnum_field h "sum"));
      Printf.bprintf buf "%s_count %s\n" n (om_value (fnum_field h "count"));
      List.iter
        (fun q ->
          let v = fnum_field h q in
          if not (Float.is_nan v) then begin
            Printf.bprintf buf "# TYPE %s_%s gauge\n" n q;
            Printf.bprintf buf "%s_%s %s\n" n q (om_value v)
          end)
        [ "p50"; "p95"; "p99" ])
    histograms;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* --- event extraction ------------------------------------------------- *)

type vf_group = {
  glabel : string;
  gpoles : int;
  mutable rows : (int * (float * float) array * float) list;
      (* (iteration, poles, sigma_rms), reverse order *)
}

let vf_groups (b : Obs_bundle.t) =
  let groups = ref [] in
  List.iter
    (fun e ->
      if Minijson.str_field e "type" = Some "vf_iteration" then begin
        let label = str_field_or "?" e "label" in
        let pc = int_of_float (fnum_field e "pole_count") in
        let poles =
          Option.value ~default:[] (Minijson.arr_field e "poles")
          |> List.filter_map (fun p ->
                 match Minijson.as_arr p with
                 | Some [ re; im ] -> Some (fnum re, fnum im)
                 | _ -> None)
          |> Array.of_list
        in
        let row =
          (int_of_float (fnum_field e "iteration"), poles, fnum_field e "sigma_rms")
        in
        match
          List.find_opt (fun g -> g.glabel = label && g.gpoles = pc) !groups
        with
        | Some g -> g.rows <- row :: g.rows
        | None -> groups := { glabel = label; gpoles = pc; rows = [ row ] } :: !groups
      end)
    b.events;
  List.rev_map (fun g -> { g with rows = List.rev g.rows }) !groups

let rcond_series (b : Obs_bundle.t) =
  let sites = ref [] in
  List.iter
    (fun e ->
      if Minijson.str_field e "type" = Some "rcond" then begin
        let site = str_field_or "?" e "site" in
        let v = fnum_field e "value" in
        match List.assoc_opt site !sites with
        | Some cell -> cell := v :: !cell
        | None -> sites := (site, ref [ v ]) :: !sites
      end)
    b.events;
  List.rev_map (fun (site, cell) -> (site, List.rev !cell)) !sites

(* --- SVG helpers ------------------------------------------------------ *)

let palette =
  [|
    "#1f77b4"; "#d62728"; "#2ca02c"; "#9467bd"; "#ff7f0e";
    "#17becf"; "#8c564b"; "#e377c2"; "#7f7f7f"; "#bcbd22";
  |]

let color i = palette.(i mod Array.length palette)

(* Symmetric log: keeps sign, compresses dynamic range so kHz and GHz
   poles share one readable plot. *)
let symlog scale v =
  let s = if scale > 0.0 && Float.is_finite scale then scale else 1.0 in
  Float.of_int (compare v 0.0) *. Float.log10 (1.0 +. (Float.abs v /. s))

let pole_plot groups =
  let coords =
    List.concat_map
      (fun g ->
        List.concat_map
          (fun (_, poles, _) ->
            Array.to_list poles |> List.concat_map (fun (re, im) -> [ re; im ]))
          g.rows)
      groups
  in
  let finite = List.filter Float.is_finite coords in
  if finite = [] then "<p class=\"empty\">no vf_iteration events</p>"
  else begin
    let maxmag = List.fold_left (fun a v -> Float.max a (Float.abs v)) 0.0 finite in
    let scale = if maxmag > 0.0 then maxmag /. 1e3 else 1.0 in
    let u = symlog scale in
    let us = List.map u finite in
    let lo = List.fold_left Float.min Float.infinity us -. 0.2 in
    let hi = List.fold_left Float.max Float.neg_infinity us +. 0.2 in
    let w = 640.0 and h = 420.0 and m = 34.0 in
    let px v = m +. ((u v -. lo) /. (hi -. lo) *. (w -. (2.0 *. m))) in
    let py v = h -. m -. ((u v -. lo) /. (hi -. lo) *. (h -. (2.0 *. m))) in
    let buf = Buffer.create 8192 in
    Printf.bprintf buf
      "<svg viewBox=\"0 0 %g %g\" width=\"%g\" height=\"%g\">" w h w h;
    Printf.bprintf buf
      "<line x1=\"%g\" y1=\"%g\" x2=\"%g\" y2=\"%g\" class=\"axis\"/>" (px 0.0)
      m (px 0.0) (h -. m);
    Printf.bprintf buf
      "<line x1=\"%g\" y1=\"%g\" x2=\"%g\" y2=\"%g\" class=\"axis\"/>" m
      (py 0.0) (w -. m) (py 0.0);
    Printf.bprintf buf
      "<text x=\"%g\" y=\"%g\" class=\"lbl\">Re (symlog)</text>" (w -. 110.0)
      (py 0.0 -. 6.0);
    Printf.bprintf buf
      "<text x=\"%g\" y=\"%g\" class=\"lbl\">Im (symlog)</text>"
      (px 0.0 +. 6.0) (m +. 10.0);
    List.iteri
      (fun gi g ->
        let c = color gi in
        let n_it = List.length g.rows in
        (* one polyline per pole index: its migration across iterations *)
        for p = 0 to g.gpoles - 1 do
          let pts =
            List.filter_map
              (fun (_, poles, _) ->
                if p < Array.length poles then begin
                  let re, im = poles.(p) in
                  if Float.is_finite re && Float.is_finite im then
                    Some (pf "%g,%g" (px re) (py im))
                  else None
                end
                else None)
              g.rows
          in
          if List.length pts > 1 then
            Printf.bprintf buf
              "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" \
               stroke-width=\"1\" opacity=\"0.5\"/>"
              (String.concat " " pts) c
        done;
        List.iteri
          (fun ri (_, poles, _) ->
            let last = ri = n_it - 1 in
            Array.iter
              (fun (re, im) ->
                if Float.is_finite re && Float.is_finite im then
                  Printf.bprintf buf
                    "<circle cx=\"%g\" cy=\"%g\" r=\"%g\" fill=\"%s\" \
                     opacity=\"%g\"/>"
                    (px re) (py im)
                    (if last then 3.5 else 2.0)
                    c
                    (0.25 +. (0.75 *. float_of_int (ri + 1) /. float_of_int n_it)))
              poles)
          g.rows)
      groups;
    Buffer.add_string buf "</svg>";
    let legend =
      groups
      |> List.mapi (fun gi g ->
             pf
               "<span class=\"key\"><span class=\"swatch\" \
                style=\"background:%s\"></span>%s (n=%d, %d it)</span>"
               (color gi) (html_escape g.glabel) g.gpoles (List.length g.rows))
      |> String.concat " "
    in
    Buffer.contents buf ^ "<div class=\"legend\">" ^ legend ^ "</div>"
  end

let line_plot ~w ~h ~log_y series =
  (* series : (name, float list) list; x = sample index *)
  let all = List.concat_map snd series in
  let all = List.filter (fun v -> Float.is_finite v && (not log_y || v > 0.0)) all in
  if all = [] then "<p class=\"empty\">no data</p>"
  else begin
    let tr v = if log_y then Float.log10 v else v in
    let lo = List.fold_left (fun a v -> Float.min a (tr v)) Float.infinity all in
    let hi = List.fold_left (fun a v -> Float.max a (tr v)) Float.neg_infinity all in
    let hi = if hi -. lo < 1e-12 then lo +. 1.0 else hi in
    let n_max =
      List.fold_left (fun a (_, vs) -> max a (List.length vs)) 1 series
    in
    let m = 8.0 in
    let px i =
      m +. (float_of_int i /. float_of_int (max 1 (n_max - 1)) *. (w -. (2.0 *. m)))
    in
    let py v = h -. m -. ((tr v -. lo) /. (hi -. lo) *. (h -. (2.0 *. m))) in
    let buf = Buffer.create 2048 in
    Printf.bprintf buf
      "<svg viewBox=\"0 0 %g %g\" width=\"%g\" height=\"%g\">" w h w h;
    List.iteri
      (fun si (_, vs) ->
        let pts =
          List.mapi
            (fun i v ->
              if Float.is_finite v && (not log_y || v > 0.0) then
                Some (pf "%g,%g" (px i) (py v))
              else None)
            vs
          |> List.filter_map Fun.id
        in
        if pts <> [] then
          Printf.bprintf buf
            "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" \
             stroke-width=\"1.5\"/>"
            (String.concat " " pts) (color si))
      series;
    Buffer.add_string buf "</svg>";
    let legend =
      series
      |> List.mapi (fun si (name, vs) ->
             pf
               "<span class=\"key\"><span class=\"swatch\" \
                style=\"background:%s\"></span>%s (%d)</span>"
               (color si) (html_escape name) (List.length vs))
      |> String.concat " "
    in
    Buffer.contents buf ^ "<div class=\"legend\">" ^ legend ^ "</div>"
  end

let hist_sparkline buckets =
  let counts = List.map (fun b -> fnum_field b "count") buckets in
  let peak = List.fold_left Float.max 1.0 counts in
  let n = max 1 (List.length counts) in
  let w = 120.0 and h = 22.0 in
  let bw = w /. float_of_int n in
  let buf = Buffer.create 512 in
  Printf.bprintf buf
    "<svg viewBox=\"0 0 %g %g\" width=\"%g\" height=\"%g\">" w h w h;
  List.iteri
    (fun i c ->
      if c > 0.0 then begin
        let bh = Float.max 1.5 (c /. peak *. h) in
        Printf.bprintf buf
          "<rect x=\"%g\" y=\"%g\" width=\"%g\" height=\"%g\" \
           fill=\"#1f77b4\"/>"
          (float_of_int i *. bw) (h -. bh)
          (Float.max 1.0 (bw -. 1.0))
          bh
      end)
    counts;
  Buffer.add_string buf "</svg>";
  Buffer.contents buf

(* --- self-time table from the Chrome trace ---------------------------- *)

let self_time_rows (b : Obs_bundle.t) =
  let events = Option.value ~default:[] (Minijson.arr_field b.trace "traceEvents") in
  let spans =
    List.filter_map
      (fun e ->
        if Minijson.str_field e "ph" = Some "X" then
          match Minijson.field e "args" with
          | Some args ->
              Some
                ( int_of_float (fnum_field args "id"),
                  int_of_float (fnum_field args "parent"),
                  str_field_or "?" e "name",
                  fnum_field e "dur" )
          | None -> None
        else None)
      events
  in
  let child_dur = Hashtbl.create 64 in
  List.iter
    (fun (_, parent, _, dur) ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt child_dur parent) in
      Hashtbl.replace child_dur parent (prev +. dur))
    spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun (id, _, name, dur) ->
      let child = Option.value ~default:0.0 (Hashtbl.find_opt child_dur id) in
      let n, total, self =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name name)
      in
      Hashtbl.replace by_name name
        (n + 1, total +. dur, self +. Float.max 0.0 (dur -. child)))
    spans;
  Hashtbl.fold
    (fun name (n, total, self) acc ->
      (name, n, total /. 1e6, self /. 1e6) :: acc)
    by_name []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

(* --- the report ------------------------------------------------------- *)

let css =
  {|body{font:14px/1.5 system-ui,sans-serif;margin:24px auto;max-width:960px;color:#222}
h1{font-size:22px}h2{font-size:17px;margin-top:28px;border-bottom:1px solid #ddd;padding-bottom:4px}
table{border-collapse:collapse;width:100%;font-size:13px}
th,td{text-align:left;padding:3px 10px 3px 0;border-bottom:1px solid #eee}
td.num,th.num{text-align:right}
code{background:#f4f4f4;padding:1px 4px;border-radius:3px}
.axis{stroke:#bbb;stroke-width:1}.lbl{font-size:11px;fill:#888}
.legend{font-size:12px;color:#555;margin:4px 0 12px}
.key{margin-right:14px;white-space:nowrap}
.swatch{display:inline-block;width:10px;height:10px;margin-right:4px;border-radius:2px}
.empty{color:#999;font-style:italic}
.meta{color:#555}
.badge-ok{color:#2ca02c;font-weight:600}.badge-failed{color:#d62728;font-weight:600}|}

let section buf title body =
  Printf.bprintf buf "<h2>%s</h2>\n%s\n" title body

let render_html (b : Obs_bundle.t) =
  let buf = Buffer.create 65536 in
  let tool = str_field_or "?" b.manifest "tool" in
  let status = str_field_or "?" b.manifest "status" in
  let seed = fnum_field b.manifest "seed" in
  let host =
    match Minijson.field b.manifest "host" with
    | Some h ->
        pf "%g cores, %s, %g-bit" (fnum_field h "cores")
          (str_field_or "?" h "os") (fnum_field h "word_size")
    | None -> "?"
  in
  Printf.bprintf buf
    "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n\
     <title>obs report: %s</title>\n<style>%s</style></head><body>\n"
    (html_escape tool) css;
  Printf.bprintf buf
    "<h1>Convergence observatory — <code>%s</code> \
     <span class=\"badge-%s\">%s</span></h1>\n\
     <p class=\"meta\">seed %g · host: %s · %d events in \
     <code>convergence.jsonl</code></p>\n"
    (html_escape tool) (html_escape status) (html_escape status) seed
    (html_escape host) (List.length b.events);
  (match Minijson.obj_field b.manifest "config" with
  | Some ((_ :: _) as kvs) ->
      let rows =
        kvs
        |> List.map (fun (k, v) ->
               pf "<tr><td><code>%s</code></td><td>%s</td></tr>" (html_escape k)
                 (html_escape (Minijson.emit v)))
        |> String.concat "\n"
      in
      section buf "Configuration" (pf "<table>%s</table>" rows)
  | _ -> ());
  let groups = vf_groups b in
  section buf "Pole migration (all VF relocations)" (pole_plot groups);
  section buf "Residual decay (σ-residual RMS per relocation, log y)"
    (line_plot ~w:640.0 ~h:200.0 ~log_y:true
       (List.map
          (fun g ->
            ( pf "%s n=%d" g.glabel g.gpoles,
              List.map (fun (_, _, rms) -> rms) g.rows ))
          groups));
  let rconds = rcond_series b in
  section buf "Factorization conditioning (rcond per site, log y)"
    (if rconds = [] then "<p class=\"empty\">no rcond events</p>"
     else
       rconds
       |> List.map (fun (site, vs) ->
              pf "<h3 style=\"font-size:14px;margin:10px 0 2px\">%s</h3>%s"
                (html_escape site)
                (line_plot ~w:420.0 ~h:60.0 ~log_y:true [ (site, vs) ]))
       |> String.concat "\n");
  let self_rows = self_time_rows b in
  section buf "Self time (from trace.json)"
    (if self_rows = [] then "<p class=\"empty\">no trace spans</p>"
     else
       let rows =
         self_rows
         |> List.map (fun (name, n, total, self) ->
                pf
                  "<tr><td><code>%s</code></td><td class=\"num\">%d</td>\
                   <td class=\"num\">%s s</td><td class=\"num\">%s s</td></tr>"
                  (html_escape name) n (g6 total) (g6 self))
         |> String.concat "\n"
       in
       pf
         "<table><tr><th>span</th><th class=\"num\">count</th>\
          <th class=\"num\">total</th><th class=\"num\">self</th></tr>%s</table>"
         rows);
  let histograms =
    Option.value ~default:[] (Minijson.arr_field b.metrics "histograms")
  in
  section buf "Histograms"
    (if histograms = [] then "<p class=\"empty\">no histograms</p>"
     else
       let rows =
         histograms
         |> List.map (fun h ->
                pf
                  "<tr><td><code>%s</code></td><td class=\"num\">%s</td>\
                   <td class=\"num\">%s</td><td class=\"num\">%s</td>\
                   <td class=\"num\">%s</td><td class=\"num\">%s</td>\
                   <td>%s</td></tr>"
                  (html_escape (str_field_or "?" h "name"))
                  (g6 (fnum_field h "count"))
                  (g6 (fnum_field h "mean"))
                  (g6 (fnum_field h "p50"))
                  (g6 (fnum_field h "p95"))
                  (g6 (fnum_field h "p99"))
                  (hist_sparkline
                     (Option.value ~default:[] (Minijson.arr_field h "buckets"))))
         |> String.concat "\n"
       in
       pf
         "<table><tr><th>name</th><th class=\"num\">count</th>\
          <th class=\"num\">mean</th><th class=\"num\">p50</th>\
          <th class=\"num\">p95</th><th class=\"num\">p99</th>\
          <th>buckets</th></tr>%s</table>"
         rows);
  let noteworthy =
    List.filter
      (fun e ->
        match Minijson.str_field e "type" with
        | Some
            ( "stage" | "note" | "warning" | "error" | "escalation"
            | "violation" | "quarantine" | "vf_attempt" | "vf_settled" ) ->
            true
        | _ -> false)
      b.events
  in
  section buf
    "Events (stages, notes, warnings, errors, escalations, violations, \
     quarantines)"
    (if noteworthy = [] then "<p class=\"empty\">no events</p>"
     else
       let rows =
         noteworthy
         |> List.map (fun e ->
                let fields =
                  match e with
                  | Minijson.Obj kvs ->
                      List.filter
                        (fun (k, _) -> k <> "type" && k <> "seq" && k <> "t")
                        kvs
                  | _ -> []
                in
                pf
                  "<tr><td class=\"num\">%s</td><td><code>%s</code></td>\
                   <td>%s</td></tr>"
                  (g6 (fnum_field e "t"))
                  (html_escape (str_field_or "?" e "type"))
                  (html_escape (Minijson.emit (Minijson.Obj fields))))
         |> String.concat "\n"
       in
       pf
         "<table><tr><th class=\"num\">t (s)</th><th>type</th>\
          <th>detail</th></tr>%s</table>"
         rows);
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf

exception Invalid of { file : string; reason : string }

let describe_invalid ~file ~reason =
  Printf.sprintf "invalid bundle: %s: %s" file reason

let () =
  Printexc.register_printer (function
    | Invalid { file; reason } -> Some (describe_invalid ~file ~reason)
    | _ -> None)

let schema_version = 1

let host_json () =
  Minijson.Obj
    [
      ("cores", Minijson.Num (float_of_int (Domain.recommended_domain_count ())));
      ("os", Minijson.Str Sys.os_type);
      ("word_size", Minijson.Num (float_of_int Sys.word_size));
    ]

let manifest ~tool ~status ~seed ~config () =
  Minijson.Obj
    [
      ("schema_version", Minijson.Num (float_of_int schema_version));
      ("kind", Minijson.Str "obs-bundle");
      ("tool", Minijson.Str tool);
      ("status", Minijson.Str status);
      ("seed", Minijson.Num (float_of_int seed));
      ("host", host_json ());
      ("config", Minijson.Obj config);
    ]

(* The one Diag.report serializer: the hand-rolled layout predates
   Minijson.emit and is kept because obs_check pins this exact shape. *)
let diag_json (r : Diag.report) =
  let buf = Buffer.create 4096 in
  let sep = ref "" in
  let item fmt =
    Buffer.add_string buf !sep;
    sep := ",";
    Printf.bprintf buf fmt
  in
  let fresh () = sep := "" in
  Buffer.add_string buf "{\n  \"schema_version\": 1,\n  \"spans\": [";
  fresh ();
  List.iter
    (fun (s : Diag.span) ->
      item "\n    {\"stage\": \"%s\", \"seconds\": %s}"
        (Minijson.escape s.Diag.stage)
        (Minijson.float s.Diag.seconds))
    r.Diag.spans;
  Buffer.add_string buf "\n  ],\n  \"counters\": {";
  fresh ();
  List.iter
    (fun (name, n) -> item "\n    \"%s\": %d" (Minijson.escape name) n)
    r.Diag.counters;
  Buffer.add_string buf "\n  },\n  \"stats\": [";
  fresh ();
  List.iter
    (fun (s : Diag.stat) ->
      item
        "\n    {\"name\": \"%s\", \"samples\": %d, \"total\": %s, \"min\": \
         %s, \"max\": %s, \"last\": %s, \"mean\": %s}"
        (Minijson.escape s.Diag.name)
        s.Diag.samples
        (Minijson.float s.Diag.total)
        (Minijson.float s.Diag.min)
        (Minijson.float s.Diag.max)
        (Minijson.float s.Diag.last)
        (Minijson.float (Diag.mean s)))
    r.Diag.stats;
  Buffer.add_string buf "\n  ],\n  \"events\": [";
  fresh ();
  List.iter
    (fun (e : Diag.event) ->
      item "\n    {\"level\": \"%s\", \"stage\": \"%s\", \"message\": \"%s\"}"
        (Diag.level_to_string e.Diag.level)
        (Minijson.escape e.Diag.stage)
        (Minijson.escape e.Diag.message))
    r.Diag.events;
  Buffer.add_string buf "\n  ],\n  \"notes\": {";
  fresh ();
  List.iter
    (fun (k, v) ->
      item "\n    \"%s\": \"%s\"" (Minijson.escape k) (Minijson.escape v))
    r.Diag.notes;
  Buffer.add_string buf "\n  }\n}\n";
  Buffer.contents buf

(* write-to-temp + atomic rename: a reader (or a crash mid-write) never
   observes a torn bundle file — it sees either the previous complete
   version or the new one *)
let write_file path text =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc text;
      flush oc);
  Sys.rename tmp path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()
  end

let write ~dir ~manifest ?repro obs =
  mkdir_p dir;
  let file name = Filename.concat dir name in
  write_file (file "manifest.json") (Minijson.emit manifest ^ "\n");
  write_file (file "trace.json") (Trace.chrome_json (Obs.tracer obs));
  write_file (file "metrics.json")
    (Metrics.to_json (Metrics.snapshot (Obs.metrics obs)));
  write_file (file "diag.json") (diag_json (Diag.report (Obs.diag obs)));
  write_file (file "convergence.jsonl") (Obs.convergence_jsonl obs);
  match repro with
  | None -> ()
  | Some capsule -> write_file (file "repro.json") (Minijson.emit capsule ^ "\n")

type t = {
  dir : string;
  manifest : Minijson.t;
  trace : Minijson.t;
  metrics : Minijson.t;
  diag : Minijson.t;
  events : Minijson.t list;
}

(* --- validation ------------------------------------------------------- *)

let fail file reason = raise (Invalid { file; reason })

let read_file file path =
  match open_in_bin path with
  | exception Sys_error msg -> fail file msg
  | ic ->
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      text

let parse_json file text =
  try Minijson.parse text
  with Minijson.Parse_error msg -> fail file msg

let require_version file root =
  match Minijson.num_field root "schema_version" with
  | Some v when v = float_of_int schema_version -> ()
  | Some v -> fail file (Printf.sprintf "unsupported schema_version %g" v)
  | None -> fail file "missing schema_version"

let require field_kind file root key =
  match (field_kind, Minijson.field root key) with
  | _, None -> fail file (Printf.sprintf "missing field %S" key)
  | `Str, Some (Minijson.Str _)
  | `Num, Some (Minijson.Num _)
  | `Arr, Some (Minijson.Arr _)
  | `Obj, Some (Minijson.Obj _) ->
      ()
  | _, Some _ -> fail file (Printf.sprintf "field %S has the wrong type" key)

let validate_manifest file root =
  require_version file root;
  (match Minijson.str_field root "kind" with
  | Some "obs-bundle" -> ()
  | Some other -> fail file (Printf.sprintf "kind %S is not obs-bundle" other)
  | None -> fail file "missing kind");
  require `Str file root "tool";
  require `Str file root "status";
  require `Num file root "seed";
  require `Obj file root "config";
  require `Obj file root "host";
  let host = Minijson.Obj (Option.get (Minijson.obj_field root "host")) in
  require `Num file host "cores";
  require `Str file host "os";
  require `Num file host "word_size"

let validate_trace file root =
  require_version file root;
  require `Arr file root "traceEvents"

let validate_metrics file root =
  require_version file root;
  require `Obj file root "counters";
  require `Obj file root "gauges";
  require `Arr file root "histograms";
  List.iter
    (fun h ->
      require `Str file h "name";
      require `Num file h "count";
      require `Arr file h "buckets";
      let name = Option.value ~default:"?" (Minijson.str_field h "name") in
      let count = Option.value ~default:0.0 (Minijson.num_field h "count") in
      let in_buckets =
        List.fold_left
          (fun acc b ->
            acc +. Option.value ~default:0.0 (Minijson.num_field b "count"))
          0.0
          (Option.value ~default:[] (Minijson.arr_field h "buckets"))
      in
      if in_buckets <> count then
        fail file
          (Printf.sprintf
             "histogram %S: bucket counts sum to %g, histogram count is %g"
             name in_buckets count))
    (Option.value ~default:[] (Minijson.arr_field root "histograms"))

let validate_diag file root =
  require_version file root;
  require `Arr file root "spans";
  require `Obj file root "counters";
  require `Arr file root "stats";
  require `Arr file root "events";
  require `Obj file root "notes"

let parse_events file text =
  let lines = String.split_on_char '\n' text in
  let events = ref [] and idx = ref 0 in
  List.iter
    (fun line ->
      if String.trim line <> "" then begin
        let where reason = Printf.sprintf "line %d: %s" (!idx + 1) reason in
        let e =
          try Minijson.parse line
          with Minijson.Parse_error msg -> fail file (where msg)
        in
        (match e with
        | Minijson.Obj _ -> ()
        | _ -> fail file (where "event is not a JSON object"));
        (match Minijson.str_field e "type" with
        | Some _ -> ()
        | None -> fail file (where "missing type"));
        (match Minijson.num_field e "t" with
        | Some _ -> ()
        | None -> fail file (where "missing t"));
        (match Minijson.num_field e "seq" with
        | Some s when s = float_of_int !idx -> ()
        | Some s ->
            fail file (where (Printf.sprintf "seq %g, expected %d" s !idx))
        | None -> fail file (where "missing seq"));
        events := e :: !events;
        incr idx
      end)
    lines;
  List.rev !events

let load dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    fail "." "bundle directory does not exist";
  let doc name validate =
    let root = parse_json name (read_file name (Filename.concat dir name)) in
    validate name root;
    root
  in
  let manifest = doc "manifest.json" validate_manifest in
  let trace = doc "trace.json" validate_trace in
  let metrics = doc "metrics.json" validate_metrics in
  let diag = doc "diag.json" validate_diag in
  let events =
    parse_events "convergence.jsonl"
      (read_file "convergence.jsonl" (Filename.concat dir "convergence.jsonl"))
  in
  { dir; manifest; trace; metrics; diag; events }

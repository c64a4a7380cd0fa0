(* One hub owning the trace collector and the metrics registry plus the
   event log. The mutex only guards the log's cons + sequence bump — a
   few instructions — and is taken exclusively on the enabled path; the
   [None] path is a single match, with no clock read. *)

(* The collectors are stored as the options their recording calls
   take, always [Some], so that a fan-out allocates nothing of its own;
   [buf] is the tracer's main-domain buffer. *)
type t = {
  buf : Trace.buf option;
  m : Metrics.t option;
  origin : float;
  mutex : Mutex.t;
  mutable seq : int;
  mutable log : Minijson.t list;  (* newest first *)
}

let of_metrics metrics =
  {
    buf = Some (Trace.main (Trace.create ()));
    m = Some metrics;
    origin = Clock.now ();
    mutex = Mutex.create ();
    seq = 0;
    log = [];
  }

let create () = of_metrics (Metrics.create ())
let tracer t = Trace.owner (Option.get t.buf)
let metrics t = Option.get t.m

let record t kind fields =
  let ts = Clock.now () -. t.origin in
  Mutex.lock t.mutex;
  let seq = t.seq in
  t.seq <- seq + 1;
  t.log <-
    Minijson.Obj
      (("type", Minijson.Str kind)
      :: ("seq", Minijson.Num (float_of_int seq))
      :: ("t", Minijson.Num ts)
      :: fields)
    :: t.log;
  Mutex.unlock t.mutex

let rcond o ~site estimate x =
  match o with
  | None -> ()
  | Some t ->
      record t "rcond"
        [ ("site", Minijson.Str site); ("value", Minijson.Num (estimate x)) ]

let stage o name f =
  match o with
  | None -> f ()
  | Some t ->
      record t "stage" [ ("name", Minijson.Str name) ];
      Trace.span t.buf name f

let span o ?args name f =
  match o with None -> f () | Some t -> Trace.span t.buf ?args name f

let add_args o args =
  match o with None -> () | Some t -> Trace.add_args t.buf args

let count o name n = match o with None -> () | Some t -> Metrics.add t.m name n

let observe o name v =
  match o with None -> () | Some t -> Metrics.observe t.m name v

let now_if = function None -> 0.0 | Some _ -> Clock.now ()

let observe_since_ns o name t0 =
  match o with None -> () | Some t -> Metrics.observe_since_ns t.m name t0

let note o name value =
  match o with
  | None -> ()
  | Some t ->
      record t "note"
        [ ("name", Minijson.Str name); ("value", Minijson.Str value) ]

let message kind o ~stage text =
  match o with
  | None -> ()
  | Some t ->
      record t kind
        [ ("stage", Minijson.Str stage); ("message", Minijson.Str text) ]

let warn = message "warning"
let error = message "error"

let poles_json poles =
  Minijson.Arr
    (Array.to_list
       (Array.map
          (fun (z : Complex.t) ->
            Minijson.Arr [ Minijson.Num z.Complex.re; Minijson.Num z.Complex.im ])
          poles))

let vf_iteration o ~label ~iteration ~sigma_rms ~d_tilde ~scale_spread ~flips
    poles =
  match o with
  | None -> ()
  | Some t ->
      record t "vf_iteration"
        [
          ("label", Minijson.Str label);
          ("pole_count", Minijson.Num (float_of_int (Array.length poles)));
          ("iteration", Minijson.Num (float_of_int iteration));
          ("sigma_rms", Minijson.Num sigma_rms);
          ("d_tilde", Minijson.Num d_tilde);
          ("scale_spread", Minijson.Num scale_spread);
          ("flips", Minijson.Num (float_of_int flips));
          ("poles", poles_json poles);
        ]

let vf_attempt o ~label ~pole_count ~rms ~tol ~accepted =
  match o with
  | None -> ()
  | Some t ->
      record t "vf_attempt"
        [
          ("label", Minijson.Str label);
          ("pole_count", Minijson.Num (float_of_int pole_count));
          ("rms", Minijson.Num rms);
          ("tol", Minijson.Num tol);
          ("accepted", Minijson.Bool accepted);
        ]

let vf_settled o ~label ~pole_count ~rms =
  match o with
  | None -> ()
  | Some t ->
      record t "vf_settled"
        [
          ("label", Minijson.Str label);
          ("pole_count", Minijson.Num (float_of_int pole_count));
          ("rms", Minijson.Num rms);
        ]

let escalation o ~rung ~outcome ~detail =
  match o with
  | None -> ()
  | Some t ->
      record t "escalation"
        [
          ("rung", Minijson.Str rung);
          ("outcome", Minijson.Str outcome);
          ("detail", Minijson.Str detail);
        ]

let violation o ~site detail =
  match o with
  | None -> ()
  | Some t ->
      record t "violation"
        [ ("site", Minijson.Str site); ("detail", Minijson.Str detail) ]

let checkpoint o ~stage ~action =
  match o with
  | None -> ()
  | Some t ->
      record t "checkpoint"
        [ ("stage", Minijson.Str stage); ("action", Minijson.Str action) ]

let cancelled o ~site =
  match o with
  | None -> ()
  | Some t -> record t "cancelled" [ ("site", Minijson.Str site) ]

let deadline o ~site ~stage ~budget_seconds ~elapsed_seconds =
  match o with
  | None -> ()
  | Some t ->
      record t "deadline"
        [
          ("site", Minijson.Str site);
          ("stage", Minijson.Str stage);
          ("budget_seconds", Minijson.Num budget_seconds);
          ("elapsed_seconds", Minijson.Num elapsed_seconds);
        ]

let quarantine o ~n_bad ~repaired ~dropped =
  match o with
  | None -> ()
  | Some t ->
      record t "quarantine"
        [
          ("n_bad", Minijson.Num (float_of_int n_bad));
          ("repaired", Minijson.Num (float_of_int repaired));
          ("dropped", Minijson.Num (float_of_int dropped));
        ]

let event_count t =
  Mutex.lock t.mutex;
  let n = t.seq in
  Mutex.unlock t.mutex;
  n

let events t =
  Mutex.lock t.mutex;
  let l = t.log in
  Mutex.unlock t.mutex;
  List.rev l

let counter t name =
  Option.value ~default:0
    (List.assoc_opt name (Metrics.snapshot (metrics t)).Metrics.counters)

let strings e keys = List.map (Minijson.str_field e) keys

let notes t =
  List.fold_left
    (fun rev e ->
      match strings e [ "type"; "name"; "value" ] with
      | [ Some "note"; Some name; Some value ] ->
          (* a re-noted name moves to the end *)
          (name, value) :: List.filter (fun (k, _) -> k <> name) rev
      | _ -> rev)
    [] (events t)
  |> List.rev

let messages t =
  List.filter_map
    (fun e ->
      match strings e [ "type"; "stage"; "message" ] with
      | [ Some "warning"; Some stage; Some message ] ->
          Some (`Warning, stage, message)
      | [ Some "error"; Some stage; Some message ] ->
          Some (`Error, stage, message)
      | _ -> None)
    (events t)

let convergence_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Minijson.emit e);
      Buffer.add_char buf '\n')
    (events t);
  Buffer.contents buf

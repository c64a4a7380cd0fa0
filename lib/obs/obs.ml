(* One hub owning the three classic collectors plus the algorithmic
   event log. The mutex only guards the log's cons + sequence bump —
   a few instructions — and is taken exclusively on the enabled path;
   the [None] path is a single match, with no clock read. *)

(* The collectors are stored as the options their recording calls
   take, always [Some], so that a fan-out allocates nothing of its own;
   [buf] is the tracer's main-domain buffer. *)
type t = {
  d : Diag.t option;
  buf : Trace.buf option;
  m : Metrics.t option;
  origin : float;
  mutex : Mutex.t;
  mutable seq : int;
  mutable log : Minijson.t list;  (* newest first *)
}

let of_metrics metrics =
  {
    d = Some (Diag.create ());
    buf = Some (Trace.main (Trace.create ()));
    m = Some metrics;
    origin = Clock.now ();
    mutex = Mutex.create ();
    seq = 0;
    log = [];
  }

let create () = of_metrics (Metrics.create ())
let diag t = Option.get t.d
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
      Diag.span t.d name (fun () -> Trace.span t.buf name f)

let span o ?args name f =
  match o with None -> f () | Some t -> Trace.span t.buf ?args name f

let add_args o args =
  match o with None -> () | Some t -> Trace.add_args t.buf args

let count ?only o name n =
  match o with
  | None -> ()
  | Some t ->
      if only <> Some `Metrics then Diag.add t.d name n;
      if only <> Some `Diag then Metrics.add t.m name n

let observe ?only o name v =
  match o with
  | None -> ()
  | Some t ->
      if only <> Some `Metrics then Diag.observe t.d name v;
      if only <> Some `Diag then Metrics.observe t.m name v

let now_if = function None -> 0.0 | Some _ -> Clock.now ()

let observe_since_ns o name t0 =
  match o with None -> () | Some t -> Metrics.observe_since_ns t.m name t0

let note o name value =
  match o with None -> () | Some t -> Diag.note t.d name value

let warn o ~stage message =
  match o with None -> () | Some t -> Diag.warn t.d ~stage message

let error o ~stage message =
  match o with None -> () | Some t -> Diag.error t.d ~stage message

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

let convergence_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Minijson.emit e);
      Buffer.add_char buf '\n')
    (events t);
  Buffer.contents buf

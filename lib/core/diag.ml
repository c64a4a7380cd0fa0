(* Cross-cutting extraction telemetry.

   A [t] is a mutable collector, owned by an [Obs] hub. Every recording
   entry point takes a [t option]; [None] recording is a no-op costing
   one branch.

   The collector survives exceptions: a stage that raises has still
   recorded its counters and events, so a failed extraction can be
   diagnosed from the report. *)

type level = Info | Warning | Error

type event = { level : level; stage : string; message : string }
type span = { stage : string; seconds : float }

type stat = {
  name : string;
  samples : int;
  total : float;
  min : float;
  max : float;
  last : float;
}

type report = {
  spans : span list;
  counters : (string * int) list;
  stats : stat list;
  events : event list;
  notes : (string * string) list;
}

type t = {
  mutable rev_spans : span list;
  counter_tbl : (string, int ref) Hashtbl.t;
  mutable counter_order : string list;  (* first-seen order, reversed *)
  stat_tbl : (string, stat ref) Hashtbl.t;
  mutable stat_order : string list;
  mutable rev_events : event list;
  mutable rev_notes : (string * string) list;
}

let create () =
  {
    rev_spans = [];
    counter_tbl = Hashtbl.create 16;
    counter_order = [];
    stat_tbl = Hashtbl.create 16;
    stat_order = [];
    rev_events = [];
    rev_notes = [];
  }

let add d name n =
  match d with
  | None -> ()
  | Some d -> begin
      match Hashtbl.find_opt d.counter_tbl name with
      | Some r -> r := !r + n
      | None ->
          Hashtbl.add d.counter_tbl name (ref n);
          d.counter_order <- name :: d.counter_order
    end

let observe d name v =
  match d with
  | None -> ()
  | Some d -> begin
      match Hashtbl.find_opt d.stat_tbl name with
      | Some r ->
          let s = !r in
          r :=
            {
              s with
              samples = s.samples + 1;
              total = s.total +. v;
              min = Float.min s.min v;
              max = Float.max s.max v;
              last = v;
            }
      | None ->
          Hashtbl.add d.stat_tbl name
            (ref { name; samples = 1; total = v; min = v; max = v; last = v });
          d.stat_order <- name :: d.stat_order
    end

let event d level ~stage message =
  match d with
  | None -> ()
  | Some d -> d.rev_events <- { level; stage; message } :: d.rev_events

let info d ~stage message = event d Info ~stage message
let warn d ~stage message = event d Warning ~stage message
let error d ~stage message = event d Error ~stage message

let note d name value =
  match d with
  | None -> ()
  | Some d ->
      (* latest value wins; a re-noted key moves to the end of the report *)
      d.rev_notes <-
        (name, value) :: List.filter (fun (k, _) -> k <> name) d.rev_notes

let span d stage f =
  match d with
  | None -> f ()
  | Some d ->
      let t0 = Clock.now () in
      let record () =
        d.rev_spans <- { stage; seconds = Clock.now () -. t0 } :: d.rev_spans
      in
      let r = try f () with e -> record (); raise e in
      record ();
      r

let mean (s : stat) = s.total /. float_of_int (Stdlib.max 1 s.samples)

let report d =
  {
    spans = List.rev d.rev_spans;
    counters =
      List.rev_map
        (fun name ->
          (name, match Hashtbl.find_opt d.counter_tbl name with
                 | Some r -> !r
                 | None -> 0))
        d.counter_order;
    stats =
      List.rev_map
        (fun name ->
          match Hashtbl.find_opt d.stat_tbl name with
          | Some r -> !r
          | None -> { name; samples = 0; total = 0.0; min = 0.0; max = 0.0; last = 0.0 })
        d.stat_order;
    events = List.rev d.rev_events;
    notes = List.rev d.rev_notes;
  }

let warnings r =
  List.filter (fun e -> e.level = Warning || e.level = Error) r.events

let has_errors r = List.exists (fun e -> e.level = Error) r.events

let counter r name =
  match List.assoc_opt name r.counters with Some n -> n | None -> 0

let find_note r name = List.assoc_opt name r.notes

let level_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

(* Cooperative cancellation and wall-clock deadlines for the extraction
   stack.

   A token threads through the layers exactly like [?obs]: every probe
   takes a [t option], [None] is a single branch with zero clock reads,
   and a token with no armed deadline costs one atomic load per probe.
   The clock is read only when at least one deadline scope is armed, so
   the established zero-clock-read discipline of the disabled paths is
   preserved (asserted in the test suite).

   Deadlines are structured as a stack of scopes: the whole run may
   carry one ([create ~deadline_seconds]), and each pipeline stage may
   push a tighter per-stage budget ([with_budget]). A probe that finds
   any scope expired raises the typed {!Deadline_exceeded} carrying the
   probe site, the owning scope's stage label and its budget — hangs
   become diagnosable, typed failures instead of wedged processes.

   Scopes are pushed and popped by the single domain structuring the
   run; pool workers only read them during a fan-out, which is strictly
   contained in the owning scope's lifetime, so no locking is needed
   beyond the cancellation flag's atomicity. *)

exception Cancelled of { site : string }

exception
  Deadline_exceeded of {
    site : string;  (** the probe that noticed *)
    stage : string;  (** the scope whose budget ran out *)
    budget_seconds : float;
    elapsed_seconds : float;
  }

let () =
  Printexc.register_printer (function
    | Cancelled { site } -> Some (Printf.sprintf "Cancelled at %s" site)
    | Deadline_exceeded { site; stage; budget_seconds; elapsed_seconds } ->
        Some
          (Printf.sprintf
             "Deadline_exceeded at %s: stage %s ran %.3fs against a %.3fs \
              budget"
             site stage elapsed_seconds budget_seconds)
    | _ -> None)

type scope = { stage : string; budget_seconds : float; expires : float }

type t = {
  flag : bool Atomic.t;
  mutable scopes : scope list;  (* innermost first *)
}

let create ?deadline_seconds () =
  let scopes =
    match deadline_seconds with
    | None -> []
    | Some s -> [ { stage = "run"; budget_seconds = s; expires = Clock.now () +. s } ]
  in
  { flag = Atomic.make false; scopes }

let cancel t = Atomic.set t.flag true

let cancel_requested = function
  | None -> false
  | Some t -> Atomic.get t.flag

let trip site (sc : scope) now =
  raise
    (Deadline_exceeded
       {
         site;
         stage = sc.stage;
         budget_seconds = sc.budget_seconds;
         elapsed_seconds = now -. (sc.expires -. sc.budget_seconds);
       })

let check t ~site =
  match t with
  | None -> ()
  | Some t -> (
      if Atomic.get t.flag then raise (Cancelled { site });
      match t.scopes with
      | [] -> ()
      | scopes ->
          (* the only clock read on any probe path, taken iff a deadline
             is armed *)
          let now = Clock.now () in
          List.iter (fun sc -> if now > sc.expires then trip site sc now) scopes)

let remaining = function
  | None -> Float.infinity
  | Some t -> (
      match t.scopes with
      | [] -> Float.infinity
      | scopes ->
          let now = Clock.now () in
          List.fold_left
            (fun acc sc -> Float.min acc (sc.expires -. now))
            Float.infinity scopes)

let with_budget t ~stage ?seconds f =
  match (t, seconds) with
  | None, _ | Some _, None -> f ()
  | Some t, Some s ->
      let sc = { stage; budget_seconds = s; expires = Clock.now () +. s } in
      t.scopes <- sc :: t.scopes;
      Fun.protect
        ~finally:(fun () ->
          t.scopes <- List.filter (fun x -> not (x == sc)) t.scopes)
        f

(* Simulated-hang helper for the hang-class fault sites ([tran.stall],
   [vf.spin], [exec.chunk_hang]): a cooperative spin that keeps hitting
   the cancellation probe — modelling a pathological loop that still
   reaches its iteration boundary — until the deadline reaps it. The
   hard cap turns an unreaped hang (no token, or no deadline armed)
   into a loud failure instead of wedging the process. *)
let hang_cap_seconds = 2.0

let hang t ~site =
  let t0 = Clock.now () in
  let rec spin () =
    check t ~site;
    if Clock.now () -. t0 > hang_cap_seconds then
      failwith
        (Printf.sprintf
           "%s: simulated hang not reaped within %.1fs (no deadline armed?)"
           site hang_cap_seconds)
    else begin
      Domain.cpu_relax ();
      spin ()
    end
  in
  spin ()

(* Deterministic, seeded fault injection for the extraction stack.

   The numerical layers carry named *probes* — one line at each place
   where a real-world failure would enter: a zero LU pivot, a NaN in a
   pencil solve, a diverging Newton iteration, a vector-fitting pole
   reflected into the right half plane, a burst of corrupted snapshots,
   a loop that stops making progress, a write torn by a crash.
   A probe is a call to {!should_fire} with its site name; with no plan
   armed it is a single load-and-branch, and the numerical path is
   bit-for-bit the uninstrumented one.

   Arming a plan selects one site and a deterministic firing schedule
   derived from a seed: the probe fires on its [fire_at]-th invocation
   and on the [burst - 1] invocations after it, then never again. Every
   run with the same seed injects the identical failure at the
   identical point in the computation, so recovery paths (guards,
   quarantine, the pipeline's escalation ladder, deadline reaping) can
   be exercised and asserted on in ordinary tests.

   Plans are a process-wide singleton list: arming is a test/CLI-harness
   action, never part of library behaviour. {!arm}/{!arm_exact} replace
   the whole list (the classic single-site chaos sweep); {!arm_also_exact}
   adds a second concurrent plan so a numeric fault can walk the
   escalation ladder while a hang-class fault parks a specific rung.
   A plan may further be restricted to a dynamic *scope* (the ladder
   labels its rungs via {!in_scope}), making "hang exactly in rung k"
   schedulable without counting probe invocations. [should_fire] takes
   a mutex only when its site matches an armed plan, so disarmed and
   mismatching probes stay contention-free even under the domain
   pool. *)

type kind = Numeric | Hang | Storage

type site = { name : string; where : string; what : string; kind : kind }

let sites =
  [
    {
      name = "lu.pivot_zero";
      where = "Linalg.Lu.factor_into";
      what =
        "zeroes the first pivot so the factorization raises Singular; probed \
         once per factorization, so the n-th invocation is the n-th \
         factorization: a Newton iteration that reuses its pencil does not \
         factor";
      kind = Numeric;
    };
    {
      name = "clu.pivot_zero";
      where = "Linalg.Clu.factor_into / Linalg.Hess.factor";
      what =
        "zeroes the first pencil pivot: the complex LU raises Singular, the \
         Hessenberg elimination sends its grid point to the complex LU";
      kind = Numeric;
    };
    {
      name = "dc.newton_diverge";
      where = "Engine.Dc.newton";
      what = "reports Newton divergence, forcing gmin stepping / fallback";
      kind = Numeric;
    };
    {
      name = "tran.newton_diverge";
      where = "Engine.Tran.run";
      what = "raises No_convergence for a transient step attempt";
      kind = Numeric;
    };
    {
      name = "ac.pencil_nan";
      where = "Engine.Ac.transfer_sweep";
      what = "writes NaN into a pencil-solve solution column after its certificate";
      kind = Numeric;
    };
    {
      name = "vf.pole_flip";
      where = "Vf.Vfit.fit";
      what = "reflects a relocated pole into the right half plane";
      kind = Numeric;
    };
    {
      name = "rvf.trace_nan";
      where = "Rvf.extract";
      what = "writes NaN into a residue coefficient trace";
      kind = Numeric;
    };
    {
      name = "dataset.snapshot_burst";
      where = "Tft.Dataset.of_snapshots";
      what = "corrupts a burst of consecutive snapshot transfer matrices";
      kind = Numeric;
    };
    {
      name = "tran.stall";
      where = "Engine.Tran.run";
      what = "parks a transient step in a cooperative spin until the deadline reaps it";
      kind = Hang;
    };
    {
      name = "vf.spin";
      where = "Vf.Vfit.fit";
      what = "parks a pole-relocation sweep in a cooperative spin until the deadline reaps it";
      kind = Hang;
    };
    {
      name = "exec.chunk_hang";
      where = "Exec.run_ws";
      what = "parks a fan-out chunk in a cooperative spin until the deadline reaps it";
      kind = Hang;
    };
    {
      name = "sp.singular";
      where = "Linalg.Splu.factor_into / Linalg.Spclu.factor_into";
      what =
        "zeroes the first sparse pivot so the factorization raises Singular; \
         probed once per factorization, so the n-th invocation is the n-th \
         factorization: a Newton iteration that reuses its pencil does not \
         factor";
      kind = Numeric;
    };
    {
      name = "krylov.stall";
      where = "Engine.Ratkrylov.pilot / Engine.Ratkrylov.sweep";
      what = "declares the rational-Krylov subspace stalled: a pilot returns no basis, a sweep degrades to per-point sparse solves";
      kind = Numeric;
    };
    {
      name = "checkpoint.torn_write";
      where = "Checkpoint.store";
      what = "truncates a checkpoint write in place, simulating a crash that defeats the atomic rename";
      kind = Storage;
    };
  ]

let site_names = List.map (fun s -> s.name) sites
let known name = List.mem name site_names

type plan = {
  plan_site : string;
  seed : int;
  fire_at : int;  (* 1-based probe-invocation index of the first firing *)
  burst : int;  (* number of consecutive firings *)
  plan_scope : string option;  (* fire (and count) only inside this scope *)
  mutable calls : int;
  mutable fires : int;
}

let current : plan list ref = ref []
let scope : string option ref = ref None
let lock = Mutex.create ()

let make_plan ~site ?scope:plan_scope ~seed ~fire_at ~burst () =
  if not (known site) then
    invalid_arg
      (Printf.sprintf "Fault.arm: unknown site %S (known: %s)" site
         (String.concat ", " site_names));
  if fire_at < 1 then invalid_arg "Fault.arm: fire_at must be >= 1";
  if burst < 0 then invalid_arg "Fault.arm: burst must be >= 0";
  { plan_site = site; seed; fire_at; burst; plan_scope; calls = 0; fires = 0 }

let arm_exact ~site ?scope ?(seed = 0) ~fire_at ~burst () =
  current := [ make_plan ~site ?scope ~seed ~fire_at ~burst () ]

let arm_also_exact ~site ?scope ?(seed = 0) ~fire_at ~burst () =
  let p = make_plan ~site ?scope ~seed ~fire_at ~burst () in
  current := p :: List.filter (fun q -> q.plan_site <> site) !current

(* the seed packs the schedule so one CLI integer selects both knobs:
   fire_at = 1 + (seed land 7), burst = 1 + ((seed lsr 3) land 7) *)
let schedule_of_seed seed = (1 + (seed land 7), 1 + ((seed lsr 3) land 7))

let arm ~site ?(seed = 0) () =
  let fire_at, burst = schedule_of_seed seed in
  arm_exact ~site ~seed ~fire_at ~burst ()

type stats = { site : string; calls : int; fires : int }

let stats_of p = { site = p.plan_site; calls = p.calls; fires = p.fires }

let stats () =
  match !current with [] -> None | p :: _ -> Some (stats_of p)

let stats_for site =
  List.find_map
    (fun p -> if p.plan_site = site then Some (stats_of p) else None)
    !current

let disarm () =
  let s = stats () in
  current := [];
  s

let armed () = match !current with [] -> None | p :: _ -> Some p.plan_site

let in_scope label f =
  let previous = !scope in
  scope := Some label;
  Fun.protect ~finally:(fun () -> scope := previous) f

let should_fire name =
  match !current with
  | [] -> false
  | plans -> (
      match List.find_opt (fun p -> String.equal p.plan_site name) plans with
      | None -> false
      | Some p -> (
          match p.plan_scope with
          | Some s when !scope <> Some s ->
              (* out of scope: neither fires nor counts, so the schedule
                 indexes invocations within the scope alone *)
              false
          | Some _ | None ->
              Mutex.lock lock;
              p.calls <- p.calls + 1;
              let fire = p.calls >= p.fire_at && p.calls < p.fire_at + p.burst in
              if fire then p.fires <- p.fires + 1;
              Mutex.unlock lock;
              fire))

(* "SITE" or "SITE:seed" *)
let parse spec =
  match String.index_opt spec ':' with
  | None -> (spec, 0)
  | Some i ->
      let site = String.sub spec 0 i in
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      let seed =
        match int_of_string_opt rest with
        | Some s when s >= 0 -> s
        | Some _ | None ->
            invalid_arg
              (Printf.sprintf
                 "Fault.parse: %S: seed must be a non-negative integer" spec)
      in
      (site, seed)

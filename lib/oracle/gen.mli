(** QCheck generators for the verification properties.

    Every generator is driven by a tiny {!seeded} record (a PRNG seed
    plus a structural size) so that QCheck's shrinking works on the
    integers — a failing case shrinks toward smaller structures and
    smaller seeds, and the printed [{seed; size}] pair reproduces the
    exact input deterministically. The structure builders below are
    pure functions of the record. *)

type seeded = { seed : int; size : int }

val arb : ?min_size:int -> ?max_size:int -> unit -> seeded QCheck.arbitrary
(** [size] uniform in [[min_size, max_size]] (defaults 1–4), seed in
    [[0, 10^6]]. Shrinks on both fields; prints the record. *)

val rand_state : seeded -> Random.State.t
(** The deterministic PRNG of a case. *)

val rational : seeded -> Ladder.rational
(** A random stable pole set in normalized layout — [size] units, each a
    conjugate pair or two real poles, magnitudes log-spaced with jitter
    across [10⁴–10⁷ rad/s] (so the sets are well separated and inside
    {!grid_hz}), damping bounded away from 0, always an even count —
    plus random self-conjugate residues scaled by each pole's magnitude
    (keeps [|H|] O(1) over the band). *)

val grid_hz : float array
(** The fixed fitting grid matching {!rational}'s band: 80 log-spaced
    points over 100 Hz – 10 MHz. *)

val rc_ladder : seeded -> Ladder.oracle
(** A random passive uniform RC ladder: [size] stages, R log-uniform in
    [100 Ω, 10 kΩ], C log-uniform in [0.1 nF, 10 nF]. *)

val rc_mesh :
  seeded -> Circuit.Netlist.t * string * Engine.Mna.output
(** A random rectangular RC resistor mesh ([(netlist, input, output)]):
    side lengths [size + 2 .. size + 3] (so shrinking walks toward small
    circuits), element values in the ladder's decade ranges, output at
    the far corner. Drives the sparse-vs-dense differential properties
    with genuinely 2-D sparsity patterns. *)

val rc_grid :
  seeded -> Circuit.Netlist.t * string * Engine.Mna.output
(** {!rc_mesh} with a grounded diode sprinkled at every 5th–7th node
    (seed-dependent stride): mildly nonlinear at scale, exercising the
    sparse Newton refill and per-snapshot relinearization paths. *)

val mixed_circuit : seeded -> Circuit.Netlist.t
(** A random netlist with every element kind (R, C, L, V, I, VCCS, VCVS,
    CCCS, diode, junction capacitance, NMOS and PMOS, NPN and PNP) in
    random order over 3–5 nodes, each kind once plus [size] more: linear
    elements stamp both before and after nonlinear ones on shared matrix
    entries. About a third of the names lack their kind letter, and
    device capacitances are sometimes zero. Sources are DC or zero-phase
    sines. Drives the stamp-program and netlist round-trip properties. *)

val mixed_state : Random.State.t -> Engine.Mna.t -> Linalg.Vec.t
(** A random state for a system: node voltages in [−1.5, 1.5] V, branch
    currents in [−1, 1] mA. *)

val residue_traces :
  ?traces:int -> seeded -> float array * Complex.t array array
(** [(xs, data)]: a 40-point state grid on [0, 1] and [traces] (default
    4) random rational residue trajectories sharing 1–2 random x-plane
    pole pairs [(β, α)], with centers inside [0, 1] and widths in
    [0.08, 0.45] (above the extractor's min-imag floor for a unit
    range) — data exactly inside the state-space VF model class, for
    fit-error-bound properties. *)

(** Constitutive equations of the nonlinear devices.

    All evaluations produce both the value and the partial derivatives
    needed for Newton iteration; the current equations are C¹ (limited
    exponentials, region-continuous square law) so the Jacobians seen by
    the solver are continuous.

    {b In place.} The MNA stamps evaluate a device in a caller-owned
    {!scratch}: they write the terminal voltages into it, call the
    device's function and read the results back. A record of floats
    stores them unboxed, so an evaluation allocates nothing, while a
    float passed to or returned from a call that is not inlined is boxed
    (this compiler has no flambda). The tuple functions ({!diode_iv},
    {!mosfet_ids}, {!junction_q}, {!bjt_currents}) are thin wrappers
    over the same functions, bit for bit. *)

val thermal_voltage : float
(** kT/q at 300 K, ≈ 25.852 mV. *)

type scratch = {
  mutable x1 : float;  (** in: first terminal voltage *)
  mutable x2 : float;  (** in: second terminal voltage *)
  mutable x3 : float;  (** in: third terminal voltage *)
  mutable f : float;  (** out: the first value *)
  mutable df1 : float;  (** out: ∂f/∂x1 *)
  mutable df2 : float;  (** out: ∂f/∂x2 *)
  mutable df3 : float;  (** out: ∂f/∂x3 *)
  mutable h : float;  (** out: the second value *)
  mutable dh1 : float;  (** out: ∂h/∂x1 *)
  mutable dh2 : float;  (** out: ∂h/∂x2 *)
  mutable dh3 : float;  (** out: ∂h/∂x3 *)
}
(** One device evaluation's inputs and outputs. Which fields a device
    reads and writes is given with its function; the others keep their
    values, and an evaluation may overwrite its own inputs. *)

val scratch : unit -> scratch
(** A zeroed scratch record. *)

val diode : Circuit.Netlist.diode_params -> scratch -> unit
(** At [x1 = vd], writes the current into [f] and di/dv into [df1].
    Beyond [x = vd/(n·Vt) > 40] the exponential is continued linearly,
    keeping current and conductance continuous. A parallel gmin of
    1e-12 S is included. *)

val diode_iv : Circuit.Netlist.diode_params -> float -> float * float
(** [diode_iv params vd] is [(i, di/dv)]: {!diode}. *)

val mosfet : Circuit.Netlist.polarity -> Circuit.Netlist.mos_params -> scratch -> unit
(** At [(x1, x2, x3) = (vd, vg, vs)], writes the current flowing into
    the drain terminal into [f] and its partials with respect to vd, vg
    and vs into [df1], [df2] and [df3]. Level-1 square law with
    channel-length modulation, automatic source/drain swap for reverse
    bias, and a small parallel drain–source leakage to keep the system
    matrix nonsingular when the device is off. *)

val mosfet_ids :
  Circuit.Netlist.polarity ->
  Circuit.Netlist.mos_params ->
  vd:float ->
  vg:float ->
  vs:float ->
  float * float * float * float
(** [mosfet_ids pol p ~vd ~vg ~vs] is [(id, did_dvd, did_dvg, did_dvs)]:
    {!mosfet}. *)

val junction : Circuit.Netlist.junction_params -> scratch -> unit
(** At [x1 = v], writes the charge of a graded junction capacitance
    into [f] and dq/dv into [df1]; linearized above [v = 0.5·phi]
    (SPICE [fc] convention). *)

val junction_q : Circuit.Netlist.junction_params -> float -> float * float
(** [junction_q params v] is [(q, dq/dv)]: {!junction}. *)

val bjt : Circuit.Netlist.bjt_polarity -> Circuit.Netlist.bjt_params -> scratch -> unit
(** At [(x1, x2, x3) = (vc, vb, ve)], writes the current into the
    collector into [f] and the current into the base into [h], each with
    its partials with respect to vc, vb and ve ([df1..df3], [dh1..dh3]).
    Transport-formulation Ebers–Moll with the same limited exponential
    as the diode; the emitter current is [−(f + h)]. *)

(** Partial-derivative bundle of an Ebers–Moll BJT evaluation. *)
type bjt_eval = {
  ic : float;  (** current into the collector *)
  ib : float;  (** current into the base *)
  dic_dvc : float;
  dic_dvb : float;
  dic_dve : float;
  dib_dvc : float;
  dib_dvb : float;
  dib_dve : float;
}

val bjt_currents :
  Circuit.Netlist.bjt_polarity ->
  Circuit.Netlist.bjt_params ->
  vc:float ->
  vb:float ->
  ve:float ->
  bjt_eval
(** {!bjt} as a fresh record. *)

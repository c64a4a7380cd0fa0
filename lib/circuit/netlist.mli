(** Circuit netlists: typed components on named nodes.

    Node ["0"] (alias ["gnd"]) is the ground reference. All device
    constitutive relations live in {!Device}; this module is pure data. *)

type node = string

(** Time-dependent source description. *)
type wave =
  | Dc of float
  | Sine of { offset : float; ampl : float; freq : float; phase : float }
  | Pulse of {
      low : float;
      high : float;
      delay : float;
      rise : float;
      width : float;
      period : float;
    }
  | Pwl of (float * float) list
  | Bits of {
      low : float;
      high : float;
      rate : float;
      rise : float;
      bits : bool array;
    }
  | Ext of (float -> float)  (** programmatic source; not printable *)

type polarity = Nmos | Pmos

(** Level-1 (Shichman–Hodges) MOSFET parameters. [kp] is the
    transconductance parameter (µ·Cox, A/V²); the device current scales
    with [w /. l]. Capacitances are lumped constants. *)
type mos_params = {
  kp : float;
  vth : float;  (** threshold; positive for NMOS, given as positive for PMOS too *)
  lambda : float;  (** channel-length modulation, 1/V *)
  w : float;
  l : float;
  cgs : float;
  cgd : float;
  cdb : float;
}

type diode_params = {
  i_sat : float;
  ideality : float;
  cj : float;  (** fixed junction capacitance; 0 for none *)
}

type junction_params = {
  cj0 : float;  (** zero-bias capacitance *)
  phi : float;  (** built-in potential *)
  m : float;  (** grading coefficient *)
}

type bjt_polarity = Npn | Pnp

(** Ebers–Moll (transport formulation) bipolar transistor parameters. *)
type bjt_params = {
  is_bjt : float;  (** transport saturation current *)
  bf : float;  (** forward beta *)
  br : float;  (** reverse beta *)
  cje : float;  (** base–emitter capacitance (constant) *)
  cjc : float;  (** base–collector capacitance (constant) *)
}

type element =
  | Resistor of { p : node; n : node; ohms : float }
  | Capacitor of { p : node; n : node; farads : float }
  | Inductor of { p : node; n : node; henries : float }
  | Vsource of { p : node; n : node; wave : wave }
  | Isource of { p : node; n : node; wave : wave }
  | Vccs of { p : node; n : node; cp : node; cn : node; gm : float }
  | Vcvs of { p : node; n : node; cp : node; cn : node; gain : float }
      (** ideal voltage amplifier; adds one branch current unknown *)
  | Cccs of { p : node; n : node; vname : string; gain : float }
      (** current amplifier controlled by the current through the named
          voltage source *)
  | Diode of { p : node; n : node; params : diode_params }
  | Junction_cap of { p : node; n : node; params : junction_params }
  | Mosfet of {
      d : node;
      g : node;
      s : node;
      pol : polarity;
      params : mos_params;
    }
  | Bjt of {
      c : node;
      b : node;
      e : node;
      pol : bjt_polarity;
      params : bjt_params;
    }

type component = { name : string; element : element }

type t = { components : component list }

val ground : node
val is_ground : node -> bool

(** {2 Smart constructors} *)

val resistor : name:string -> node -> node -> float -> component
val capacitor : name:string -> node -> node -> float -> component
val inductor : name:string -> node -> node -> float -> component
val vsource : name:string -> node -> node -> wave -> component
val isource : name:string -> node -> node -> wave -> component
val vccs : name:string -> node -> node -> cp:node -> cn:node -> gm:float -> component
val vcvs : name:string -> node -> node -> cp:node -> cn:node -> gain:float -> component
val cccs : name:string -> node -> node -> vname:string -> gain:float -> component
val diode : name:string -> ?params:diode_params -> node -> node -> unit -> component
val junction_cap :
  name:string -> ?params:junction_params -> node -> node -> unit -> component

val mosfet :
  name:string -> d:node -> g:node -> s:node -> polarity -> mos_params -> component

val bjt :
  name:string -> c:node -> b:node -> e:node -> bjt_polarity -> bjt_params ->
  component

val default_diode : diode_params
val default_junction : junction_params
val default_nmos : mos_params
(** A representative short-channel-ish NMOS: kp=200µ, vth=0.4 V,
    λ=0.1 /V, W/L = 10µ/0.13µ, small fixed capacitances. *)

val default_pmos : mos_params
val default_npn : bjt_params
val default_pnp : bjt_params

(** {2 Assembly and queries} *)

val make : component list -> t
(** Validates: unique names, at least one ground connection, positive
    element values where required. Raises [Invalid_argument] otherwise. *)

val nodes : t -> node list
(** All non-ground nodes, sorted, deduplicated. *)

val component_count : t -> int
val find : t -> string -> component option
val wave_to_source : wave -> Signal.Source.t
val pp : Format.formatter -> t -> unit
(** Netlist text that {!Circuit.Parser.parse_string} reads back to the
    same circuit: every parameter is printed, values at [%.17g] (which
    reads back as the same float), and a name that does not start with
    its kind letter gets that letter prefixed, a CCCS's reference
    included, since the parser dispatches on the first letter. Two
    things do not round-trip: a sine's phase, printed in degrees and so
    possibly moved in its last bits, and [Ext] waves, which have no
    text. *)

type node = string

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
  | Ext of (float -> float)

type polarity = Nmos | Pmos

type mos_params = {
  kp : float;
  vth : float;
  lambda : float;
  w : float;
  l : float;
  cgs : float;
  cgd : float;
  cdb : float;
}

type diode_params = { i_sat : float; ideality : float; cj : float }
type junction_params = { cj0 : float; phi : float; m : float }
type bjt_polarity = Npn | Pnp

type bjt_params = {
  is_bjt : float;
  bf : float;
  br : float;
  cje : float;
  cjc : float;
}

type element =
  | Resistor of { p : node; n : node; ohms : float }
  | Capacitor of { p : node; n : node; farads : float }
  | Inductor of { p : node; n : node; henries : float }
  | Vsource of { p : node; n : node; wave : wave }
  | Isource of { p : node; n : node; wave : wave }
  | Vccs of { p : node; n : node; cp : node; cn : node; gm : float }
  | Vcvs of { p : node; n : node; cp : node; cn : node; gain : float }
  | Cccs of { p : node; n : node; vname : string; gain : float }
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

let ground = "0"
let is_ground n = n = "0" || String.lowercase_ascii n = "gnd"

let positive what x =
  if x <= 0.0 || not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "Netlist: %s must be positive (got %g)" what x)

let resistor ~name p n ohms =
  positive (name ^ " resistance") ohms;
  { name; element = Resistor { p; n; ohms } }

let capacitor ~name p n farads =
  positive (name ^ " capacitance") farads;
  { name; element = Capacitor { p; n; farads } }

let inductor ~name p n henries =
  positive (name ^ " inductance") henries;
  { name; element = Inductor { p; n; henries } }

let vsource ~name p n wave = { name; element = Vsource { p; n; wave } }
let isource ~name p n wave = { name; element = Isource { p; n; wave } }

let vccs ~name p n ~cp ~cn ~gm = { name; element = Vccs { p; n; cp; cn; gm } }
let vcvs ~name p n ~cp ~cn ~gain = { name; element = Vcvs { p; n; cp; cn; gain } }
let cccs ~name p n ~vname ~gain = { name; element = Cccs { p; n; vname; gain } }

let default_diode = { i_sat = 1e-14; ideality = 1.0; cj = 0.0 }
let default_junction = { cj0 = 1e-12; phi = 0.7; m = 0.5 }

let default_nmos =
  {
    kp = 200e-6;
    vth = 0.4;
    lambda = 0.1;
    w = 10e-6;
    l = 0.13e-6;
    cgs = 10e-15;
    cgd = 3e-15;
    cdb = 5e-15;
  }

let default_pmos = { default_nmos with kp = 80e-6; vth = 0.45 }

let default_npn =
  { is_bjt = 1e-15; bf = 100.0; br = 2.0; cje = 50e-15; cjc = 20e-15 }

let default_pnp = { default_npn with bf = 50.0 }

let diode ~name ?(params = default_diode) p n () =
  { name; element = Diode { p; n; params } }

let junction_cap ~name ?(params = default_junction) p n () =
  { name; element = Junction_cap { p; n; params } }

let mosfet ~name ~d ~g ~s pol params =
  positive (name ^ " kp") params.kp;
  positive (name ^ " W") params.w;
  positive (name ^ " L") params.l;
  { name; element = Mosfet { d; g; s; pol; params } }

let bjt ~name ~c ~b ~e pol params =
  positive (name ^ " IS") params.is_bjt;
  positive (name ^ " BF") params.bf;
  positive (name ^ " BR") params.br;
  { name; element = Bjt { c; b; e; pol; params } }

let element_nodes = function
  | Resistor { p; n; _ }
  | Capacitor { p; n; _ }
  | Inductor { p; n; _ }
  | Vsource { p; n; _ }
  | Isource { p; n; _ }
  | Diode { p; n; _ }
  | Junction_cap { p; n; _ } -> [ p; n ]
  | Vccs { p; n; cp; cn; _ } | Vcvs { p; n; cp; cn; _ } -> [ p; n; cp; cn ]
  | Cccs { p; n; _ } -> [ p; n ]
  | Mosfet { d; g; s; _ } -> [ d; g; s ]
  | Bjt { c; b; e; _ } -> [ c; b; e ]

let make components =
  if components = [] then invalid_arg "Netlist.make: empty circuit";
  let seen = Hashtbl.create 16 in
  List.iter
    (fun c ->
      if Hashtbl.mem seen c.name then
        invalid_arg (Printf.sprintf "Netlist.make: duplicate component %S" c.name);
      Hashtbl.add seen c.name ())
    components;
  let touches_ground =
    List.exists
      (fun c -> List.exists is_ground (element_nodes c.element))
      components
  in
  if not touches_ground then
    invalid_arg "Netlist.make: no component is connected to ground";
  { components }

let nodes t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun c ->
      List.iter
        (fun n -> if not (is_ground n) then Hashtbl.replace tbl n ())
        (element_nodes c.element))
    t.components;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

let component_count t = List.length t.components
let find t name = List.find_opt (fun c -> c.name = name) t.components

let wave_to_source = function
  | Dc v -> Signal.Source.dc v
  | Sine { offset; ampl; freq; phase } ->
      Signal.Source.sine ~offset ~phase ~freq ~ampl ()
  | Pulse { low; high; delay; rise; width; period } ->
      Signal.Source.pulse ~t0:delay ~rise ~low ~high ~width ~period ()
  | Pwl pts -> Signal.Source.pwl pts
  | Bits { low; high; rate; rise; bits } ->
      Signal.Source.bit_pattern ~rise ~bits ~rate ~low ~high ()
  | Ext f -> f

(* Values print at round-trip precision: [%.17g] reads back as the same
   float. A sine's phase is radians here and degrees in the text, so it
   alone may move in its last bits. *)
let pp_wave ppf = function
  | Dc v -> Format.fprintf ppf "DC %.17g" v
  | Sine { offset; ampl; freq; phase } ->
      Format.fprintf ppf "SIN(%.17g %.17g %.17g 0 0 %.17g)" offset ampl freq
        (phase *. 180.0 /. Float.pi)
  | Pulse { low; high; delay; rise; width; period } ->
      Format.fprintf ppf "PULSE(%.17g %.17g %.17g %.17g %.17g %.17g %.17g)" low
        high delay rise rise width period
  | Pwl pts ->
      Format.fprintf ppf "PWL(";
      List.iter (fun (t, v) -> Format.fprintf ppf "%.17g %.17g " t v) pts;
      Format.fprintf ppf ")"
  | Bits { low; high; rate; rise; bits } ->
      Format.fprintf ppf "BITS(%.17g %.17g %.17g %.17g " low high rate rise;
      Array.iter (fun b -> Format.pp_print_char ppf (if b then '1' else '0')) bits;
      Format.fprintf ppf ")"
  | Ext _ -> Format.fprintf ppf "EXT(<fun>)"

(* the letter a netlist line's kind is read from *)
let kind_letter = function
  | Resistor _ -> 'R'
  | Capacitor _ -> 'C'
  | Inductor _ -> 'L'
  | Vsource _ -> 'V'
  | Isource _ -> 'I'
  | Vccs _ -> 'G'
  | Vcvs _ -> 'E'
  | Cccs _ -> 'F'
  | Diode _ -> 'D'
  | Junction_cap _ -> 'J'
  | Mosfet _ -> 'M'
  | Bjt _ -> 'Q'

(* the name as printed: prefixed with its kind letter when it does not
   start with it, as the buffer's junction capacitances [Qj…] do not *)
let printed_name { name; element } =
  let k = kind_letter element in
  if name <> "" && Char.uppercase_ascii name.[0] = k then name
  else String.make 1 k ^ name

(* [name_of] maps a CCCS's controlling element to its printed name *)
let pp_component name_of ppf ({ element; _ } as c) =
  let name = printed_name c in
  match element with
  | Resistor { p; n; ohms } -> Format.fprintf ppf "%s %s %s %.17g" name p n ohms
  | Capacitor { p; n; farads } ->
      Format.fprintf ppf "%s %s %s %.17g" name p n farads
  | Inductor { p; n; henries } ->
      Format.fprintf ppf "%s %s %s %.17g" name p n henries
  | Vsource { p; n; wave } ->
      Format.fprintf ppf "%s %s %s %a" name p n pp_wave wave
  | Isource { p; n; wave } ->
      Format.fprintf ppf "%s %s %s %a" name p n pp_wave wave
  | Vccs { p; n; cp; cn; gm } ->
      Format.fprintf ppf "%s %s %s %s %s %.17g" name p n cp cn gm
  | Vcvs { p; n; cp; cn; gain } ->
      Format.fprintf ppf "%s %s %s %s %s %.17g" name p n cp cn gain
  | Cccs { p; n; vname; gain } ->
      Format.fprintf ppf "%s %s %s %s %.17g" name p n (name_of vname) gain
  | Diode { p; n; params } ->
      Format.fprintf ppf "%s %s %s IS=%.17g N=%.17g CJ=%.17g" name p n
        params.i_sat params.ideality params.cj
  | Junction_cap { p; n; params } ->
      Format.fprintf ppf "%s %s %s CJ0=%.17g PHI=%.17g M=%.17g" name p n
        params.cj0 params.phi params.m
  | Mosfet { d; g; s; pol; params } ->
      Format.fprintf ppf
        "%s %s %s %s %s KP=%.17g VTH=%.17g LAMBDA=%.17g W=%.17g L=%.17g \
         CGS=%.17g CGD=%.17g CDB=%.17g"
        name d g s
        (match pol with Nmos -> "NMOS" | Pmos -> "PMOS")
        params.kp params.vth params.lambda params.w params.l params.cgs
        params.cgd params.cdb
  | Bjt { c; b; e; pol; params } ->
      Format.fprintf ppf
        "%s %s %s %s %s IS=%.17g BF=%.17g BR=%.17g CJE=%.17g CJC=%.17g" name c
        b e
        (match pol with Npn -> "NPN" | Pnp -> "PNP")
        params.is_bjt params.bf params.br params.cje params.cjc

let pp ppf t =
  let name_of vname =
    match find t vname with Some c -> printed_name c | None -> vname
  in
  Format.fprintf ppf "@[<v>";
  List.iter (fun c -> Format.fprintf ppf "%a@," (pp_component name_of) c) t.components;
  Format.fprintf ppf "@]"

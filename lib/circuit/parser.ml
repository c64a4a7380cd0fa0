exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun msg -> raise (Parse_error (line, msg))) fmt

(* Tokenize a component line: split on whitespace, but keep parenthesized
   argument groups like SIN(0 1 1e6) as a single token. *)
let tokenize line_no s =
  let n = String.length s in
  let tokens = ref [] in
  let buf = Buffer.create 16 in
  let depth = ref 0 in
  let flush () =
    if Buffer.length buf > 0 then begin
      tokens := Buffer.contents buf :: !tokens;
      Buffer.clear buf
    end
  in
  String.iteri
    (fun _k c ->
      match c with
      | '(' ->
          incr depth;
          Buffer.add_char buf c
      | ')' ->
          decr depth;
          if !depth < 0 then fail line_no "unbalanced ')'";
          Buffer.add_char buf c
      | ' ' | '\t' when !depth = 0 -> flush ()
      | _ -> Buffer.add_char buf c)
    s;
  ignore n;
  if !depth <> 0 then fail line_no "unbalanced '('";
  flush ();
  List.rev !tokens

let number line_no s =
  match Units.parse s with
  | Some v -> v
  | None -> fail line_no "bad numeric value %S" s

(* Parse KEY=value assignments into an association list. *)
let parse_assigns line_no toks =
  List.map
    (fun t ->
      match String.index_opt t '=' with
      | Some k ->
          let key = String.uppercase_ascii (String.sub t 0 k) in
          let v = String.sub t (k + 1) (String.length t - k - 1) in
          (key, v)
      | None -> fail line_no "expected KEY=value, got %S" t)
    toks

let assign_float line_no assigns key default =
  match List.assoc_opt key assigns with
  | Some v -> number line_no v
  | None -> default

(* Parse a wave token sequence, e.g. ["DC"; "1.5"] or ["SIN(0 1 1e6)"]. *)
let parse_wave line_no toks =
  let inner tok prefix =
    let plen = String.length prefix in
    if
      String.length tok > plen + 1
      && String.uppercase_ascii (String.sub tok 0 plen) = prefix
      && tok.[plen] = '('
      && tok.[String.length tok - 1] = ')'
    then
      Some
        (String.sub tok (plen + 1) (String.length tok - plen - 2)
        |> String.split_on_char ' '
        |> List.filter (fun s -> s <> ""))
    else None
  in
  match toks with
  | [ "DC"; v ] | [ "dc"; v ] -> Netlist.Dc (number line_no v)
  | [ v ] when Units.parse v <> None && String.index_opt v '(' = None ->
      Netlist.Dc (number line_no v)
  | [ tok ] -> begin
      match inner tok "SIN" with
      | Some args -> begin
          let f = number line_no in
          match args with
          | [ off; ampl; freq ] ->
              Netlist.Sine { offset = f off; ampl = f ampl; freq = f freq; phase = 0.0 }
          | [ off; ampl; freq; _delay; _damp; phase ] ->
              Netlist.Sine
                {
                  offset = f off;
                  ampl = f ampl;
                  freq = f freq;
                  phase = f phase *. Float.pi /. 180.0;
                }
          | _ -> fail line_no "SIN expects 3 or 6 arguments"
        end
      | None -> begin
          match inner tok "PULSE" with
          | Some args -> begin
              let f = number line_no in
              match args with
              | [ low; high; delay; rise; _fall; width; period ] ->
                  Netlist.Pulse
                    {
                      low = f low;
                      high = f high;
                      delay = f delay;
                      rise = f rise;
                      width = f width;
                      period = f period;
                    }
              | _ -> fail line_no "PULSE expects 7 arguments"
            end
          | None -> begin
              match inner tok "PWL" with
              | Some args ->
                  let vals = List.map (number line_no) args in
                  let rec pair = function
                    | [] -> []
                    | t :: v :: rest -> (t, v) :: pair rest
                    | [ _ ] -> fail line_no "PWL expects an even argument count"
                  in
                  Netlist.Pwl (pair vals)
              | None -> begin
                  match inner tok "BITS" with
                  | Some [ low; high; rate; rise; pattern ] ->
                      let bits =
                        Array.init (String.length pattern) (fun k ->
                            match pattern.[k] with
                            | '0' -> false
                            | '1' -> true
                            | c -> fail line_no "bad bit %C in BITS pattern" c)
                      in
                      Netlist.Bits
                        {
                          low = number line_no low;
                          high = number line_no high;
                          rate = number line_no rate;
                          rise = number line_no rise;
                          bits;
                        }
                  | Some _ -> fail line_no "BITS expects 5 arguments"
                  | None -> fail line_no "unrecognized source wave %S" tok
                end
            end
        end
    end
  | _ -> fail line_no "unrecognized source specification"

let parse_component line_no toks =
  match toks with
  | [] -> None
  | name :: rest ->
      let kind = Char.uppercase_ascii name.[0] in
      let comp =
        match (kind, rest) with
        | 'R', [ p; n; v ] -> Netlist.resistor ~name p n (number line_no v)
        | 'C', [ p; n; v ] -> Netlist.capacitor ~name p n (number line_no v)
        | 'L', [ p; n; v ] -> Netlist.inductor ~name p n (number line_no v)
        | 'V', p :: n :: wave -> Netlist.vsource ~name p n (parse_wave line_no wave)
        | 'I', p :: n :: wave -> Netlist.isource ~name p n (parse_wave line_no wave)
        | 'G', [ p; n; cp; cn; gm ] ->
            Netlist.vccs ~name p n ~cp ~cn ~gm:(number line_no gm)
        | 'E', [ p; n; cp; cn; gain ] ->
            Netlist.vcvs ~name p n ~cp ~cn ~gain:(number line_no gain)
        | 'F', [ p; n; vname; gain ] ->
            Netlist.cccs ~name p n ~vname ~gain:(number line_no gain)
        | 'D', p :: n :: assigns ->
            let kv = parse_assigns line_no assigns in
            let d = Netlist.default_diode in
            let params =
              {
                Netlist.i_sat = assign_float line_no kv "IS" d.Netlist.i_sat;
                ideality = assign_float line_no kv "N" d.Netlist.ideality;
                cj = assign_float line_no kv "CJ" d.Netlist.cj;
              }
            in
            Netlist.diode ~name ~params p n ()
        | 'J', p :: n :: assigns ->
            let kv = parse_assigns line_no assigns in
            let d = Netlist.default_junction in
            let params =
              {
                Netlist.cj0 = assign_float line_no kv "CJ0" d.Netlist.cj0;
                phi = assign_float line_no kv "PHI" d.Netlist.phi;
                m = assign_float line_no kv "M" d.Netlist.m;
              }
            in
            Netlist.junction_cap ~name ~params p n ()
        | 'Q', c :: b :: e :: pol :: assigns ->
            let polarity =
              match String.uppercase_ascii pol with
              | "NPN" -> Netlist.Npn
              | "PNP" -> Netlist.Pnp
              | other -> fail line_no "expected NPN or PNP, got %S" other
            in
            let base =
              match polarity with
              | Netlist.Npn -> Netlist.default_npn
              | Netlist.Pnp -> Netlist.default_pnp
            in
            let kv = parse_assigns line_no assigns in
            let params =
              {
                Netlist.is_bjt = assign_float line_no kv "IS" base.Netlist.is_bjt;
                bf = assign_float line_no kv "BF" base.Netlist.bf;
                br = assign_float line_no kv "BR" base.Netlist.br;
                cje = assign_float line_no kv "CJE" base.Netlist.cje;
                cjc = assign_float line_no kv "CJC" base.Netlist.cjc;
              }
            in
            Netlist.bjt ~name ~c ~b ~e polarity params
        | 'M', d :: g :: s :: pol :: assigns ->
            let polarity =
              match String.uppercase_ascii pol with
              | "NMOS" -> Netlist.Nmos
              | "PMOS" -> Netlist.Pmos
              | other -> fail line_no "expected NMOS or PMOS, got %S" other
            in
            let base =
              match polarity with
              | Netlist.Nmos -> Netlist.default_nmos
              | Netlist.Pmos -> Netlist.default_pmos
            in
            let kv = parse_assigns line_no assigns in
            let params =
              {
                Netlist.kp = assign_float line_no kv "KP" base.Netlist.kp;
                vth = assign_float line_no kv "VTH" base.Netlist.vth;
                lambda = assign_float line_no kv "LAMBDA" base.Netlist.lambda;
                w = assign_float line_no kv "W" base.Netlist.w;
                l = assign_float line_no kv "L" base.Netlist.l;
                cgs = assign_float line_no kv "CGS" base.Netlist.cgs;
                cgd = assign_float line_no kv "CGD" base.Netlist.cgd;
                cdb = assign_float line_no kv "CDB" base.Netlist.cdb;
              }
            in
            Netlist.mosfet ~name ~d ~g ~s polarity params
        | _ -> fail line_no "cannot parse component line starting with %S" name
      in
      Some comp

let parse_string text =
  let raw_lines = String.split_on_char '\n' text in
  (* join continuation lines (leading '+') onto their predecessor *)
  let joined =
    List.fold_left
      (fun acc (line_no, line) ->
        let trimmed = String.trim line in
        if String.length trimmed > 0 && trimmed.[0] = '+' then begin
          match acc with
          | (n0, prev) :: rest ->
              (n0, prev ^ " " ^ String.sub trimmed 1 (String.length trimmed - 1))
              :: rest
          | [] -> raise (Parse_error (line_no, "continuation with no previous line"))
        end
        else (line_no, trimmed) :: acc)
      []
      (List.mapi (fun k l -> (k + 1, l)) raw_lines)
    |> List.rev
  in
  let components =
    List.filter_map
      (fun (line_no, line) ->
        if line = "" || line.[0] = '*' then None
        else if line.[0] = '.' then begin
          match String.lowercase_ascii line with
          | ".end" | ".ends" -> None
          | _ -> fail line_no "unsupported directive %S" line
        end
        else
          (* the constructors validate values (a zero resistor, a
             negative capacitor); their complaint is this line's error *)
          try parse_component line_no (tokenize line_no line)
          with Invalid_argument msg -> fail line_no "%s" msg)
      joined
  in
  (* whole-circuit checks (empty, duplicate names, no ground) have no
     single line: they are reported at the last non-blank one *)
  try Netlist.make components
  with Invalid_argument msg ->
    let last =
      List.fold_left (fun l (n, t) -> if t = "" then l else n) 1 joined
    in
    fail last "%s" msg

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_string text

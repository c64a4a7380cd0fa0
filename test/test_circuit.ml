(* Tests for units, netlist construction/validation and the parser. *)

let check_float = Alcotest.(check (float 1e-12))

(* ---------------- Units ---------------- *)

let parse s = Circuit.Units.parse_exn s

let test_units_plain () =
  check_float "int" 42.0 (parse "42");
  check_float "float" 2.5 (parse "2.5");
  check_float "exp" 2.5e9 (parse "2.5e9");
  check_float "neg" (-3.0) (parse "-3")

let test_units_suffixes () =
  check_float "k" 4700.0 (parse "4.7k");
  check_float "meg" 1e6 (parse "1meg");
  check_float "m" 1e-3 (parse "1m");
  check_float "u" 1e-6 (parse "1u");
  check_float "n" 1e-9 (parse "1n");
  check_float "p" 1e-12 (parse "1p");
  check_float "f" 1e-15 (parse "1f");
  check_float "g" 1e9 (parse "1g");
  check_float "t" 1e12 (parse "1t")

let test_units_trailing () =
  check_float "pF" 10e-12 (parse "10pF");
  check_float "kOhm" 1e3 (parse "1kOhm");
  check_float "volts" 10.0 (parse "10V")

let test_units_bad () =
  Alcotest.(check bool) "garbage" true (Circuit.Units.parse "abc" = None);
  Alcotest.(check bool) "empty" true (Circuit.Units.parse "" = None)

let test_units_format () =
  Alcotest.(check string) "pico" "2.2p" (Circuit.Units.format_si 2.2e-12);
  Alcotest.(check string) "kilo" "4.7k" (Circuit.Units.format_si 4.7e3);
  Alcotest.(check string) "zero" "0" (Circuit.Units.format_si 0.0)

(* ---------------- Netlist ---------------- *)

let test_netlist_validation_duplicate () =
  Alcotest.(check bool) "duplicate name rejected" true
    (match
       Circuit.Netlist.make
         [
           Circuit.Netlist.resistor ~name:"R1" "a" "0" 1.0;
           Circuit.Netlist.resistor ~name:"R1" "b" "0" 2.0;
         ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_netlist_validation_ground () =
  Alcotest.(check bool) "floating circuit rejected" true
    (match
       Circuit.Netlist.make [ Circuit.Netlist.resistor ~name:"R1" "a" "b" 1.0 ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_netlist_validation_value () =
  Alcotest.(check bool) "negative resistance rejected" true
    (match Circuit.Netlist.resistor ~name:"R1" "a" "0" (-5.0) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_netlist_nodes () =
  let nl =
    Circuit.Netlist.make
      [
        Circuit.Netlist.resistor ~name:"R1" "b" "a" 1.0;
        Circuit.Netlist.capacitor ~name:"C1" "a" "0" 1e-12;
      ]
  in
  Alcotest.(check (list string)) "sorted nodes" [ "a"; "b" ] (Circuit.Netlist.nodes nl)

let test_netlist_ground_aliases () =
  Alcotest.(check bool) "0 is ground" true (Circuit.Netlist.is_ground "0");
  Alcotest.(check bool) "gnd is ground" true (Circuit.Netlist.is_ground "GND");
  Alcotest.(check bool) "other is not" false (Circuit.Netlist.is_ground "out")

let test_netlist_find () =
  let nl =
    Circuit.Netlist.make [ Circuit.Netlist.resistor ~name:"R1" "a" "0" 1.0 ]
  in
  Alcotest.(check bool) "find hit" true (Circuit.Netlist.find nl "R1" <> None);
  Alcotest.(check bool) "find miss" true (Circuit.Netlist.find nl "R2" = None)

(* ---------------- Parser ---------------- *)

let test_parser_basic () =
  let nl =
    Circuit.Parser.parse_string
      {|
* comment line
R1 in out 1k
C1 out 0 1n
.end
|}
  in
  Alcotest.(check int) "two components" 2 (Circuit.Netlist.component_count nl)

let test_parser_waves () =
  let nl =
    Circuit.Parser.parse_string
      {|
V1 a 0 DC 1.5
V2 b 0 SIN(0 1 1e6)
V3 c 0 PULSE(0 1 0 1n 1n 10u 20u)
V4 d 0 PWL(0 0 1u 1 2u 0)
V5 e 0 BITS(0 1 2.5g 100p 1011)
R1 a 0 1k
|}
  in
  Alcotest.(check int) "six components" 6 (Circuit.Netlist.component_count nl);
  (match Circuit.Netlist.find nl "V2" with
  | Some { element = Circuit.Netlist.Vsource { wave = Circuit.Netlist.Sine s; _ }; _ } ->
      check_float "sine freq" 1e6 s.freq;
      check_float "sine ampl" 1.0 s.ampl
  | _ -> Alcotest.fail "V2 is not a sine");
  match Circuit.Netlist.find nl "V5" with
  | Some { element = Circuit.Netlist.Vsource { wave = Circuit.Netlist.Bits b; _ }; _ } ->
      check_float "rate" 2.5e9 b.rate;
      Alcotest.(check int) "bit count" 4 (Array.length b.bits);
      Alcotest.(check bool) "bit values" true (b.bits = [| true; false; true; true |])
  | _ -> Alcotest.fail "V5 is not a bit pattern"

let test_parser_mosfet_params () =
  let nl =
    Circuit.Parser.parse_string
      {|
M1 d g 0 NMOS KP=250u VTH=0.45 W=12u L=0.25u
Vd d 0 DC 1
Vg g 0 DC 1
|}
  in
  match Circuit.Netlist.find nl "M1" with
  | Some { element = Circuit.Netlist.Mosfet { params; pol; _ }; _ } ->
      Alcotest.(check bool) "polarity" true (pol = Circuit.Netlist.Nmos);
      check_float "kp" 250e-6 params.kp;
      check_float "vth" 0.45 params.vth;
      check_float "w" 12e-6 params.w
  | _ -> Alcotest.fail "M1 not parsed as mosfet"

let test_parser_diode_defaults () =
  let nl = Circuit.Parser.parse_string "D1 a 0 N=1.5\nR1 a 0 1k" in
  match Circuit.Netlist.find nl "D1" with
  | Some { element = Circuit.Netlist.Diode { params; _ }; _ } ->
      check_float "ideality" 1.5 params.ideality;
      check_float "is default" 1e-14 params.i_sat
  | _ -> Alcotest.fail "D1 not parsed"

let test_parser_continuation () =
  let nl =
    Circuit.Parser.parse_string "R1 a 0\n+ 2k\nC1 a 0 1p"
  in
  match Circuit.Netlist.find nl "R1" with
  | Some { element = Circuit.Netlist.Resistor { ohms; _ }; _ } ->
      check_float "continued value" 2000.0 ohms
  | _ -> Alcotest.fail "R1 not parsed"

let test_parser_errors () =
  (* every malformed input is a typed Parse_error, never the
     Invalid_argument of a Netlist constructor *)
  let expect_error text =
    match Circuit.Parser.parse_string text with
    | exception Circuit.Parser.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "bad value" true (expect_error "R1 a 0 abc");
  Alcotest.(check bool) "bad directive" true (expect_error ".include foo\nR1 a 0 1k");
  Alcotest.(check bool) "unbalanced paren" true (expect_error "V1 a 0 SIN(0 1");
  Alcotest.(check bool) "unknown card" true (expect_error "X1 a b c sub");
  Alcotest.(check bool) "bad bits" true (expect_error "V1 a 0 BITS(0 1 1g 1p 10x1)");
  Alcotest.(check bool) "zero resistor" true (expect_error "R1 a 0 0");
  Alcotest.(check bool) "negative capacitor" true (expect_error "C1 a 0 -1p");
  Alcotest.(check bool) "duplicate name" true
    (expect_error "R1 a 0 1k\nR1 a 0 2k");
  Alcotest.(check bool) "no ground" true (expect_error "R1 a b 1k");
  Alcotest.(check bool) "comment only" true (expect_error "* nothing\n")

(* print → parse keeps every bit that reaches the MNA system: the two
   netlists' evaluations at one random state are bit-identical *)
let roundtrip_differs st nl =
  let text = Format.asprintf "%a" Circuit.Netlist.pp nl in
  match Circuit.Parser.parse_string text with
  | exception Circuit.Parser.Parse_error (line, msg) ->
      Some (Printf.sprintf "line %d: %s in\n%s" line msg text)
  | nl2 ->
      let m1 = Engine.Mna.build nl and m2 = Engine.Mna.build nl2 in
      let v = Oracle.Gen.mixed_state st m1 in
      let time = Random.State.float st 1e-5 in
      let e1 = Engine.Mna.eval m1 ~time v and e2 = Engine.Mna.eval m2 ~time v in
      let same a b =
        Array.length a = Array.length b
        && Array.for_all2
             (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
             a b
      in
      let mat m = Linalg.Mat.unsafe_data (Option.get m) in
      if
        same e1.Engine.Mna.i_vec e2.Engine.Mna.i_vec
        && same e1.Engine.Mna.q_vec e2.Engine.Mna.q_vec
        && same (mat e1.Engine.Mna.g_mat) (mat e2.Engine.Mna.g_mat)
        && same (mat e1.Engine.Mna.c_mat) (mat e2.Engine.Mna.c_mat)
      then None
      else Some ("evaluations differ after\n" ^ text)

let prop_parser_roundtrip_pp =
  QCheck.Test.make ~count:100 ~name:"parser pp roundtrip"
    (Oracle.Gen.arb ~max_size:4 ())
    (fun s ->
      let st = Oracle.Gen.rand_state s in
      let first (nl, _, _) = nl in
      let circuits =
        [
          (Oracle.Gen.rc_ladder s).Oracle.Ladder.netlist;
          first (Oracle.Gen.rc_mesh s);
          first (Oracle.Gen.rc_grid s);
          Oracle.Gen.mixed_circuit s;
        ]
      in
      match List.find_map (roundtrip_differs st) circuits with
      | None -> true
      | Some e -> QCheck.Test.fail_reportf "%s" e)

(* the buffer's junction capacitances are named [Qj…], a BJT's letter *)
let test_parser_roundtrip_buffer () =
  match roundtrip_differs (Random.State.make [| 8 |]) (Circuits.Buffer.netlist ()) with
  | None -> ()
  | Some e -> Alcotest.fail e

let prop_units_roundtrip =
  QCheck.Test.make ~count:100 ~name:"format_si/parse roundtrip"
    QCheck.(float_range 1e-14 1e11)
    (fun x ->
      QCheck.assume (x > 0.0);
      match Circuit.Units.parse (Circuit.Units.format_si x) with
      | Some y -> Float.abs (y -. x) <= 1e-4 *. x (* %g keeps 6 digits *)
      | None -> false)

let suite =
  [
    Alcotest.test_case "units plain" `Quick test_units_plain;
    Alcotest.test_case "units suffixes" `Quick test_units_suffixes;
    Alcotest.test_case "units trailing" `Quick test_units_trailing;
    Alcotest.test_case "units bad" `Quick test_units_bad;
    Alcotest.test_case "units format" `Quick test_units_format;
    Alcotest.test_case "netlist duplicate" `Quick test_netlist_validation_duplicate;
    Alcotest.test_case "netlist ground" `Quick test_netlist_validation_ground;
    Alcotest.test_case "netlist values" `Quick test_netlist_validation_value;
    Alcotest.test_case "netlist nodes" `Quick test_netlist_nodes;
    Alcotest.test_case "ground aliases" `Quick test_netlist_ground_aliases;
    Alcotest.test_case "netlist find" `Quick test_netlist_find;
    Alcotest.test_case "parser basic" `Quick test_parser_basic;
    Alcotest.test_case "parser waves" `Quick test_parser_waves;
    Alcotest.test_case "parser mosfet" `Quick test_parser_mosfet_params;
    Alcotest.test_case "parser diode defaults" `Quick test_parser_diode_defaults;
    Alcotest.test_case "parser continuation" `Quick test_parser_continuation;
    Alcotest.test_case "parser errors" `Quick test_parser_errors;
    Alcotest.test_case "parser pp roundtrip buffer" `Quick
      test_parser_roundtrip_buffer;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      [ prop_units_roundtrip; prop_parser_roundtrip_pp ]

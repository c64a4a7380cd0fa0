(** SPICE-like netlist text parser.

    Supported grammar (case-insensitive keywords, one component per line,
    ['*'] comment lines, continuation with leading ['+']):

    {v
    R<name> n+ n- value
    C<name> n+ n- value
    L<name> n+ n- value
    V<name> n+ n- DC v | SIN(off ampl freq [delay damp phase])
                       | PULSE(low high delay rise fall width period)
                       | PWL(t1 v1 t2 v2 ...)
                       | BITS(low high rate rise 010110...)
    I<name> n+ n- <same waves>
    G<name> n+ n- cp cn gm          (VCCS)
    E<name> n+ n- cp cn gain        (VCVS)
    F<name> n+ n- vsrc gain         (CCCS, controlled by the current
                                     through voltage source vsrc)
    D<name> a k [IS=..] [N=..] [CJ=..]
    J<name> p n [CJ0=..] [PHI=..] [M=..]   (junction capacitor)
    Q<name> c b e NPN|PNP [IS=..] [BF=..] [BR=..] [CJE=..] [CJC=..]
    M<name> d g s NMOS|PMOS [KP=..] [VTH=..] [LAMBDA=..] [W=..] [L=..]
                            [CGS=..] [CGD=..] [CDB=..]
    .end  (optional)
    v} *)

exception Parse_error of int * string
(** Line number (1-based) and message, for every malformed input. A
    whole-circuit error (empty, a duplicate name, no ground) is reported
    at the last line. *)

val parse_string : string -> Netlist.t
val parse_file : string -> Netlist.t

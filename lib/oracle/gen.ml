(* Seeded random structure builders + the QCheck arbitrary driving them. *)

type seeded = { seed : int; size : int }

let arb ?(min_size = 1) ?(max_size = 4) () =
  let print s = Printf.sprintf "{seed=%d; size=%d}" s.seed s.size in
  let shrink s yield =
    if s.size > min_size then yield { s with size = s.size - 1 };
    QCheck.Shrink.int s.seed (fun seed -> yield { s with seed })
  in
  let gen =
    QCheck.Gen.map2
      (fun seed size -> { seed; size })
      (QCheck.Gen.int_bound 1_000_000)
      (QCheck.Gen.int_range min_size max_size)
  in
  QCheck.make ~print ~shrink gen

let rand_state s = Random.State.make [| s.seed; s.size; 0x9e3779b9 |]

let uniform st lo hi = lo +. ((hi -. lo) *. Random.State.float st 1.0)
let log_uniform st lo hi = lo *. ((hi /. lo) ** Random.State.float st 1.0)

(* ---------------- stable pole sets & rationals ---------------- *)

let w_lo = 1e4
let w_hi = 1e7

(* `size` units, each "pair" or "two singles": always an even slot
   count, magnitudes log-spaced with jitter so units never collide *)
let units_of s =
  let st = rand_state s in
  let n = s.size in
  Array.init n (fun t ->
      let jitter = uniform st 0.15 0.85 in
      let w =
        w_lo *. ((w_hi /. w_lo) ** ((float_of_int t +. jitter) /. float_of_int n))
      in
      if Random.State.float st 1.0 < 0.3 then `Singles (w, uniform st 1.3 2.5)
      else `Pair (w, uniform st 0.2 1.2))

let pole_set_of_units units =
  Array.concat
    (Array.to_list
       (Array.map
          (function
            | `Singles (w, ratio) ->
                (* two distinct real poles sharing the unit's decade *)
                [|
                  { Complex.re = -.w; im = 0.0 };
                  { Complex.re = -.w *. ratio; im = 0.0 };
                |]
            | `Pair (w, phi) ->
                (* damping angle bounded away from the imaginary axis *)
                [|
                  { Complex.re = -.w *. sin phi; im = w *. cos phi };
                  { Complex.re = -.w *. sin phi; im = -.w *. cos phi };
                |])
          units))

let rational s =
  (* salt the stream so residue draws are independent of the unit draws *)
  let st = Random.State.make [| s.seed; s.size; 0x51ed270b |] in
  let units = units_of s in
  let poles = pole_set_of_units units in
  let n = Array.length poles in
  let residues = Array.make n Complex.zero in
  let slot = ref 0 in
  Array.iter
    (function
      | `Singles (w, _) ->
          residues.(!slot) <-
            { Complex.re = w *. uniform st 0.5 2.0 *. (if Random.State.bool st then 1.0 else -1.0);
              im = 0.0 };
          residues.(!slot + 1) <-
            { Complex.re = w *. uniform st 0.5 2.0 *. (if Random.State.bool st then 1.0 else -1.0);
              im = 0.0 };
          slot := !slot + 2
      | `Pair (w, _) ->
          let re = w *. uniform st (-1.0) 1.0 and im = w *. uniform st 0.3 1.0 in
          residues.(!slot) <- { Complex.re = re; im };
          residues.(!slot + 1) <- { Complex.re = re; im = -.im };
          slot := !slot + 2)
    units;
  { Ladder.poles; residues }

let grid_hz = Signal.Grid.frequencies_hz ~f_min:1e2 ~f_max:1e7 ~points:80

(* ---------------- random passive RC ladders ---------------- *)

let rc_ladder s =
  let st = rand_state s in
  Ladder.rc ~stages:s.size ~r:(log_uniform st 1e2 1e4)
    ~c:(log_uniform st 1e-10 1e-8) ()

(* ---------------- random sparse-tier circuits ---------------- *)

(* mesh/grid shapes grow with `size` so shrinking walks toward small
   circuits; element values share the ladder's decade ranges *)
let mesh_shape s =
  let st = Random.State.make [| s.seed; s.size; 0x6d657368 |] in
  let rows = 2 + s.size + Random.State.int st 2 in
  let cols = 2 + s.size + Random.State.int st 2 in
  (rows, cols)

let rc_mesh s =
  let st = rand_state s in
  let rows, cols = mesh_shape s in
  let netlist =
    Circuits.Library.rc_mesh ~rows ~cols ~r:(log_uniform st 1e2 1e4)
      ~c:(log_uniform st 1e-10 1e-8) ()
  in
  (netlist, Circuits.Library.mesh_input, Circuits.Library.mesh_output ~rows ~cols)

let rc_grid s =
  let st = rand_state s in
  let rows, cols = mesh_shape s in
  let netlist =
    Circuits.Library.rc_grid ~rows ~cols ~r:(log_uniform st 1e2 1e4)
      ~c:(log_uniform st 1e-10 1e-8)
      ~diode_every:(5 + (s.seed mod 3))
      ()
  in
  (netlist, Circuits.Library.grid_input, Circuits.Library.grid_output ~rows ~cols)

(* ---------------- state-space residue trajectories ---------------- *)

let state_pole_pairs s =
  let st = rand_state s in
  let n = 1 + (s.size mod 2) in
  Array.init n (fun k ->
      let beta = uniform st 0.1 0.9 +. (float_of_int k *. 0.05) in
      let alpha = uniform st 0.08 0.45 in
      (beta, alpha))

let residue_traces ?(traces = 4) s =
  let st = rand_state s in
  let pairs = state_pole_pairs s in
  let xs = Signal.Grid.linspace 0.0 1.0 40 in
  let data =
    Array.init traces (fun _ ->
        let terms =
          Array.map
            (fun (beta, alpha) ->
              {
                Rvf.Ratfn.beta;
                alpha;
                c1 = uniform st (-2.0) 2.0;
                c2 = uniform st (-2.0) 2.0;
              })
            pairs
        in
        let rf =
          { Rvf.Ratfn.pairs = terms; const = uniform st (-1.0) 1.0; offset = 0.0 }
        in
        Array.map (fun x -> { Complex.re = Rvf.Ratfn.deriv rf x; im = 0.0 }) xs)
  in
  (xs, data)

(* ---------------- random mixed-element circuits ---------------- *)

(* Every element kind in random order over a small node set: each kind
   once, then [size] more of random kinds. Elements share nodes, so
   linear elements stamp both before and after nonlinear ones on shared
   matrix entries. About a third of the names lack their kind letter, as
   the buffer's junction capacitances [Qj…] do, and the CCCS are
   controlled by any element with a branch current (V, L, E). Sources
   are DC or zero-phase sines. *)
let mixed_circuit s =
  let module N = Circuit.Netlist in
  let st = Random.State.make [| s.seed; s.size; 0x6d697865 |] in
  let nodes = 3 + (s.size mod 3) in
  let node () =
    let k = Random.State.int st (nodes + 1) in
    if k = 0 then "0" else Printf.sprintf "n%d" k
  in
  let pair () =
    let a = node () in
    let rec other () =
      let b = node () in
      if b = a then other () else b
    in
    (a, other ())
  in
  let sign () = if Random.State.bool st then 1.0 else -1.0 in
  let cap_or_zero lo hi =
    if Random.State.int st 4 = 0 then 0.0 else log_uniform st lo hi
  in
  let wave () =
    if Random.State.bool st then N.Dc (uniform st (-1.0) 1.0)
    else
      N.Sine
        {
          offset = uniform st (-0.5) 0.5;
          ampl = uniform st 0.1 1.0;
          freq = log_uniform st 1e3 1e6;
          phase = 0.0;
        }
  in
  let kinds =
    [ `R; `C; `L; `V; `I; `G; `E; `F; `D; `J; `Mn; `Mp; `Qn; `Qp ]
  in
  let all = [| `R; `C; `L; `V; `I; `G; `E; `F; `D; `J; `Mn; `Mp; `Qn; `Qp |] in
  let extra =
    List.init s.size (fun _ -> all.(Random.State.int st (Array.length all)))
  in
  (* a random order, the CCCS among the rest *)
  let order =
    List.map snd
      (List.sort compare
         (List.map (fun k -> (Random.State.bits st, k)) (kinds @ extra)))
  in
  let name letter k =
    if Random.State.int st 3 = 0 then Printf.sprintf "x%d" k
    else Printf.sprintf "%s%d" letter k
  in
  let branches = ref [] in
  let comps =
    List.mapi
      (fun k kind ->
        match kind with
        | `R ->
            let p, n = pair () in
            N.resistor ~name:(name "R" k) p n (log_uniform st 1e2 1e4)
        | `C ->
            let p, n = pair () in
            N.capacitor ~name:(name "C" k) p n (log_uniform st 1e-12 1e-9)
        | `L ->
            let p, n = pair () in
            let c = N.inductor ~name:(name "L" k) p n (log_uniform st 1e-9 1e-6) in
            branches := c.N.name :: !branches;
            c
        | `V ->
            let p, n = pair () in
            let c = N.vsource ~name:(name "V" k) p n (wave ()) in
            branches := c.N.name :: !branches;
            c
        | `I ->
            let p, n = pair () in
            N.isource ~name:(name "I" k) p n (wave ())
        | `G ->
            let p, n = pair () and cp, cn = pair () in
            N.vccs ~name:(name "G" k) p n ~cp ~cn
              ~gm:(sign () *. log_uniform st 1e-4 1e-2)
        | `E ->
            let p, n = pair () and cp, cn = pair () in
            let c =
              N.vcvs ~name:(name "E" k) p n ~cp ~cn ~gain:(uniform st (-3.0) 3.0)
            in
            branches := c.N.name :: !branches;
            c
        | `F -> N.cccs ~name:(name "F" k) "0" "0" ~vname:"" ~gain:0.0
        | `D ->
            let p, n = pair () in
            N.diode ~name:(name "D" k)
              ~params:
                {
                  N.i_sat = log_uniform st 1e-15 1e-9;
                  ideality = uniform st 1.0 2.0;
                  cj = cap_or_zero 1e-14 1e-12;
                }
              p n ()
        | `J ->
            let p, n = pair () in
            N.junction_cap ~name:(name "J" k)
              ~params:
                {
                  N.cj0 = log_uniform st 1e-15 1e-12;
                  phi = uniform st 0.5 0.9;
                  m = uniform st 0.3 0.6;
                }
              p n ()
        | (`Mn | `Mp) as pol ->
            let d = node () and g = node () and s = node () in
            let base =
              if pol = `Mn then N.default_nmos else N.default_pmos
            in
            N.mosfet ~name:(name "M" k) ~d ~g ~s
              (if pol = `Mn then N.Nmos else N.Pmos)
              {
                base with
                N.w = log_uniform st 1e-6 1e-4;
                l = log_uniform st 1e-7 1e-6;
                cgs = cap_or_zero 1e-15 1e-13;
                cgd = cap_or_zero 1e-15 1e-13;
                cdb = cap_or_zero 1e-15 1e-13;
              }
        | (`Qn | `Qp) as pol ->
            let c = node () and b = node () and e = node () in
            let base = if pol = `Qn then N.default_npn else N.default_pnp in
            N.bjt ~name:(name "Q" k) ~c ~b ~e
              (if pol = `Qn then N.Npn else N.Pnp)
              {
                base with
                N.is_bjt = log_uniform st 1e-16 1e-13;
                cje = cap_or_zero 1e-15 1e-13;
                cjc = cap_or_zero 1e-15 1e-13;
              })
      order
  in
  (* the CCCS placeholders take their controls now that every branch
     element is named *)
  let controls = Array.of_list !branches in
  let comps =
    List.map
      (fun (c : N.component) ->
        match c.N.element with
        | N.Cccs _ ->
            let p, n = pair () in
            N.cccs ~name:c.N.name p n
              ~vname:controls.(Random.State.int st (Array.length controls))
              ~gain:(uniform st (-3.0) 3.0)
        | _ -> c)
      comps
  in
  N.make (N.resistor ~name:"Rg" "n1" "0" 1e3 :: comps)

(* a state for [mna]: node voltages in [−1.5, 1.5] V, branch currents
   in [−1, 1] mA *)
let mixed_state st mna =
  let nodes = Engine.Mna.n_nodes mna in
  Array.init (Engine.Mna.size mna) (fun k ->
      if k < nodes then uniform st (-1.5) 1.5 else uniform st (-1e-3) 1e-3)

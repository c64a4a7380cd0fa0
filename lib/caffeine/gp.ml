type params = {
  population : int;
  generations : int;
  tournament : int;
  max_terms : int;
  max_factors : int;
  complexity_penalty : float;
  seed : int;
}

let default_params =
  {
    population = 100;
    generations = 120;
    tournament = 3;
    max_terms = 5;
    max_factors = 3;
    complexity_penalty = 2e-3;
    seed = 1;
  }

type fitted = {
  terms : Cexpr.term array;
  weights : float array;
  rmse : float;
  rmse_rel : float;
  generations_run : int;
}

let eval f x =
  let acc = ref f.weights.(0) in
  Array.iteri
    (fun j term -> acc := !acc +. (f.weights.(j + 1) *. Cexpr.eval_term term x))
    f.terms;
  !acc

(* ---- random structure generation, range-aware constants ---- *)

let random_factor st ~lo ~hi =
  let range = hi -. lo in
  match Random.State.int st 10 with
  | 0 | 1 | 2 | 3 ->
      Cexpr.Power (1 + Random.State.int st 3)
  | 4 | 5 ->
      let c = (Random.State.float st 8.0 -. 4.0) /. Float.max range 1e-12 in
      Cexpr.Exponential c
  | 6 | 7 | 8 ->
      let a = (2.0 +. Random.State.float st 18.0) /. Float.max range 1e-12 in
      let b = lo +. Random.State.float st range in
      Cexpr.Tanh (a, b)
  | _ ->
      let a = (4.0 +. Random.State.float st 60.0) /. (Float.max range 1e-12 ** 2.0) in
      let b = lo +. Random.State.float st range in
      Cexpr.Gauss (a, b)

let random_term st ~p ~lo ~hi =
  let n = 1 + Random.State.int st p.max_factors in
  Cexpr.simplify (List.init n (fun _ -> random_factor st ~lo ~hi))

let random_individual st ~p ~lo ~hi =
  let n = 1 + Random.State.int st p.max_terms in
  Array.init n (fun _ -> random_term st ~p ~lo ~hi)

(* ---- weight fitting: linear least squares per candidate ---- *)

let fit_weights ~xs ~ys terms =
  let k = Array.length xs and t = Array.length terms in
  let a = Linalg.Mat.create k (t + 1) in
  for row = 0 to k - 1 do
    Linalg.Mat.set a row 0 1.0;
    for j = 0 to t - 1 do
      Linalg.Mat.set a row (j + 1) (Cexpr.eval_term terms.(j) xs.(row))
    done
  done;
  (* column equilibration *)
  let scales = Array.make (t + 1) 1.0 in
  for j = 0 to t do
    let m = ref 0.0 in
    for row = 0 to k - 1 do
      m := Float.max !m (Float.abs (Linalg.Mat.get a row j))
    done;
    if !m > 0.0 && Float.is_finite !m then begin
      scales.(j) <- 1.0 /. !m;
      for row = 0 to k - 1 do
        Linalg.Mat.set a row j (Linalg.Mat.get a row j *. scales.(j))
      done
    end
  done;
  match Linalg.Qr.least_squares a ys with
  | exception Linalg.Qr.Rank_deficient _ -> None
  | sol ->
      let w = Array.mapi (fun j v -> v *. scales.(j)) sol in
      if Array.for_all Float.is_finite w then Some w else None

let rms ys =
  sqrt
    (Array.fold_left (fun s v -> s +. (v *. v)) 0.0 ys
    /. float_of_int (Array.length ys))

let evaluate ~p ~xs ~ys terms =
  match fit_weights ~xs ~ys terms with
  | None -> None
  | Some weights ->
      let cand = { terms; weights; rmse = 0.0; rmse_rel = 0.0; generations_run = 0 } in
      let err = Array.mapi (fun k x -> eval cand x -. ys.(k)) xs in
      let e = rms err in
      if not (Float.is_finite e) then None
      else begin
        let scale = Float.max (rms ys) 1e-300 in
        let cplx =
          Array.fold_left (fun acc t -> acc + Cexpr.complexity t) 0 terms
        in
        let fitness = (e /. scale) +. (p.complexity_penalty *. float_of_int cplx) in
        Some (fitness, { cand with rmse = e; rmse_rel = e /. scale })
      end

(* ---- variation operators ---- *)

let mutate_constant st f =
  let jitter v = v *. (1.0 +. (0.4 *. (Random.State.float st 2.0 -. 1.0))) in
  match f with
  | Cexpr.Power n -> Cexpr.Power (Stdlib.max 1 (n + Random.State.int st 3 - 1))
  | Cexpr.Exponential c -> Cexpr.Exponential (jitter c)
  | Cexpr.Tanh (a, b) -> Cexpr.Tanh (jitter a, jitter b)
  | Cexpr.Gauss (a, b) -> Cexpr.Gauss (Float.abs (jitter a), jitter b)

let mutate_term st ~p ~lo ~hi term =
  match Random.State.int st 3 with
  | 0 when term <> [] ->
      (* perturb one factor's constants *)
      let idx = Random.State.int st (List.length term) in
      Cexpr.simplify
        (List.mapi (fun i f -> if i = idx then mutate_constant st f else f) term)
  | 1 when List.length term < p.max_factors ->
      Cexpr.simplify (random_factor st ~lo ~hi :: term)
  | _ ->
      (match term with
      | _ :: rest when rest <> [] && Random.State.bool st -> rest
      | _ -> [ random_factor st ~lo ~hi ])

let mutate st ~p ~lo ~hi ind =
  match Random.State.int st 4 with
  | 0 when Array.length ind < p.max_terms ->
      Array.append ind [| random_term st ~p ~lo ~hi |]
  | 1 when Array.length ind > 1 ->
      let drop = Random.State.int st (Array.length ind) in
      Array.of_list
        (List.filteri (fun i _ -> i <> drop) (Array.to_list ind))
  | _ ->
      let idx = Random.State.int st (Array.length ind) in
      Array.mapi (fun i t -> if i = idx then mutate_term st ~p ~lo ~hi t else t) ind

let crossover st a b =
  let cut_a = Random.State.int st (Array.length a + 1) in
  let cut_b = Random.State.int st (Array.length b + 1) in
  let child =
    Array.append (Array.sub a 0 cut_a)
      (Array.sub b cut_b (Array.length b - cut_b))
  in
  if Array.length child = 0 then [| [] |] else child

let clamp_terms ~p ind =
  if Array.length ind > p.max_terms then Array.sub ind 0 p.max_terms else ind

(* ---- main loop ---- *)

let fit ?(params = default_params) ~xs ~ys () =
  let p = params in
  if Array.length xs <> Array.length ys || Array.length xs < 4 then
    invalid_arg "Gp.fit: need >= 4 matched samples";
  let st = Random.State.make [| p.seed; Array.length xs |] in
  let lo = Array.fold_left Float.min Float.infinity xs in
  let hi = Array.fold_left Float.max Float.neg_infinity xs in
  let eval_ind terms = evaluate ~p ~xs ~ys terms in
  let pop =
    Array.init p.population (fun _ ->
        let terms = random_individual st ~p ~lo ~hi in
        (terms, eval_ind terms))
  in
  let fitness_of (_, e) =
    match e with Some (f, _) -> f | None -> Float.infinity
  in
  let tournament () =
    let best = ref pop.(Random.State.int st p.population) in
    for _ = 2 to p.tournament do
      let cand = pop.(Random.State.int st p.population) in
      if fitness_of cand < fitness_of !best then best := cand
    done;
    fst !best
  in
  let best = ref None in
  let consider (_terms, e) =
    match e with
    | Some (f, cand) -> begin
        match !best with
        | Some (bf, _) when bf <= f -> ()
        | Some _ | None -> best := Some (f, cand)
      end
    | None -> ()
  in
  Array.iter consider pop;
  let gens = ref 0 in
  for gen = 1 to p.generations do
    gens := gen;
    (* elitism: slot 0 keeps the best-so-far *)
    let next =
      Array.init p.population (fun i ->
          if i = 0 then begin
            match !best with
            | Some (_, cand) -> (cand.terms, eval_ind cand.terms)
            | None -> pop.(0)
          end
          else begin
            let a = tournament () in
            let child =
              if Random.State.float st 1.0 < 0.6 then crossover st a (tournament ())
              else a
            in
            let child =
              if Random.State.float st 1.0 < 0.7 then mutate st ~p ~lo ~hi child
              else child
            in
            let child = clamp_terms ~p child in
            (child, eval_ind child)
          end)
    in
    Array.blit next 0 pop 0 p.population;
    Array.iter consider pop
  done;
  match !best with
  | Some (_, cand) -> { cand with generations_run = !gens }
  | None -> invalid_arg "Gp.fit: no viable individual found"

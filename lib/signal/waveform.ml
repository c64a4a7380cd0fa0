type t = { times : float array; values : float array }

let make times values =
  let n = Array.length times in
  if n = 0 then invalid_arg "Waveform.make: empty";
  if Array.length values <> n then invalid_arg "Waveform.make: length mismatch";
  for k = 1 to n - 1 do
    if times.(k) <= times.(k - 1) then
      invalid_arg "Waveform.make: times must be strictly increasing"
  done;
  { times; values }

let of_fun f times = make times (Array.map f times)
let length w = Array.length w.times
let times w = w.times
let values w = w.values

let value_at w t =
  let n = Array.length w.times in
  if t <= w.times.(0) then w.values.(0)
  else if t >= w.times.(n - 1) then w.values.(n - 1)
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if w.times.(mid) <= t then lo := mid else hi := mid
    done;
    let t0 = w.times.(!lo) and t1 = w.times.(!hi) in
    let v0 = w.values.(!lo) and v1 = w.values.(!hi) in
    v0 +. ((v1 -. v0) *. (t -. t0) /. (t1 -. t0))
  end

let resample w times = make times (Array.map (value_at w) times)
let map f w = { w with values = Array.map f w.values }

let sub_signal a b =
  let bv = Array.map (value_at b) a.times in
  { times = a.times; values = Array.mapi (fun k v -> v -. bv.(k)) a.values }

let rmse a b =
  let d = sub_signal a b in
  let n = Array.length d.values in
  let acc = Array.fold_left (fun s x -> s +. (x *. x)) 0.0 d.values in
  sqrt (acc /. float_of_int n)

let peak_to_peak w =
  let mn = Array.fold_left Float.min Float.infinity w.values in
  let mx = Array.fold_left Float.max Float.neg_infinity w.values in
  mx -. mn

let nrmse a b =
  let range = peak_to_peak a in
  if range = 0.0 then rmse a b else rmse a b /. range

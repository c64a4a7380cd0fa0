(* Content-addressed, schema-versioned checkpoint store for resumable
   extractions.

   Each artifact is one JSON file wrapped in an envelope carrying the
   schema version, the stage name and the run fingerprint (an MD5 hex
   digest of the canonical config + circuit description computed by the
   caller). A loader only returns the payload when all three match:
   torn or malformed files raise the typed {!Invalid}, a mismatching
   fingerprint or schema version reads as a miss (stale checkpoints are
   silently recomputed and overwritten), and bit-exactness across a
   store/load round trip is guaranteed by {!Minijson}'s [%.17g] float
   rendering.

   Writes go to a temp file in the same directory followed by an atomic
   rename, so a crash mid-write can never leave a half-written artifact
   under the final name. The ["checkpoint.torn_write"] fault site
   simulates exactly that crash by bypassing the rename and truncating
   the payload — the typed reader must reject it on the next resume.

   [arm_kill] is the chaos harness's deterministic interruption point:
   after the n-th completed store the process "crashes" with the typed
   {!Killed}, which the soak runner catches before resuming. *)

exception Invalid of { file : string; reason : string }
exception Killed of { stage : string; stores : int }

let () =
  Printexc.register_printer (function
    | Invalid { file; reason } ->
        Some (Printf.sprintf "invalid checkpoint: %s: %s" file reason)
    | Killed { stage; stores } ->
        Some
          (Printf.sprintf
             "simulated crash after checkpoint store %d (stage %s)" stores
             stage)
    | _ -> None)

let schema_version = 1

type t = { dir : string; fingerprint : string }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

let create ~dir ~fingerprint =
  mkdir_p dir;
  { dir; fingerprint }

let fingerprint_of_string s = Digest.to_hex (Digest.string s)

(* stage names are [a-z0-9._-]; anything else would need escaping *)
let file t ~stage = Filename.concat t.dir (stage ^ ".ckpt.json")

(* --- deterministic interruption hook (chaos harness) ----------------- *)

let kill_after : int option ref = ref None
let store_count = ref 0
let lock = Mutex.create ()

let arm_kill ~after_stores =
  if after_stores < 1 then invalid_arg "Checkpoint.arm_kill: after_stores < 1";
  Mutex.lock lock;
  kill_after := Some after_stores;
  store_count := 0;
  Mutex.unlock lock

let disarm_kill () =
  Mutex.lock lock;
  kill_after := None;
  let n = !store_count in
  store_count := 0;
  Mutex.unlock lock;
  n

(* --- store ----------------------------------------------------------- *)

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let store t ~stage payload =
  let envelope =
    Minijson.Obj
      [
        ("schema_version", Minijson.Num (float_of_int schema_version));
        ("kind", Minijson.Str "tft-checkpoint");
        ("stage", Minijson.Str stage);
        ("fingerprint", Minijson.Str t.fingerprint);
        ("payload", payload);
      ]
  in
  let text = Minijson.emit envelope ^ "\n" in
  let path = file t ~stage in
  if Fault.should_fire "checkpoint.torn_write" then
    (* simulated crash mid-write: a truncated artifact lands under the
       final name with no atomic rename to protect it. The run that
       "crashed" already holds the result in memory and continues; the
       next resume must reject the torn file and recompute. *)
    write_file path (String.sub text 0 (String.length text / 2))
  else begin
    let tmp = path ^ ".tmp" in
    write_file tmp text;
    Sys.rename tmp path
  end;
  Mutex.lock lock;
  incr store_count;
  let killed =
    match !kill_after with Some n when !store_count >= n -> true | _ -> false
  in
  let n_stores = !store_count in
  if killed then kill_after := None;
  Mutex.unlock lock;
  if killed then raise (Killed { stage; stores = n_stores })

(* --- load ------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

let load t ~stage =
  let path = file t ~stage in
  if not (Sys.file_exists path) then None
  else begin
    let fail reason = raise (Invalid { file = path; reason }) in
    let text =
      try read_file path with Sys_error msg -> fail msg
    in
    let root =
      try Minijson.parse text with Minijson.Parse_error msg -> fail msg
    in
    (match Minijson.str_field root "kind" with
    | Some "tft-checkpoint" -> ()
    | Some other -> fail (Printf.sprintf "kind %S is not tft-checkpoint" other)
    | None -> fail "missing kind");
    match
      ( Minijson.num_field root "schema_version",
        Minijson.str_field root "stage",
        Minijson.str_field root "fingerprint",
        Minijson.field root "payload" )
    with
    | None, _, _, _ -> fail "missing schema_version"
    | _, None, _, _ -> fail "missing stage"
    | _, _, None, _ -> fail "missing fingerprint"
    | _, _, _, None -> fail "missing payload"
    | Some v, Some st, Some fp, Some payload ->
        if v <> float_of_int schema_version then
          (* written by other code: stale, recompute *)
          None
        else if st <> stage then
          fail (Printf.sprintf "stage %S, expected %S" st stage)
        else if fp <> t.fingerprint then
          (* config/circuit changed since this artifact was written *)
          None
        else Some payload
  end

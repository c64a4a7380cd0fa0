(* Allocation probes shared by the allocation-bound tests. *)

(* words allocated by [f]: the minor heap's exact count plus the words
   allocated directly in the major heap (major − promoted). The
   runtime's [Gc.allocated_bytes] is not used: it reads the minor heap's
   share in words, not bytes, and so under-counts small allocations
   eightfold. *)
let raw_words f =
  let direct_major () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let m0 = Gc.minor_words () and d0 = direct_major () in
  f ();
  Gc.minor_words () -. m0 +. (direct_major () -. d0)

(* less what the reading itself allocates (its boxed floats and tuples) *)
let words_of f = raw_words f -. raw_words ignore

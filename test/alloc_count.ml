(* Exact allocation counts for the zero-allocation tests. [Gc.minor_words]
   reads the minor-heap pointer, so it counts every word; [Gc.quick_stat]
   only moves at minor collections and cannot see a word. *)

let words_over n f =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  Gc.minor_words () -. w0

(* Minor words per call of [f], after one warm-up call, less the cost of
   the same loop around a no-op. *)
let per_call ?(calls = 1000) f =
  f ();
  let base = words_over calls (fun () -> ()) in
  (words_over calls f -. base) /. float_of_int calls

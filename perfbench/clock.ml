(* Monotonic nanoseconds, allocation-free: span timing must not perturb
   the allocation it sits next to. *)
let ns () = Int64.to_int (Monotonic_clock.now ())
let wall () = Unix.gettimeofday ()

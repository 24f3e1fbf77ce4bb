(* A fixed reference workload that measures how fast the host runs right
   now. It is the benchmark's own code and links nothing of the program,
   so no change to the program changes its work: only the host can.

   The host this benchmark was tuned on slows whole stretches of a run by
   up to 2x, with no steal time and CPU time equal to wall time (its other
   tenants contend for the physical cores). A slice of this loop, run right
   after each timed unit, slows with the unit: the loop is a small event
   simulation (a binary heap of timestamps, a hash table of short lists,
   small allocations) with the same kind of work as the program's engine,
   link and protocol state. [scale] turns a unit's wall time into the time
   it would take on a host where one slice takes [nominal_s]. *)

let steps = 40_000

(* A slice took 9.7-11 ms on the tuning host when it ran fastest. *)
let nominal_s = 0.010
let cap = 4_096
let heap_t = Array.make cap 0
let heap_v = Array.make cap 0
let size = ref 0
let table : (int, int list) Hashtbl.t = Hashtbl.create cap

let push t v =
  let i = ref !size in
  incr size;
  while !i > 0 && heap_t.((!i - 1) / 2) > t do
    let p = (!i - 1) / 2 in
    heap_t.(!i) <- heap_t.(p);
    heap_v.(!i) <- heap_v.(p);
    i := p
  done;
  heap_t.(!i) <- t;
  heap_v.(!i) <- v

let pop () =
  let t = heap_t.(0) and v = heap_v.(0) in
  decr size;
  let lt = heap_t.(!size) and lv = heap_v.(!size) in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= !size then sifting := false
    else begin
      let c = if l + 1 < !size && heap_t.(l + 1) < heap_t.(l) then l + 1 else l in
      if heap_t.(c) < lt then begin
        heap_t.(!i) <- heap_t.(c);
        heap_v.(!i) <- heap_v.(c);
        i := c
      end
      else sifting := false
    end
  done;
  heap_t.(!i) <- lt;
  heap_v.(!i) <- lv;
  (t, v)

(* One slice: the same [steps] events from the same xorshift seed every
   time. Returns its wall time in seconds. *)
let slice () =
  size := 0;
  Hashtbl.reset table;
  let x = ref 88172645463325252 in
  let rnd () =
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    !x land 0xffff
  in
  for i = 0 to (cap / 2) - 1 do
    push (rnd ()) i
  done;
  let acc = ref 0 in
  let t0 = Clock.wall () in
  for _ = 1 to steps do
    let t, v = pop () in
    let k = v land (cap - 1) in
    let l = Option.value ~default:[] (Hashtbl.find_opt table k) in
    Hashtbl.replace table k (if List.length l > 8 then [ t ] else t :: l);
    if t land 15 = 0 then begin
      let b = Bytes.make 32 (Char.chr (t land 255)) in
      acc := !acc + Char.code (Bytes.get b 7)
    end;
    push (t + 1 + rnd ()) (v + rnd ())
  done;
  ignore (Sys.opaque_identity !acc);
  Clock.wall () -. t0

(* Slices until they have run for [at_least] seconds, one at least.
   Returns the median slice time and the time the slices took. *)
let sample ~at_least =
  let rec go acc total =
    if acc <> [] && total >= at_least then (Layers.median acc, total)
    else
      let s = slice () in
      go (s :: acc) (total +. s)
  in
  go [] 0.

(* The factor that takes a time measured next to [slice_s] to the nominal
   host speed. *)
let scale slice_s = nominal_s /. slice_s

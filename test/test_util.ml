(* Unit and property tests for ba_util: rng, modseq, ring buffer,
   bitset, stats, histogram, table. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Ba_util.Rng.create 7 and b = Ba_util.Rng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Ba_util.Rng.bits64 a) (Ba_util.Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Ba_util.Rng.create 7 and b = Ba_util.Rng.create 8 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Ba_util.Rng.bits64 a) (Ba_util.Rng.bits64 b)) then differs := true
  done;
  check Alcotest.bool "streams differ" true !differs

let test_rng_copy () =
  let a = Ba_util.Rng.create 99 in
  ignore (Ba_util.Rng.bits64 a);
  let b = Ba_util.Rng.copy a in
  for _ = 1 to 50 do
    check Alcotest.int64 "copy tracks" (Ba_util.Rng.bits64 a) (Ba_util.Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Ba_util.Rng.create 3 in
  let b = Ba_util.Rng.split a in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Ba_util.Rng.bits64 a) (Ba_util.Rng.bits64 b)) then differs := true
  done;
  check Alcotest.bool "split differs from parent" true !differs

let test_rng_int_range () =
  let r = Ba_util.Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Ba_util.Rng.int r 7 in
    if v < 0 || v >= 7 then Alcotest.failf "int out of range: %d" v
  done

let test_rng_int_covers_all () =
  let r = Ba_util.Rng.create 5 in
  let seen = Array.make 5 false in
  for _ = 1 to 1_000 do
    seen.(Ba_util.Rng.int r 5) <- true
  done;
  Array.iteri (fun i b -> check Alcotest.bool (Printf.sprintf "value %d seen" i) true b) seen

let test_rng_int_in () =
  let r = Ba_util.Rng.create 2 in
  for _ = 1 to 1_000 do
    let v = Ba_util.Rng.int_in r 10 20 in
    if v < 10 || v > 20 then Alcotest.failf "int_in out of range: %d" v
  done

let test_rng_float_range () =
  let r = Ba_util.Rng.create 11 in
  for _ = 1 to 10_000 do
    let v = Ba_util.Rng.float r 3.0 in
    if v < 0. || v >= 3.0 then Alcotest.failf "float out of range: %f" v
  done

let test_rng_bernoulli_extremes () =
  let r = Ba_util.Rng.create 4 in
  for _ = 1 to 100 do
    check Alcotest.bool "p=0 never" false (Ba_util.Rng.bernoulli r 0.);
    check Alcotest.bool "p=1 always" true (Ba_util.Rng.bernoulli r 1.)
  done

let test_rng_bernoulli_rate () =
  let r = Ba_util.Rng.create 4 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Ba_util.Rng.bernoulli r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  if abs_float (rate -. 0.3) > 0.01 then Alcotest.failf "bernoulli rate %f too far from 0.3" rate

let test_rng_exponential_mean () =
  let r = Ba_util.Rng.create 6 in
  let sum = ref 0. in
  let n = 100_000 in
  for _ = 1 to n do
    sum := !sum +. Ba_util.Rng.exponential r 50.
  done;
  let mean = !sum /. float_of_int n in
  if abs_float (mean -. 50.) > 2. then Alcotest.failf "exponential mean %f too far from 50" mean

let test_rng_geometric () =
  let r = Ba_util.Rng.create 8 in
  check Alcotest.int "p=1 gives 0" 0 (Ba_util.Rng.geometric r 1.0);
  let sum = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    sum := !sum + Ba_util.Rng.geometric r 0.5
  done;
  (* Mean of failures-before-success at p=0.5 is 1. *)
  let mean = float_of_int !sum /. float_of_int n in
  if abs_float (mean -. 1.0) > 0.05 then Alcotest.failf "geometric mean %f too far from 1" mean

let test_rng_shuffle_permutation () =
  let r = Ba_util.Rng.create 12 in
  let a = Array.init 100 (fun i -> i) in
  Ba_util.Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "is a permutation" (Array.init 100 (fun i -> i)) sorted

(* ------------------------------------------------------------------ *)
(* Modseq *)

let test_modseq_wrap () =
  check Alcotest.int "wrap pos" 3 (Ba_util.Modseq.wrap ~n:8 11);
  check Alcotest.int "wrap neg" 5 (Ba_util.Modseq.wrap ~n:8 (-3));
  check Alcotest.int "wrap zero" 0 (Ba_util.Modseq.wrap ~n:8 0);
  check Alcotest.int "wrap exact" 0 (Ba_util.Modseq.wrap ~n:8 8)

let test_modseq_succ_add_sub () =
  check Alcotest.int "succ wraps" 0 (Ba_util.Modseq.succ ~n:4 3);
  check Alcotest.int "add" 1 (Ba_util.Modseq.add ~n:4 3 2);
  check Alcotest.int "sub" 3 (Ba_util.Modseq.sub ~n:4 1 2)

let test_modseq_distance () =
  check Alcotest.int "forward" 3 (Ba_util.Modseq.distance ~n:8 2 5);
  check Alcotest.int "wraparound" 5 (Ba_util.Modseq.distance ~n:8 5 2);
  check Alcotest.int "self" 0 (Ba_util.Modseq.distance ~n:8 4 4)

let test_modseq_in_window () =
  check Alcotest.bool "inside" true (Ba_util.Modseq.in_window ~n:8 ~lo:6 ~size:4 1);
  check Alcotest.bool "lower bound" true (Ba_util.Modseq.in_window ~n:8 ~lo:6 ~size:4 6);
  check Alcotest.bool "past end" false (Ba_util.Modseq.in_window ~n:8 ~lo:6 ~size:4 2);
  check Alcotest.bool "before" false (Ba_util.Modseq.in_window ~n:8 ~lo:6 ~size:4 5)

let test_modseq_reconstruct_examples () =
  (* The paper's band: x <= y < x + n. *)
  check Alcotest.int "same block" 13 (Ba_util.Modseq.reconstruct ~n:8 ~ref_:10 5);
  check Alcotest.int "next block" 17 (Ba_util.Modseq.reconstruct ~n:8 ~ref_:10 1);
  check Alcotest.int "at anchor" 10 (Ba_util.Modseq.reconstruct ~n:8 ~ref_:10 2);
  check Alcotest.int "zero anchor" 6 (Ba_util.Modseq.reconstruct ~n:8 ~ref_:0 6)

let prop_modseq_reconstruct =
  (* Paper equations 12-14: f(x, y mod n) = y whenever 0 <= x <= y < x + n. *)
  QCheck.Test.make ~name:"reconstruct recovers y in the band" ~count:2000
    QCheck.(triple (int_bound 10_000) (int_bound 500) (int_range 1 64))
    (fun (x, offset, n) ->
      QCheck.assume (offset < n);
      let y = x + offset in
      Ba_util.Modseq.reconstruct ~n ~ref_:x (y mod n) = y)

let prop_modseq_reconstruct_outside =
  (* Outside the band the reconstruction must NOT equal y (it aliases). *)
  QCheck.Test.make ~name:"reconstruct aliases outside the band" ~count:2000
    QCheck.(triple (int_bound 10_000) (int_range 0 500) (int_range 1 64))
    (fun (x, extra, n) ->
      let y = x + n + extra in
      Ba_util.Modseq.reconstruct ~n ~ref_:x (y mod n) <> y)

let prop_modseq_distance_inverse =
  QCheck.Test.make ~name:"distance is add-inverse" ~count:1000
    QCheck.(triple (int_bound 1000) (int_bound 1000) (int_range 1 64))
    (fun (a, b, n) ->
      let a = a mod n and b = b mod n in
      Ba_util.Modseq.add ~n a (Ba_util.Modseq.distance ~n a b) = b)

(* ------------------------------------------------------------------ *)
(* Ring_buffer *)

let test_ring_set_get () =
  let rb = Ba_util.Ring_buffer.create 4 in
  Ba_util.Ring_buffer.set rb 0 "a";
  Ba_util.Ring_buffer.set rb 3 "d";
  check (Alcotest.option Alcotest.string) "get 0" (Some "a") (Ba_util.Ring_buffer.get rb 0);
  check (Alcotest.option Alcotest.string) "get 3" (Some "d") (Ba_util.Ring_buffer.get rb 3);
  check (Alcotest.option Alcotest.string) "absent" None (Ba_util.Ring_buffer.get rb 1);
  check Alcotest.int "occupancy" 2 (Ba_util.Ring_buffer.occupancy rb)

let test_ring_wraparound () =
  let rb = Ba_util.Ring_buffer.create 4 in
  Ba_util.Ring_buffer.set rb 2 "x";
  Ba_util.Ring_buffer.remove rb 2;
  Ba_util.Ring_buffer.set rb 6 "y";
  (* 6 mod 4 = 2: same slot, different absolute index. *)
  check (Alcotest.option Alcotest.string) "new index" (Some "y") (Ba_util.Ring_buffer.get rb 6);
  check (Alcotest.option Alcotest.string) "old index gone" None (Ba_util.Ring_buffer.get rb 2)

let test_ring_collision () =
  let rb = Ba_util.Ring_buffer.create 4 in
  Ba_util.Ring_buffer.set rb 1 "a";
  Alcotest.check_raises "slot collision" (Invalid_argument "Ring_buffer.set: slot collision (index 5 vs live 1, capacity 4)")
    (fun () -> Ba_util.Ring_buffer.set rb 5 "b")

let test_ring_overwrite_same_index () =
  let rb = Ba_util.Ring_buffer.create 4 in
  Ba_util.Ring_buffer.set rb 1 "a";
  Ba_util.Ring_buffer.set rb 1 "b";
  check (Alcotest.option Alcotest.string) "overwritten" (Some "b") (Ba_util.Ring_buffer.get rb 1);
  check Alcotest.int "occupancy stays 1" 1 (Ba_util.Ring_buffer.occupancy rb)

let test_ring_remove_and_iter () =
  let rb = Ba_util.Ring_buffer.create 8 in
  List.iter (fun i -> Ba_util.Ring_buffer.set rb i (string_of_int i)) [ 0; 1; 2; 3 ];
  Ba_util.Ring_buffer.remove rb 1;
  Ba_util.Ring_buffer.remove rb 1;
  (* idempotent *)
  check Alcotest.int "occupancy after remove" 3 (Ba_util.Ring_buffer.occupancy rb);
  let collected = ref [] in
  Ba_util.Ring_buffer.iter (fun i v -> collected := (i, v) :: !collected) rb;
  check Alcotest.int "iter count" 3 (List.length !collected)

let test_ring_clear () =
  let rb = Ba_util.Ring_buffer.create 4 in
  Ba_util.Ring_buffer.set rb 0 "a";
  Ba_util.Ring_buffer.clear rb;
  check Alcotest.int "cleared" 0 (Ba_util.Ring_buffer.occupancy rb);
  check Alcotest.bool "mem false" false (Ba_util.Ring_buffer.mem rb 0)

let test_ring_invalid_capacity () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Ring_buffer.create: capacity must be positive") (fun () ->
      ignore (Ba_util.Ring_buffer.create 0))

(* ------------------------------------------------------------------ *)
(* Bitset *)

let test_bitset_basic () =
  let b = Ba_util.Bitset.create () in
  check Alcotest.bool "initially empty" false (Ba_util.Bitset.mem b 0);
  Ba_util.Bitset.set b 0;
  Ba_util.Bitset.set b 63;
  Ba_util.Bitset.set b 64;
  check Alcotest.bool "mem 0" true (Ba_util.Bitset.mem b 0);
  check Alcotest.bool "mem 63" true (Ba_util.Bitset.mem b 63);
  check Alcotest.bool "mem 64" true (Ba_util.Bitset.mem b 64);
  check Alcotest.bool "mem 1" false (Ba_util.Bitset.mem b 1);
  check Alcotest.int "cardinal" 3 (Ba_util.Bitset.cardinal b)

let test_bitset_growth () =
  let b = Ba_util.Bitset.create ~initial_capacity:1 () in
  Ba_util.Bitset.set b 10_000;
  check Alcotest.bool "grown" true (Ba_util.Bitset.mem b 10_000);
  check Alcotest.bool "beyond capacity false" false (Ba_util.Bitset.mem b 20_000)

let test_bitset_unset () =
  let b = Ba_util.Bitset.create () in
  Ba_util.Bitset.set b 5;
  Ba_util.Bitset.set b 5;
  check Alcotest.int "idempotent set" 1 (Ba_util.Bitset.cardinal b);
  Ba_util.Bitset.unset b 5;
  check Alcotest.bool "unset" false (Ba_util.Bitset.mem b 5);
  Ba_util.Bitset.unset b 5;
  check Alcotest.int "idempotent unset" 0 (Ba_util.Bitset.cardinal b)

let test_bitset_iter_order () =
  let b = Ba_util.Bitset.create () in
  List.iter (Ba_util.Bitset.set b) [ 100; 3; 64; 7 ];
  let collected = ref [] in
  Ba_util.Bitset.iter (fun i -> collected := i :: !collected) b;
  check (Alcotest.list Alcotest.int) "increasing order" [ 3; 7; 64; 100 ] (List.rev !collected);
  check (Alcotest.option Alcotest.int) "max" (Some 100) (Ba_util.Bitset.max_set b)

let prop_bitset_matches_reference =
  QCheck.Test.make ~name:"bitset agrees with a reference set" ~count:200
    QCheck.(list (pair bool (int_bound 500)))
    (fun ops ->
      let b = Ba_util.Bitset.create () in
      let reference = Hashtbl.create 16 in
      List.iter
        (fun (add, i) ->
          if add then begin
            Ba_util.Bitset.set b i;
            Hashtbl.replace reference i ()
          end
          else begin
            Ba_util.Bitset.unset b i;
            Hashtbl.remove reference i
          end)
        ops;
      Ba_util.Bitset.cardinal b = Hashtbl.length reference
      && List.for_all (fun i -> Ba_util.Bitset.mem b i = Hashtbl.mem reference i)
           (List.init 501 (fun i -> i)))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_mean_var () =
  let s = Ba_util.Stats.create () in
  List.iter (Ba_util.Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check Alcotest.int "count" 8 (Ba_util.Stats.count s);
  check (Alcotest.float 1e-9) "mean" 5.0 (Ba_util.Stats.mean s);
  check (Alcotest.float 1e-9) "variance" (32. /. 7.) (Ba_util.Stats.variance s)

let test_stats_empty () =
  let s = Ba_util.Stats.create () in
  check (Alcotest.float 1e-9) "empty mean" 0. (Ba_util.Stats.mean s);
  check (Alcotest.float 1e-9) "empty variance" 0. (Ba_util.Stats.variance s)

let test_stats_percentile () =
  let s = Ba_util.Stats.create () in
  List.iter (Ba_util.Stats.add s) (List.init 101 float_of_int);
  check (Alcotest.float 1e-9) "p50" 50. (Ba_util.Stats.percentile s 0.5);
  check (Alcotest.float 1e-9) "p0" 0. (Ba_util.Stats.percentile s 0.);
  check (Alcotest.float 1e-9) "p100" 100. (Ba_util.Stats.percentile s 1.)

let test_stats_summary () =
  let s = Ba_util.Stats.create () in
  List.iter (Ba_util.Stats.add s) [ 1.; 2.; 3. ];
  let sum = Ba_util.Stats.summary s in
  check (Alcotest.float 1e-9) "min" 1. sum.Ba_util.Stats.min;
  check (Alcotest.float 1e-9) "max" 3. sum.Ba_util.Stats.max;
  check Alcotest.int "count" 3 sum.Ba_util.Stats.count

let test_stats_ci95 () =
  let mean, hw = Ba_util.Stats.ci95 [ 10.; 10.; 10. ] in
  check (Alcotest.float 1e-9) "ci mean" 10. mean;
  check (Alcotest.float 1e-9) "ci halfwidth zero" 0. hw;
  let mean1, hw1 = Ba_util.Stats.ci95 [ 5. ] in
  check (Alcotest.float 1e-9) "single mean" 5. mean1;
  check (Alcotest.float 1e-9) "single halfwidth" 0. hw1

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histogram_binning () =
  let h = Ba_util.Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  List.iter (Ba_util.Histogram.add h) [ 0.; 1.9; 2.; 9.9; 10.; 100.; -5. ];
  check Alcotest.int "total" 7 (Ba_util.Histogram.total h);
  let counts = Ba_util.Histogram.counts h in
  check Alcotest.int "bin0 (incl. below-range)" 3 counts.(0);
  check Alcotest.int "bin1" 1 counts.(1);
  check Alcotest.int "last bin (incl. overflow)" 3 counts.(4)

let test_histogram_ranges () =
  let h = Ba_util.Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  let lo, hi = Ba_util.Histogram.bin_range h 2 in
  check (Alcotest.float 1e-9) "range lo" 4. lo;
  check (Alcotest.float 1e-9) "range hi" 6. hi

let test_histogram_render () =
  let h = Ba_util.Histogram.create ~lo:0. ~hi:4. ~bins:2 in
  List.iter (Ba_util.Histogram.add h) [ 1.; 1.; 3. ];
  let s = Ba_util.Histogram.render ~width:10 h in
  check Alcotest.bool "renders bars" true (String.length s > 0 && String.contains s '#')

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let s = Ba_util.Table.render ~headers:[ "name"; "value" ] [ [ "alpha"; "1" ]; [ "b"; "22" ] ] in
  let lines = String.split_on_char '\n' s in
  check Alcotest.int "line count" 5 (List.length lines);
  (* header, rule, 2 rows, trailing newline *)
  check Alcotest.bool "numeric right-aligned" true
    (String.length (List.nth lines 2) = String.length (List.nth lines 3))

let test_table_pads_missing () =
  let s = Ba_util.Table.render ~headers:[ "a"; "b" ] [ [ "x" ] ] in
  check Alcotest.bool "no exception and content present" true (String.length s > 0)

let test_table_fmt_float () =
  check Alcotest.string "default decimals" "1.500" (Ba_util.Table.fmt_float 1.5);
  check Alcotest.string "custom decimals" "1.50" (Ba_util.Table.fmt_float ~decimals:2 1.5)

(* ------------------------------------------------------------------ *)
(* Qsketch *)

module Qsketch = Ba_util.Qsketch

(* The documented accuracy contract: the sketch's estimate for q lands
   within 3/capacity of q in *rank* — i.e. the estimate sits between the
   exact (q - eps)- and (q + eps)-quantiles of the stream. Rank error is
   the right yardstick for a quantile sketch: value error is unbounded
   on heavy tails however good the sketch. *)
let rank_error_ok ~sorted ~sketch q =
  let eps = 3. /. float_of_int (Qsketch.capacity sketch) in
  let est = Qsketch.quantile sketch q in
  let exact p =
    let a = sorted and n = Array.length sorted in
    let pos = Stdlib.max 0. (Stdlib.min (float_of_int (n - 1)) (p *. float_of_int (n - 1))) in
    let lo = int_of_float (Float.floor pos) in
    let hi = Stdlib.min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)
  in
  let lo = exact (Stdlib.max 0. (q -. eps)) and hi = exact (Stdlib.min 1. (q +. eps)) in
  if est < lo -. 1e-9 || est > hi +. 1e-9 then
    Alcotest.failf "q=%.2f estimate %.4f outside exact rank band [%.4f, %.4f]" q est lo hi

let sketch_of samples =
  let s = Qsketch.create () in
  Array.iter (Qsketch.add s) samples;
  s

let check_stream name samples =
  let s = sketch_of samples in
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  check Alcotest.int (name ^ " count exact") (Array.length samples) (Qsketch.count s);
  check (Alcotest.float 1e-9) (name ^ " min exact") sorted.(0) (Qsketch.min s);
  check (Alcotest.float 1e-9) (name ^ " max exact")
    sorted.(Array.length sorted - 1)
    (Qsketch.max s);
  check Alcotest.bool (name ^ " bounded nodes") true (Qsketch.nodes s <= Qsketch.capacity s);
  List.iter (fun q -> rank_error_ok ~sorted ~sketch:s q) [ 0.5; 0.9; 0.99 ]

(* Accuracy on the three stream shapes the soak can produce: uniform
   noise, a heavy (Pareto-ish) latency tail, and the adversarial
   fully-sorted streams that bias naive merge rules. *)
let test_qsketch_uniform () =
  let rng = Ba_util.Rng.create 41 in
  check_stream "uniform" (Array.init 10_000 (fun _ -> Ba_util.Rng.float rng 1000.))

let test_qsketch_heavy_tail () =
  let rng = Ba_util.Rng.create 42 in
  check_stream "heavy tail"
    (Array.init 10_000 (fun _ ->
         let u = Stdlib.max 1e-6 (Ba_util.Rng.float rng 1.) in
         1. /. (u ** 1.5)))

let test_qsketch_sorted_adversarial () =
  check_stream "ascending" (Array.init 10_000 (fun i -> float_of_int i));
  check_stream "descending" (Array.init 10_000 (fun i -> float_of_int (10_000 - i)))

let test_qsketch_exact_when_small () =
  (* Below capacity nothing ever collapses: every sample is its own
     centroid and the quantiles are genuine order statistics. *)
  let s = Qsketch.create ~capacity:64 () in
  List.iter (Qsketch.add s) [ 5.; 1.; 3.; 2.; 4. ];
  check Alcotest.int "one node per sample" 5 (Qsketch.nodes s);
  check (Alcotest.float 1e-9) "median exact" 3. (Qsketch.quantile s 0.5);
  check (Alcotest.float 1e-9) "q0 is min" 1. (Qsketch.quantile s 0.);
  check (Alcotest.float 1e-9) "q1 is max" 5. (Qsketch.quantile s 1.)

let test_qsketch_flat_memory () =
  let s = Qsketch.create ~capacity:32 () in
  let probe = ref [] in
  for i = 1 to 100_000 do
    Qsketch.add s (float_of_int ((i * 7919) mod 1009));
    if i mod 10_000 = 0 then probe := (Qsketch.nodes s, Qsketch.mem_bytes s) :: !probe
  done;
  (* Saturated long ago: every probe reports the same node count and the
     same constant byte footprint. *)
  (match !probe with
  | [] -> Alcotest.fail "no probes"
  | (n0, b0) :: rest ->
      List.iter
        (fun (n, b) ->
          check Alcotest.int "node count flat" n0 n;
          check Alcotest.int "mem bytes flat" b0 b)
        rest);
  check Alcotest.int "count still exact" 100_000 (Qsketch.count s)

let test_qsketch_deterministic () =
  let build () =
    let s = Qsketch.create () in
    for i = 0 to 9_999 do
      Qsketch.add s (float_of_int ((i * 31) mod 977))
    done;
    (Qsketch.nodes s, Qsketch.quantile s 0.5, Qsketch.quantile s 0.99)
  in
  check
    Alcotest.(triple int (float 0.) (float 0.))
    "same stream, same sketch" (build ()) (build ())

let test_qsketch_validation () =
  Alcotest.check_raises "tiny capacity"
    (Invalid_argument "Qsketch.create: capacity must be >= 8") (fun () ->
      ignore (Qsketch.create ~capacity:4 ()));
  let s = Qsketch.create () in
  Alcotest.check_raises "empty quantile" (Invalid_argument "Qsketch.quantile: empty")
    (fun () -> ignore (Qsketch.quantile s 0.5));
  Qsketch.add s 1.;
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Qsketch.quantile: q out of [0, 1]") (fun () ->
      ignore (Qsketch.quantile s 1.5))

(* Merging must (a) conserve the exact tallies, (b) stay within the rank
   bound of the pooled stream, and (c) be associative up to that same
   bound — the property that lets per-round telemetry fold in any
   grouping (sequential, chunked, tree) to the same answer. *)
let prop_qsketch_merge_associative =
  QCheck.Test.make ~count:60 ~name:"merge is associative within the rank-error bound"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Ba_util.Rng.create seed in
      let part () =
        Array.init
          (200 + Ba_util.Rng.int rng 800)
          (fun _ -> Ba_util.Rng.float rng 500. ** (1. +. Ba_util.Rng.float rng 1.))
      in
      let a = part () and b = part () and c = part () in
      let sa = sketch_of a and sb = sketch_of b and sc = sketch_of c in
      let left = Qsketch.merge (Qsketch.merge sa sb) sc in
      let right = Qsketch.merge sa (Qsketch.merge sb sc) in
      let pooled = Array.concat [ a; b; c ] in
      let sorted = Array.copy pooled in
      Array.sort compare sorted;
      Qsketch.count left = Array.length pooled
      && Qsketch.count right = Array.length pooled
      && Qsketch.min left = Qsketch.min right
      && Qsketch.max left = Qsketch.max right
      && List.for_all
           (fun q ->
             rank_error_ok ~sorted ~sketch:left q;
             rank_error_ok ~sorted ~sketch:right q;
             (* The two groupings agree with each other within twice the
                single-sketch band. *)
             let eps = 6. /. float_of_int (Qsketch.capacity left) in
             let n = Array.length sorted in
             let rank v =
               let r = ref 0 in
               Array.iter (fun x -> if x <= v then incr r) sorted;
               float_of_int !r /. float_of_int n
             in
             Float.abs (rank (Qsketch.quantile left q) -. rank (Qsketch.quantile right q))
             <= eps +. 1e-9)
           [ 0.5; 0.9; 0.99 ])

let test_qsketch_merge_exact_counts () =
  let a = sketch_of (Array.init 500 (fun i -> float_of_int i)) in
  let b = sketch_of (Array.init 300 (fun i -> float_of_int (1000 + i))) in
  let m = Qsketch.merge a b in
  check Alcotest.int "count sums" 800 (Qsketch.count m);
  check (Alcotest.float 1e-9) "min carries" 0. (Qsketch.min m);
  check (Alcotest.float 1e-9) "max carries" 1299. (Qsketch.max m);
  (* Inputs untouched. *)
  check Alcotest.int "left input intact" 500 (Qsketch.count a);
  check Alcotest.int "right input intact" 300 (Qsketch.count b)

let () =
  Alcotest.run "ba_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int covers all" `Quick test_rng_int_covers_all;
          Alcotest.test_case "int_in range" `Quick test_rng_int_in;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Slow test_rng_bernoulli_rate;
          Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
          Alcotest.test_case "geometric" `Slow test_rng_geometric;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "modseq",
        [
          Alcotest.test_case "wrap" `Quick test_modseq_wrap;
          Alcotest.test_case "succ/add/sub" `Quick test_modseq_succ_add_sub;
          Alcotest.test_case "distance" `Quick test_modseq_distance;
          Alcotest.test_case "in_window" `Quick test_modseq_in_window;
          Alcotest.test_case "reconstruct examples" `Quick test_modseq_reconstruct_examples;
          qcheck prop_modseq_reconstruct;
          qcheck prop_modseq_reconstruct_outside;
          qcheck prop_modseq_distance_inverse;
        ] );
      ( "ring_buffer",
        [
          Alcotest.test_case "set/get" `Quick test_ring_set_get;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "collision" `Quick test_ring_collision;
          Alcotest.test_case "overwrite same index" `Quick test_ring_overwrite_same_index;
          Alcotest.test_case "remove and iter" `Quick test_ring_remove_and_iter;
          Alcotest.test_case "clear" `Quick test_ring_clear;
          Alcotest.test_case "invalid capacity" `Quick test_ring_invalid_capacity;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "growth" `Quick test_bitset_growth;
          Alcotest.test_case "unset" `Quick test_bitset_unset;
          Alcotest.test_case "iter order" `Quick test_bitset_iter_order;
          qcheck prop_bitset_matches_reference;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/var" `Quick test_stats_mean_var;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "ci95" `Quick test_stats_ci95;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "binning" `Quick test_histogram_binning;
          Alcotest.test_case "ranges" `Quick test_histogram_ranges;
          Alcotest.test_case "render" `Quick test_histogram_render;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "pads missing" `Quick test_table_pads_missing;
          Alcotest.test_case "fmt_float" `Quick test_table_fmt_float;
        ] );
      ( "qsketch",
        [
          Alcotest.test_case "uniform stream" `Quick test_qsketch_uniform;
          Alcotest.test_case "heavy-tailed stream" `Quick test_qsketch_heavy_tail;
          Alcotest.test_case "sorted adversarial" `Quick test_qsketch_sorted_adversarial;
          Alcotest.test_case "exact below capacity" `Quick test_qsketch_exact_when_small;
          Alcotest.test_case "flat memory" `Quick test_qsketch_flat_memory;
          Alcotest.test_case "deterministic" `Quick test_qsketch_deterministic;
          Alcotest.test_case "validation" `Quick test_qsketch_validation;
          Alcotest.test_case "merge exact counts" `Quick test_qsketch_merge_exact_counts;
          qcheck prop_qsketch_merge_associative;
        ] );
    ]

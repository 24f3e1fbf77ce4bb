(* The repo benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

   Set-up runs [setup_reps] times (input generation, worker spawn and one
   warm-up round of units each) and reports the median as setup_s. Then:

   - trace 0 repeats the workload's unit for S seconds, cycling through
     the workload's [seeds] unit seeds, and reports the end-to-end
     metrics: a time is the median over units, each unit's time taken to
     the reference host speed by the Calib slices run next to it; a count
     exact on the workload is taken over the first round; any other count
     is the median over units;
   - trace 1 alternates untraced and traced units (same seeds) for three
     quarters of S, checks that the traced units reproduce the untraced
     ones exactly, times every isolated layer row in the last quarter, and
     reports the per-layer metrics: layer rows, per-message counts, the
     traced span breakdown and the cost model.

   The last stdout line is one JSON object (correct, attempted, failed,
   metrics). Any failed payload makes the exit code 1. *)

module W = Workloads

let median = Layers.median

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

type args = { workload : string; seed : int; seconds : float; trace : bool; tiny : bool }

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 and tiny = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " W.names);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the per-layer breakdown");
      ("--tiny", Arg.Set tiny, " tiny units (smoke test)");
    ]
  in
  Arg.parse spec (fun a -> die "unexpected argument %s" a) "main.exe --workload NAME ...";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !seed < 0 then die "--seed must be >= 0";
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1; tiny = !tiny }

(* Unit k of a run with seed s uses seed s*10000+1+(k mod seeds); unit k
   of set-up rep r uses s*10000+5001+r*seeds+k. The same seed always gives
   the same inputs. *)
let unit_seed a (w : W.t) k = (a.seed * 10_000) + 1 + (k mod w.seeds)
let setup_seed a (w : W.t) rep k = (a.seed * 10_000) + 5_001 + (rep * w.seeds) + k

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
      in
      find ())

(* ---- accounting ----------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

let account (o : W.outcome) =
  attempted := !attempted + o.offered;
  failed := !failed + o.failed;
  if o.failed > 0 then
    Printf.printf "FAILED: %d of %d payloads (delivered %d)\n%!" o.failed o.offered o.delivered

let per_msg (o : W.outcome) x = x /. float_of_int (max 1 o.delivered)
let msgs_per_s (o : W.outcome) = float_of_int o.delivered /. o.wall_s

(* ---- set-up --------------------------------------------------------- *)

(* The host speed next to each unit (see Calib): slices run after every
   unit for a tenth of its time, one slice at least, and a unit's slice
   time is the mean of the median slices just before and just after it.
   Returns the unit's outcome, its slice time and the time the slices
   after it took. *)
let last_slice = ref None

let timed_unit (w : W.t) ~seed ~first =
  let before =
    match !last_slice with Some s -> s | None -> fst (Calib.sample ~at_least:0.)
  in
  let o = w.run ~protocol:W.protocol ~seed ~first in
  account o;
  let after, slices_s = Calib.sample ~at_least:(o.wall_s /. 10.) in
  last_slice := Some after;
  (o, (before +. after) /. 2., slices_s)

(* One set-up is the workload's [prepare] and a warm-up round of units,
   one per seed; its time leaves out the reference slices and is taken to
   the reference speed by their median. *)
let setup a (w : W.t) =
  let reps = if a.tiny then 1 else w.setup_reps in
  let times = ref [] and first = ref None in
  for rep = 0 to reps - 1 do
    let t0 = Clock.wall () in
    w.prepare ();
    let slices = ref [] and slices_s = ref 0. in
    for k = 0 to w.seeds - 1 do
      let first_unit = rep = 0 && k = 0 in
      let o, slice_s, spent = timed_unit w ~seed:(setup_seed a w rep k) ~first:first_unit in
      slices := slice_s :: !slices;
      slices_s := !slices_s +. spent;
      if first_unit then first := Some o
    done;
    let wall = Clock.wall () -. t0 -. !slices_s in
    times := (wall *. Calib.scale (median !slices)) :: !times
  done;
  (median !times, Option.get !first)

(* ---- output --------------------------------------------------------- *)

let json_number name x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else die "metric %s is not a finite number (%f)" name x

let emit metrics =
  let m =
    List.map
      (fun (name, unit_, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number name v) unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed (String.concat ", " m);
  exit (if !failed = 0 then 0 else 1)

let host_line () =
  Printf.printf
    "host: nproc=%d pool.default_jobs=%d pool.spawned_domains=%d ocaml=%s link=loopback, no real link\n%!"
    W.nproc
    (Ba_parallel.Pool.default_jobs ())
    (Ba_parallel.Pool.spawned_domains ())
    Sys.ocaml_version

(* ---- trace 0: end-to-end -------------------------------------------- *)

let end_to_end a (w : W.t) setup_s =
  let deadline = Clock.wall () +. a.seconds in
  let min_units = max 5 (3 * w.seeds) in
  let rec loop k acc =
    if k >= min_units && Clock.wall () >= deadline then List.rev acc
    else begin
      let o, slice_s, _ = timed_unit w ~seed:(unit_seed a w k) ~first:false in
      loop (k + 1) ((o, Calib.scale slice_s) :: acc)
    end
  in
  let units = loop 0 [] in
  let outcomes = List.map fst units in
  (* A time is the median over units of the unit's own time at the
     reference speed (see Calib). *)
  let timed f = median (List.map (fun ((o : W.outcome), scale) -> f o scale) units) in
  (* An exact count is taken over the first round of units, one per seed,
     which every run makes with the same seeds, so it repeats bit for bit
     whatever the host speed; any other count is the median over all
     units. *)
  let first = List.filteri (fun i _ -> i < w.seeds) outcomes in
  let sum = List.fold_left ( +. ) 0. in
  let count name unit_ (f : W.outcome -> float) =
    let v =
      if List.mem name w.exact_counts then
        sum (List.map f first)
        /. sum (List.map (fun (o : W.outcome) -> float_of_int o.delivered) first)
      else median (List.map (fun o -> per_msg o (f o)) outcomes)
    in
    (name, unit_, v)
  in
  Printf.printf
    "workload %s: %d units of %d payloads over %d seeds; median msgs/s %.0f as measured, \
     reference slice median %.2f ms (nominal %.2f ms)\n"
    w.name (List.length units) (List.hd outcomes).offered w.seeds
    (median (List.map msgs_per_s outcomes))
    (median (List.map (fun (_, scale) -> Calib.nominal_s *. 1e3 /. scale) units))
    (Calib.nominal_s *. 1e3);
  host_line ();
  emit
    [
      ("msgs_per_s", "1/s", timed (fun o scale -> msgs_per_s o /. scale));
      ("setup_s", "s", setup_s);
      ("latency_p50_ms", "ms", timed (fun o scale -> o.p50_ms *. scale));
      ("latency_p99_ms", "ms", timed (fun o scale -> o.p99_ms *. scale));
      count "alloc_bytes_per_msg" "B" (fun o -> o.alloc_bytes);
      count "acks_per_msg" "ratio" (fun o -> float_of_int o.ack_frames);
      count "data_frames_per_msg" "ratio" (fun o -> float_of_int o.data_frames);
      ("peak_rss_mb", "MiB", peak_rss_mb ());
    ]

(* ---- trace 1: per-layer --------------------------------------------- *)

(* Σ(row ns/op × ops per message) over the workload's cost model. *)
let cost_model (w : W.t) (rows : Layers.row list) ~data ~acks (o : W.outcome) =
  let ns name =
    match List.find_opt (fun (r : Layers.row) -> r.name = name) rows with
    | Some r -> r.ns
    | None -> die "no layer row %s" name
  in
  List.map (fun (name, ops) -> (name, ops, ns name *. ops)) (w.cost ~data ~acks o)

let per_layer a (w : W.t) (setup_unit : W.outcome) =
  let traced = Traced.wrap W.protocol in
  (* Three quarters of the run for units, then the isolated rows: the
     pool rows spawn worker domains, which must not idle beside the
     units of a single-domain workload. *)
  let deadline = Clock.wall () +. (a.seconds *. 0.75) in
  let rec loop k acc =
    if k >= 1 && Clock.wall () >= deadline then List.rev acc
    else begin
      let seed = unit_seed a w k in
      let u = w.run ~protocol:W.protocol ~seed ~first:false in
      account u;
      Traced.reset ();
      let t = w.run ~protocol:traced ~seed ~first:false in
      account t;
      let spans = Traced.totals () in
      if t.exact <> u.exact then begin
        Printf.printf "traced unit %d differs from untraced:\n  %s\n  %s\n" k t.exact u.exact;
        failed := !failed + t.offered
      end;
      loop (k + 1) ((u, t, spans) :: acc)
    end
  in
  let pairs = loop 0 [] in
  let spawned = Ba_parallel.Pool.spawned_domains () in
  host_line ();
  let rows = Layers.all ~total_s:(a.seconds *. 0.25) ~nproc:W.nproc in
  let med f = median (List.map f pairs) in
  let u0, _, _ = List.hd pairs in
  let speedup =
    match w.speedup with Some f -> f ~seed:(unit_seed a w 0) u0 | None -> 0.
  in
  let untraced_ns = med (fun (u, _, _) -> u.wall_s *. 1e9 /. float_of_int u.delivered) in
  let traced_ns = med (fun (_, t, _) -> t.wall_s *. 1e9 /. float_of_int t.delivered) in
  let domains = float_of_int w.domains in
  let span_ns i =
    med (fun (_, (t : W.outcome), (self, _)) -> per_msg t (float_of_int self.(i)))
  in
  let span_rows = List.init Traced.spans (fun i -> (Traced.names.(i), span_ns i)) in
  let span_sum = List.fold_left (fun acc (_, x) -> acc +. x) 0. span_rows in
  let calls i = med (fun (_, (t : W.outcome), (_, calls)) -> per_msg t (float_of_int calls.(i))) in
  let data = calls Traced.Span.data_tx and acks = calls Traced.Span.ack_tx in
  let count name (o : W.outcome) = Option.value ~default:0. (List.assoc_opt name o.counts) in
  let cmed name = med (fun (u, _, _) -> count name u) in
  let terms = cost_model w rows ~data ~acks u0 in
  let predicted = List.fold_left (fun acc (_, _, ns) -> acc +. ns) 0. terms in
  (* The shard's cells run on [nproc] domains: its single-domain cost is
     the jobs=1 unit, which the speedup measurement ran. *)
  let measured = if speedup > 0. then untraced_ns *. speedup else untraced_ns in
  Printf.printf "workload %s: %d pairs of untraced and traced units\n" w.name (List.length pairs);
  Printf.printf "layer rows (median batch, ns or us per op):\n";
  List.iter
    (fun (r : Layers.row) ->
      Printf.printf "  %-30s %10.2f %s/op  n=%d\n" r.name (Layers.value r) r.unit_ r.samples)
    rows;
  Printf.printf "traced self time per delivered message:\n";
  List.iter (fun (n, x) -> Printf.printf "  %-18s %10.1f ns\n" n x) span_rows;
  Printf.printf "  %-18s %10.1f ns  (engine, link delivery, driver receive/decode, barriers)\n"
    "residual" ((traced_ns *. domains) -. span_sum);
  Printf.printf "  traced %.1f ns/msg vs untraced %.1f ns/msg: overhead x%.3f\n" traced_ns
    untraced_ns (traced_ns /. untraced_ns);
  Printf.printf "cost model (layer row x ops per message):\n";
  List.iter
    (fun (n, ops, ns) -> Printf.printf "  %-30s x %7.3f = %9.1f ns\n" n ops ns)
    terms;
  Printf.printf "  predicted %.1f ns/msg, measured %.1f ns/msg (one domain), residual %.1f%%\n"
    predicted measured
    (100. *. (measured -. predicted) /. measured);
  if speedup > 0. then
    Printf.printf "shard speedup, jobs=%d over jobs=1: x%.2f%s\n" W.nproc speedup
      (if speedup < 1.1 then " (no speedup from extra domains on this host)" else "");
  let row_metrics = List.map (fun (r : Layers.row) -> (r.name, r.unit_, Layers.value r)) rows in
  let umed f = med (fun (u, _, _) -> f u) in
  emit
    (row_metrics
    @ [
        ("link.drops_per_msg", "ratio", cmed "link.drops_per_msg");
        ("frames.data_per_msg", "ratio", data);
        ("frames.ack_per_msg", "ratio", acks);
        ("udp.datagrams_per_msg", "ratio", cmed "udp.datagrams_per_msg");
        ("udp.decode_errors", "count", cmed "udp.decode_errors");
        ("udp.send_errors", "count", cmed "udp.send_errors");
        ("pool.spawned_domains", "count", float_of_int spawned);
        ("shard.epochs", "count", cmed "shard.epochs");
        ("shard.cells", "count", cmed "shard.cells");
        ("shard.lease_drops", "count", cmed "shard.lease_drops");
        ("shard.lease_rebalances", "count", cmed "shard.lease_rebalances");
        ("shard.state_bytes_per_flow", "B", count "shard.state_bytes_per_flow" setup_unit);
        ("shard.speedup", "ratio", speedup);
        ("model.retx_per_msg", "ratio", umed (fun u -> per_msg u (float_of_int u.retx)));
        ( "model.goodput_per_ktick",
          "msgs/ktick",
          umed (fun u -> float_of_int u.delivered *. 1000. /. u.ticks) );
        ("model.latency_p50_ticks", "ticks", umed (fun u -> u.p50_ticks));
        ("model.latency_p99_ticks", "ticks", umed (fun u -> u.p99_ticks));
      ]
    @ List.map (fun (n, x) -> ("trace." ^ n ^ "_ns_per_msg", "ns", x)) span_rows
    @ [
        ("trace.residual_ns_per_msg", "ns", (traced_ns *. domains) -. span_sum);
        ("trace.untraced_ns_per_msg", "ns", untraced_ns);
        ("trace.overhead", "ratio", traced_ns /. untraced_ns);
        ("costmodel.predicted_ns_per_msg", "ns", predicted);
        ("costmodel.residual_frac", "ratio", (measured -. predicted) /. measured);
      ])

let () =
  let a = parse_args () in
  let w =
    match W.find ~tiny:a.tiny a.workload with
    | Some w -> w
    | None -> die "unknown workload %S (expected one of %s)" a.workload (String.concat ", " W.names)
  in
  if a.seconds <= 0. then die "--seconds must be positive";
  let setup_s, setup_unit = setup a w in
  if a.trace then per_layer a w setup_unit else end_to_end a w setup_s

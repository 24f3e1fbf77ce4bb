(* The four benchmark workloads, each a repeatable "unit" of work run
   through a layer's public entry point: one Harness transfer, one Shard
   run, one loopback Pair transfer. A unit returns everything the
   metrics need, so the timed loop, the traced run and the smoke test
   all read the same record. *)

module Q = Ba_util.Qsketch

type outcome = {
  offered : int;
  delivered : int;
  failed : int;
      (** payloads not delivered, duplicated, misordered or corrupted;
          [offered] when the stream digest does not match *)
  wall_s : float;
  alloc_bytes : float;  (** minor-heap bytes allocated, all domains *)
  ticks : float;  (** virtual ticks (sim), or wall time in transport ticks (udp) *)
  p50_ticks : float;
  p99_ticks : float;
  p50_ms : float;
      (** delivery latency: wall clock on udp; on the simulated workloads
          the virtual latency at the unit's own wall time per tick *)
  p99_ms : float;
  data_frames : int;
  ack_frames : int;
  retx : int;
  exact : string;  (** the deterministic outputs, for traced-vs-untraced equality *)
  counts : (string * float) list;  (** workload-specific per-layer counts *)
}

type t = {
  name : string;
  seeds : int;
      (** a run cycles through this many unit seeds; one unit per seed is
          a round (a set-up's warm-up, and the units exact counts come
          from) *)
  setup_reps : int;
  exact_counts : string list;
      (** the end-to-end counts that are a pure function of the unit's seed *)
  prepare : unit -> unit;  (** input generation and worker spawn, once per set-up *)
  run : protocol:Ba_proto.Protocol.t -> seed:int -> first:bool -> outcome;
      (** [first] marks the first set-up unit, which may do one-off
          measurement work (the shard's [measure_mem]) *)
  speedup : (seed:int -> outcome -> float) option;
      (** the same unit at [jobs = 1], as nproc-vs-1 speedup *)
  domains : int;  (** domains a unit runs on *)
  cost : data:float -> acks:float -> outcome -> (string * float) list;
      (** the cost model: isolated layer rows and how many of each
          operation one delivered message costs, given the data and ack
          frames per message *)
}

let protocol = Blockack.Protocols.multi
let nproc = Domain.recommended_domain_count ()

(* Minor words are the allocation count that repeats exactly (major-heap
   words are updated lazily in OCaml 5). [quick_stat] sums every
   domain's counters as of its last minor collection, so a forced minor
   collection, outside the timed span, makes the sum current. *)
let minor_bytes () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words *. float_of_int (Sys.word_size / 8)

(* Each unit starts from a collected heap: the previous unit's garbage
   (~0.5 GB of cells on shard) would otherwise stay and set the peak RSS. *)
let measure f =
  Gc.full_major ();
  let a0 = minor_bytes () in
  let t0 = Clock.wall () in
  let r = f () in
  let wall_s = Clock.wall () -. t0 in
  (r, wall_s, minor_bytes () -. a0)

(* [sender.on_ack_ns] acknowledges one message and sends its successor,
   so it counts once per message; every further data frame is a
   retransmission: a fresh frame, a timer re-arm and the timer event that
   fired it. *)
let endpoint_cost ~data =
  let retx = Float.max 0. (data -. 1.) in
  [
    ("receiver.on_data_inorder_ns", data);
    ("sender.on_ack_ns", 1.);
    ("wire.pool_ns", retx);
    ("engine.timer_rearm_ns", retx);
    ("engine.event_ns", retx);
  ]

let failures ~offered ~delivered ~duplicates ~misordered ~corrupted ~completed =
  let missing = if completed then offered - delivered else max 1 (offered - delivered) in
  min offered (missing + duplicates + misordered + corrupted)

(* ---- sim-lossy ------------------------------------------------------ *)

(* The F1 config (bench/main.ml's losses_config) with 5% loss both ways
   over a constant 50-tick link. *)
let f1_config =
  Ba_proto.Proto_config.make ~window:16 ~rto:300 ~wire_modulus:(Some 32) ~ack_coalesce:30
    ~max_transit:50 ()

let sim_lossy ~messages =
  let run ~protocol ~seed ~first:_ =
    let (r : Ba_proto.Harness.result), wall_s, alloc_bytes =
      measure (fun () ->
          Ba_proto.Harness.run protocol ~seed ~messages ~payload_size:32 ~config:f1_config
            ~data_loss:0.05 ~ack_loss:0.05 ~data_delay:(Ba_channel.Dist.Constant 50)
            ~ack_delay:(Ba_channel.Dist.Constant 50) ())
    in
    let p50, p99 =
      match r.latency with
      | Some s -> (s.Ba_util.Stats.p50, s.Ba_util.Stats.p99)
      | None -> (0., 0.)
    in
    let ticks = float_of_int (max 1 r.ticks) in
    let ms_per_tick = wall_s *. 1e3 /. ticks in
    {
      offered = r.messages;
      delivered = r.delivered;
      failed =
        (if Ba_proto.Harness.correct r then 0
         else
           failures ~offered:r.messages ~delivered:r.delivered ~duplicates:r.duplicates
             ~misordered:r.misordered ~corrupted:r.corrupted ~completed:r.completed);
      wall_s;
      alloc_bytes;
      ticks;
      p50_ticks = p50;
      p99_ticks = p99;
      p50_ms = p50 *. ms_per_tick;
      p99_ms = p99 *. ms_per_tick;
      data_frames = r.data_sent;
      ack_frames = r.acks_sent;
      retx = r.retransmissions;
      exact =
        Printf.sprintf "ticks=%d delivered=%d data=%d acks=%d retx=%d dropped=%d/%d p50=%g p99=%g"
          r.ticks r.delivered r.data_sent r.acks_sent r.retransmissions r.data_dropped
          r.acks_dropped p50 p99;
      counts =
        [
          ( "link.drops_per_msg",
            float_of_int (r.data_dropped + r.acks_dropped) /. float_of_int (max 1 r.delivered) );
        ];
    }
  in
  {
    name = "sim-lossy";
    seeds = 30;
    setup_reps = 5;
    exact_counts = [ "alloc_bytes_per_msg"; "acks_per_msg"; "data_frames_per_msg" ];
    prepare = ignore;
    run;
    speedup = None;
    domains = 1;
    (* Flow keeps each pulled payload, so it validates without
       regenerating it. *)
    cost =
      (fun ~data ~acks _ ->
        (("link.frame_ns", data +. acks) :: endpoint_cost ~data)
        @ [ ("workload.payload_ns.32B", 1.) ]);
  }

(* ---- shard-100k ----------------------------------------------------- *)

let registry_entry name =
  match Ba_registry.Registry.find name with
  | Some e -> e
  | None -> invalid_arg ("unknown registry protocol " ^ name)

let shard ~flows =
  let e = registry_entry "blockack-multi" in
  let config = Ba_registry.Registry.config ~window:8 ~rto:400 e () in
  let cache = ref None in
  let specs_for protocol =
    match !cache with
    | Some (p, specs) when p == protocol -> specs
    | Some _ | None ->
        let specs = List.init flows (fun _ -> Ba_proto.Fabric.spec ~config ~messages:4 protocol) in
        cache := Some (protocol, specs);
        specs
  in
  let prepare () =
    (* Spawn the shared pool's workers and build the flow specs. *)
    ignore (Ba_parallel.Pool.map_chunks ~jobs:nproc ~chunk:1 Fun.id (List.init nproc Fun.id));
    cache := None;
    ignore (specs_for protocol)
  in
  let run_at ~jobs ~protocol ~seed ~measure_mem =
    let specs = specs_for protocol in
    let (r : Ba_proto.Shard.result), wall_s, alloc_bytes =
      measure (fun () ->
          Ba_proto.Shard.run ~seed ~jobs ~barrier:100 ~data_loss:0.01 ~ack_loss:0.01
            ~measure_mem specs)
    in
    let p50, p99 =
      if Q.count r.latency = 0 then (0., 0.)
      else (Q.quantile r.latency 0.5, Q.quantile r.latency 0.99)
    in
    let ticks = float_of_int (max 1 r.ticks) in
    let ms_per_tick = wall_s *. 1e3 /. ticks in
    let ok =
      r.completed && r.duplicates = 0 && r.misordered = 0 && r.corrupted = 0
      && r.delivered = r.messages
    in
    {
      offered = r.messages;
      delivered = r.delivered;
      failed =
        (if ok then 0
         else
           failures ~offered:r.messages ~delivered:r.delivered ~duplicates:r.duplicates
             ~misordered:r.misordered ~corrupted:r.corrupted ~completed:r.completed);
      wall_s;
      alloc_bytes;
      ticks;
      p50_ticks = p50;
      p99_ticks = p99;
      p50_ms = p50 *. ms_per_tick;
      p99_ms = p99 *. ms_per_tick;
      data_frames = r.data_sent;
      ack_frames = r.acks_sent;
      retx = r.retransmissions;
      exact = Ba_proto.Shard.summary r;
      counts =
        [
          ("shard.epochs", float_of_int r.epochs);
          ("shard.cells", float_of_int r.cells);
          ("shard.lease_drops", float_of_int r.lease_drops);
          ("shard.lease_rebalances", float_of_int r.lease_rebalances);
        ]
        @
        if measure_mem then
          [ ("shard.state_bytes_per_flow", float_of_int r.state_bytes /. float_of_int (max 1 r.flows)) ]
        else [];
    }
  in
  {
    name = "shard-100k";
    seeds = 1;
    setup_reps = 3;
    (* Pool scheduling moves the minor words by ~0.1%. *)
    exact_counts = [ "acks_per_msg"; "data_frames_per_msg" ];
    prepare;
    (* The first set-up unit measures per-flow state: its two forced
       major GCs stay out of every timed unit. *)
    run = (fun ~protocol ~seed ~first -> run_at ~jobs:nproc ~protocol ~seed ~measure_mem:first);
    speedup =
      Some
        (fun ~seed (par : outcome) ->
          let seq = run_at ~jobs:1 ~protocol ~seed ~measure_mem:false in
          if seq.exact <> par.exact then failwith "shard: jobs=1 result differs from jobs=nproc";
          seq.wall_s /. par.wall_s);
    domains = nproc;
    cost =
      (fun ~data ~acks o ->
        let epochs = List.assoc "shard.epochs" o.counts in
        (("link.frame_ns", data +. acks) :: endpoint_cost ~data)
        @ [
            ("workload.payload_ns.32B", 2.);
            ("qsketch.add_ns", 1.);
            ("pool.dispatch_us.nproc", epochs *. float_of_int nproc /. float_of_int o.delivered);
          ]);
  }

(* ---- udp-small / udp-bulk ------------------------------------------- *)

let tick_us = 200

let udp ~name ~payload_size ~messages ~setup_reps =
  let e = registry_entry "blockack" in
  let config = Ba_registry.Registry.config ~window:16 ~rto:250 e () in
  let run ~protocol ~seed ~first:_ =
    let (o : Ba_transport.Endpoint.Pair.outcome), _, alloc_bytes =
      measure (fun () ->
          Ba_transport.Endpoint.Pair.run ~protocol ~config ~messages ~payload_size ~wseed:seed
            ~tick_us ~deadline_s:60. ())
    in
    let q p = if Q.count o.latency_ms = 0 then 0. else Q.quantile o.latency_ms p in
    let p50 = q 0.5 and p99 = q 0.99 in
    let ticks_of_ms ms = ms *. 1e3 /. float_of_int tick_us in
    (* Client datagrams are data frames (first copies plus retransmissions,
       and handshake frames); the rest of the traffic is the server's. *)
    let data_frames = o.delivered + o.retransmissions in
    let ok =
      o.completed && o.duplicates = 0 && o.misordered = 0 && o.corrupted = 0
      && o.delivered = messages
    in
    {
      offered = messages;
      delivered = o.delivered;
      failed =
        (if o.digest <> o.digest_expected then messages
         else if ok then 0
         else
           failures ~offered:messages ~delivered:o.delivered ~duplicates:o.duplicates
             ~misordered:o.misordered ~corrupted:o.corrupted ~completed:o.completed);
      wall_s = o.wall_s;
      alloc_bytes;
      ticks = ticks_of_ms (o.wall_s *. 1e3);
      p50_ticks = ticks_of_ms p50;
      p99_ticks = ticks_of_ms p99;
      p50_ms = p50;
      p99_ms = p99;
      data_frames;
      ack_frames = o.frames_tx - data_frames - o.resync_rounds;
      retx = o.retransmissions;
      exact = Printf.sprintf "delivered=%d digest=%d" o.delivered o.digest;
      counts =
        [
          ( "udp.datagrams_per_msg",
            float_of_int o.frames_tx /. float_of_int (max 1 o.delivered) );
          ("udp.decode_errors", float_of_int o.decode_errors);
          ("udp.send_errors", float_of_int o.send_errors);
        ];
    }
  in
  let size = if payload_size > 100 then "1KiB" else "32B" in
  let cost ~data ~acks _ =
    [
      ("codec.encode_ns." ^ size, data);
      ("codec.decode_ns." ^ size, data);
      ("codec.encode_ns.32B", acks);
      ("codec.decode_ns.32B", acks);
      ("udp.roundtrip_us", data +. acks);
    ]
    @ endpoint_cost ~data
    @ (if size = "1KiB" then [ ("wire.checksum_ns.1KiB", 2. *. data) ] else [])
    @ [ ("workload.payload_ns." ^ size, 2.); ("qsketch.add_ns", 1.) ]
  in
  {
    name;
    seeds = 10;
    setup_reps;
    exact_counts = [];
    prepare = ignore;
    run;
    speedup = None;
    domains = 1;
    cost;
  }

(* ---- registry ------------------------------------------------------- *)

let names = [ "sim-lossy"; "shard-100k"; "udp-small"; "udp-bulk" ]

(* [tiny] shrinks every unit for the smoke test; the metrics keep their
   definitions. *)
let find ~tiny name =
  let n full small = if tiny then small else full in
  match name with
  | "sim-lossy" -> Some (sim_lossy ~messages:(n 10_000 1_000))
  | "shard-100k" -> Some (shard ~flows:(n 100_000 2_000))
  | "udp-small" ->
      Some (udp ~name ~payload_size:32 ~messages:(n 3_000 300) ~setup_reps:5)
  | "udp-bulk" ->
      Some (udp ~name ~payload_size:1024 ~messages:(n 1_000 100) ~setup_reps:3)
  | _ -> None


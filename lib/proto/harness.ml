type result = {
  protocol : string;
  completed : bool;
  ticks : int;
  messages : int;
  delivered : int;
  duplicates : int;
  misordered : int;
  corrupted : int;
  data_sent : int;
  data_dropped : int;
  data_queue_dropped : int;
  data_reordered : int;
  data_duplicated : int;
  data_corrupted : int;
  data_outage_drops : int;
  acks_sent : int;
  acks_dropped : int;
  acks_corrupted : int;
  ack_outage_drops : int;
  retransmissions : int;
  goodput : float;
  latency : Ba_util.Stats.summary option;
  latencies : float list;
  ack_overhead : float;
  efficiency : float;
  crashes : int;
  restarts : int;
  resync_rounds : int;
  resync_ticks : Ba_util.Stats.summary option;
  retx_bytes : int;
  pressure_drops : int;
}

type setup = {
  engine : Ba_sim.Engine.t;
  data_link : Wire.data Ba_channel.Link.t;
  ack_link : Wire.ack Ba_channel.Link.t;
}

let zero_stats =
  {
    Ba_channel.Link.sent = 0;
    delivered = 0;
    dropped = 0;
    queue_dropped = 0;
    reordered = 0;
    duplicated = 0;
    corrupted = 0;
    outage_drops = 0;
  }

let flow_result tbl i ?data_stats ?ack_stats ~ticks () =
  let module T = Flow_table in
  let sp = T.spec tbl i in
  let (module P : Protocol.S) = sp.T.protocol in
  let own n = { zero_stats with Ba_channel.Link.sent = n } in
  let dstats = Option.value data_stats ~default:(own (T.data_sent tbl i)) in
  let astats = Option.value ack_stats ~default:(own (T.acks_sent tbl i)) in
  let delivered = T.delivered tbl i in
  let payload_bytes_delivered = delivered * sp.T.payload_size in
  let lat = T.latency tbl i in
  {
    protocol = P.name;
    completed = T.is_complete tbl i;
    ticks;
    messages = sp.T.messages;
    delivered;
    duplicates = T.duplicates tbl i;
    misordered = T.misordered tbl i;
    corrupted = T.corrupted tbl i;
    data_sent = dstats.Ba_channel.Link.sent;
    data_dropped = dstats.Ba_channel.Link.dropped;
    data_queue_dropped = dstats.Ba_channel.Link.queue_dropped;
    data_reordered = dstats.Ba_channel.Link.reordered;
    data_duplicated = dstats.Ba_channel.Link.duplicated;
    data_corrupted = dstats.Ba_channel.Link.corrupted;
    data_outage_drops = dstats.Ba_channel.Link.outage_drops;
    acks_sent = astats.Ba_channel.Link.sent;
    acks_dropped = astats.Ba_channel.Link.dropped;
    acks_corrupted = astats.Ba_channel.Link.corrupted;
    ack_outage_drops = astats.Ba_channel.Link.outage_drops;
    retransmissions = T.retransmissions tbl i;
    goodput = (if ticks = 0 then 0. else float_of_int delivered *. 1000. /. float_of_int ticks);
    latency = (if Ba_util.Stats.count lat = 0 then None else Some (Ba_util.Stats.summary lat));
    latencies = Ba_util.Stats.samples lat;
    ack_overhead =
      (if payload_bytes_delivered = 0 then 0.
       else
         float_of_int (astats.Ba_channel.Link.sent * P.ack_wire_bytes)
         /. float_of_int payload_bytes_delivered);
    efficiency =
      (if dstats.Ba_channel.Link.sent = 0 then 0.
       else float_of_int delivered /. float_of_int dstats.Ba_channel.Link.sent);
    crashes = T.crashes tbl i;
    restarts = T.restarts tbl i;
    resync_rounds = T.resync_rounds tbl i;
    resync_ticks = T.resync_ticks tbl i ~ticks;
    retx_bytes = T.retx_bytes tbl i;
    pressure_drops = T.pressure_drops tbl i;
  }

let run protocol ?(seed = 42) ?(messages = 1000) ?(payload_size = 32)
    ?(config = Proto_config.default) ?(data_loss = 0.) ?(ack_loss = 0.)
    ?(data_delay = Ba_channel.Dist.Uniform (40, 60)) ?(ack_delay = Ba_channel.Dist.Uniform (40, 60))
    ?data_bottleneck ?data_plan ?ack_plan ?(crash_plan = Crash_plan.none) ?deadline ?on_setup () =
  let spec =
    { Flow_table.protocol; config; messages; payload_size; start_at = 0; stop_at = None;
      crash_plan }
  in
  Flow_table.validate ~who:"Harness.run" ~budget:None [ spec ];
  let engine = Ba_sim.Engine.create ~seed () in
  let tbl = ref None in
  let data_link =
    Ba_channel.Link.create engine ~loss:data_loss ~delay:data_delay ?bottleneck:data_bottleneck
      ~corrupt:Wire.corrupt_data ~release:Wire.release_data
      ~deliver:(fun d -> match !tbl with Some t -> Flow_table.on_data t 0 d | None -> ())
      ()
  in
  let ack_link =
    Ba_channel.Link.create engine ~loss:ack_loss ~delay:ack_delay
      ~corrupt:Wire.corrupt_ack ~release:Wire.release_ack
      ~deliver:(fun a -> match !tbl with Some t -> Flow_table.on_ack t 0 a | None -> ())
      ()
  in
  Option.iter (Ba_channel.Link.set_plan data_link) data_plan;
  Option.iter (Ba_channel.Link.set_plan ack_link) ack_plan;
  let t =
    Flow_table.create engine
      ~workload_seed:(fun _ -> seed)
      ~latency:Flow_table.Per_flow ~budget:None ~watchdog:None
      ~data_tx:(fun _ d -> Ba_channel.Link.send data_link d)
      ~ack_tx:(fun _ a -> Ba_channel.Link.send ack_link a)
      [ spec ]
  in
  tbl := Some t;
  Option.iter (fun g -> g { engine; data_link; ack_link }) on_setup;
  Flow_table.start t;
  let deadline = match deadline with Some d -> d | None -> Flow_table.deadline t in
  Ba_sim.Engine.run ~until:deadline engine;
  flow_result t 0
    ~data_stats:(Ba_channel.Link.stats data_link)
    ~ack_stats:(Ba_channel.Link.stats ack_link)
    ~ticks:(Ba_sim.Engine.now engine) ()

let correct r = r.completed && r.duplicates = 0 && r.misordered = 0 && r.corrupted = 0

let pp_result ppf r =
  Format.fprintf ppf
    "%s: %s in %d ticks — %d/%d delivered (dup=%d ooo=%d bad=%d), data sent=%d dropped=%d \
     reord=%d, acks=%d dropped=%d, retx=%d, goodput=%.3f/ktick, ack-ovh=%.4f, eff=%.3f"
    r.protocol
    (if r.completed then "completed" else "STUCK")
    r.ticks r.delivered r.messages r.duplicates r.misordered r.corrupted r.data_sent
    r.data_dropped r.data_reordered r.acks_sent r.acks_dropped r.retransmissions r.goodput
    r.ack_overhead r.efficiency;
  (* Crash-free runs keep the historical (cram-pinned) one-line format;
     recovery metrics appear only when the plan actually faulted a
     process. *)
  if r.crashes > 0 then
    Format.fprintf ppf ", crashes=%d restarts=%d resync-rounds=%d resync-ticks=%s retx-bytes=%d"
      r.crashes r.restarts r.resync_rounds
      (match r.resync_ticks with
      | None -> "-"
      | Some s -> Printf.sprintf "%.0f/%.0f" s.Ba_util.Stats.mean s.Ba_util.Stats.max)
      r.retx_bytes;
  (* Likewise budget-free runs: the counter only prints when a receiver
     budget actually refused frames. *)
  if r.pressure_drops > 0 then Format.fprintf ppf ", pressure-drops=%d" r.pressure_drops

(* N connections multiplexed over one shared data link and one shared
   ack link: one Flow_table whose frames travel tagged with their flow
   id — the tag plays the role of a link-layer address, so faults mangle
   payloads, never the demultiplexing. *)

type spec = Flow_table.spec = {
  protocol : Protocol.t;
  config : Proto_config.t;
  messages : int;
  payload_size : int;
  start_at : int;
  stop_at : int option;
  crash_plan : Crash_plan.t;
}

let spec ?(config = Proto_config.default) ?(messages = 100) ?(payload_size = 32) ?(start_at = 0)
    ?stop_at protocol =
  { protocol; config; messages; payload_size; start_at; stop_at; crash_plan = Crash_plan.none }

type result = {
  ticks : int;
  completed : bool;
  flows : Harness.result list;
  aggregate_goodput : float;
  fairness : float;
  data_stats : Ba_channel.Link.stats;
  ack_stats : Ba_channel.Link.stats;
  admitted : int;
  refused : int;
  departed : int;
  clamped_window : int option;
  mem_peak_bytes : int;
  quarantine_events : int;
  watchdog_resyncs : int;
  quarantined : int;
}

(* Jain's fairness index: (sum x)^2 / (n * sum x^2), 1.0 = perfectly even,
   1/n = one flow hoards everything. Defined as 1.0 for degenerate input
   (no flows, or nothing delivered anywhere). *)
let jain = function
  | [] -> 1.0
  | xs ->
      let sum = List.fold_left ( +. ) 0. xs in
      let sq = List.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
      if sq = 0. then 1.0
      else sum *. sum /. (float_of_int (List.length xs) *. sq)

let run ?(seed = 42) ?(data_loss = 0.) ?(ack_loss = 0.)
    ?(data_delay = Ba_channel.Dist.Uniform (40, 60))
    ?(ack_delay = Ba_channel.Dist.Uniform (40, 60)) ?data_bottleneck ?ack_bottleneck ?data_plan
    ?ack_plan ?deadline ?memory_budget ?watchdog specs =
  Flow_table.validate ~who:"Fabric.run" ~budget:memory_budget specs;
  let engine = Ba_sim.Engine.create ~seed () in
  let tbl = ref None in
  let data_link =
    Ba_channel.Link.create engine ~loss:data_loss ~delay:data_delay ?bottleneck:data_bottleneck
      ~corrupt:(fun (i, d) -> (i, Wire.corrupt_data d))
      ~release:(fun (_, d) -> Wire.release_data d)
      ~deliver:(fun (i, d) -> Flow_table.on_data (Option.get !tbl) i d)
      ()
  in
  let ack_link =
    Ba_channel.Link.create engine ~loss:ack_loss ~delay:ack_delay ?bottleneck:ack_bottleneck
      ~corrupt:(fun (i, a) -> (i, Wire.corrupt_ack a))
      ~release:(fun (_, a) -> Wire.release_ack a)
      ~deliver:(fun (i, a) -> Flow_table.on_ack (Option.get !tbl) i a)
      ()
  in
  (* A plan splits its link's random stream only when given, so
     plan-free runs keep their exact historical event sequence. *)
  Option.iter (Ba_channel.Link.set_plan data_link) data_plan;
  Option.iter (Ba_channel.Link.set_plan ack_link) ack_plan;
  let t =
    Flow_table.create engine
      ~workload_seed:(fun i -> seed + (7919 * (i + 1)))
      ~latency:Flow_table.Per_flow ~budget:memory_budget ~watchdog
      ~data_tx:(fun i d -> Ba_channel.Link.send data_link (i, d))
      ~ack_tx:(fun i a -> Ba_channel.Link.send ack_link (i, a))
      specs
  in
  tbl := Some t;
  Flow_table.start t;
  (* The default deadline scales with the aggregate workload: the shared
     link serialises every flow's traffic. *)
  let deadline = match deadline with Some d -> d | None -> Flow_table.deadline t in
  Ba_sim.Engine.run ~until:deadline engine;
  Flow_table.sample_mem t;
  let ticks = Ba_sim.Engine.now engine in
  let flows =
    List.init (Flow_table.size t) (fun i ->
        (* A flow is judged over its own tenancy — from its start tick to
           completion (or departure, or the end of the run) — so slow
           neighbours don't dilute its goodput and a late arrival isn't
           charged for ticks before it existed. *)
        let sp = Flow_table.spec t i in
        let upto =
          match (Flow_table.completed_at t i, sp.stop_at) with
          | Some c, _ -> c
          | None, Some d when Flow_table.departed t i -> d
          | None, _ -> ticks
        in
        Harness.flow_result t i ~ticks:(max 1 (upto - sp.start_at)) ())
  in
  let total_delivered = Flow_table.sum t Flow_table.delivered in
  {
    ticks;
    (* A scheduled departure is a normal end of life: completion means
       every flow either finished or left on schedule. *)
    completed =
      List.for_all Fun.id
        (List.mapi (fun i (r : Harness.result) -> Flow_table.departed t i || r.completed) flows);
    flows;
    aggregate_goodput =
      (if ticks = 0 then 0. else float_of_int total_delivered *. 1000. /. float_of_int ticks);
    fairness = jain (List.map (fun (r : Harness.result) -> r.goodput) flows);
    data_stats = Ba_channel.Link.stats data_link;
    ack_stats = Ba_channel.Link.stats ack_link;
    admitted = Flow_table.size t;
    refused = Flow_table.refused t;
    departed = Flow_table.sum t (fun t i -> Bool.to_int (Flow_table.departed t i));
    clamped_window = Flow_table.clamp t;
    mem_peak_bytes = Flow_table.mem_peak t;
    quarantine_events = Flow_table.quarantine_events t;
    watchdog_resyncs = Flow_table.watchdog_resyncs t;
    quarantined = Flow_table.quarantined t;
  }

(* Seed-derived churn schedule: [base] flows span the whole horizon and
   carry the pre/post-churn goodput baseline; each churner contributes a
   departing flow (arrives early, offered enough work to outlast its
   departure tick, so closure always reclaims a live reservation) and a
   returning flow that arrives into the reclaimed capacity after the
   departure and runs to completion. *)
let churn ?(base = 2) ?(churners = 2) ?(messages = 40) ?(payload_size = 32)
    ?(config = Proto_config.default) ~seed protocol =
  if base < 0 then invalid_arg "Fabric.churn: base must be >= 0";
  if churners < 0 then invalid_arg "Fabric.churn: churners must be >= 0";
  let rng = Ba_util.Rng.create (0x5eed + (31 * seed)) in
  let mk ?start_at ?stop_at m = spec ~config ~messages:m ~payload_size ?start_at ?stop_at protocol in
  let rec bases k acc = if k = 0 then List.rev acc else bases (k - 1) (mk messages :: acc) in
  (* Explicit recursion: the rng draws must happen in churner order. *)
  let rec churned k acc =
    if k = 0 then List.rev acc
    else begin
      let arrive = Ba_util.Rng.int_in rng 0 400 in
      let depart = arrive + Ba_util.Rng.int_in rng 2000 3500 in
      let return_at = depart + Ba_util.Rng.int_in rng 600 1400 in
      let leaver = mk ~start_at:arrive ~stop_at:depart (messages * 4) in
      let returner = mk ~start_at:return_at messages in
      churned (k - 1) (returner :: leaver :: acc)
    end
  in
  bases base [] @ churned churners []

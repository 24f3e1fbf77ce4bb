(* Sharded fabric: the Fabric model rebuilt as per-cell sub-simulations
   advanced in lockstep epochs, with the shared-link bottleneck realised
   as per-cell capacity leases reconciled at the barriers.

   Everything semantic is a pure function of (specs, seed, cell,
   barrier, capacity, ...): cells are built sequentially in spec order,
   each cell's engine/links/plans are seeded from the cell index, and
   the lease reconciliation is an order-independent integer fold over
   cells. [shards]/[jobs] only choose how live cells are grouped into
   pool tasks per epoch, and the pool collects in input order — so the
   result is byte-identical at any shard count and any job count. *)

module Engine = Ba_sim.Engine
module Link = Ba_channel.Link

type result = {
  flows : int;
  cells : int;
  messages : int;
  delivered : int;
  duplicates : int;
  misordered : int;
  corrupted : int;
  completed_flows : int;
  departed : int;
  refused : int;
  clamped_cells : int;
  data_sent : int;
  acks_sent : int;
  retransmissions : int;
  pressure_drops : int;
  lease_drops : int;
  lease_rebalances : int;
  quarantine_events : int;
  watchdog_resyncs : int;
  quarantined : int;
  mem_peak_bytes : int;
  ticks : int;
  epochs : int;
  completed : bool;
  aggregate_goodput : float;
  latency : Ba_util.Qsketch.t;
  state_bytes : int;
}

(* One direction's capacity lease: a FIFO of frames the cell has
   offered to the "shared" link, served one frame per [interval] ticks
   by a persistent engine slot. [base_rate] is the cell's fair share in
   frames per epoch; reconciliation rewrites [interval] at barriers. *)
type 'a lease = {
  svc : int;  (* the modelled link's service time, a floor on interval *)
  barrier : int;
  base_rate : int;
  qcap : int;
  ring : 'a Ba_util.Ring_buffer.t;
  mutable head : int;
  mutable tail : int;
  mutable interval : int;
  mutable serviced : int;  (* frames sent this epoch *)
  mutable drops : int;
  mutable slot : Engine.slot option;
  send : 'a -> unit;
  release : 'a -> unit;
}

let lease_backlog l = l.tail - l.head

let make_lease engine ~svc ~barrier ~qcap ~base_rate ~send ~release =
  let l =
    {
      svc;
      barrier;
      base_rate;
      qcap;
      ring = Ba_util.Ring_buffer.create qcap;
      head = 0;
      tail = 0;
      interval = max svc (barrier / max 1 base_rate);
      serviced = 0;
      drops = 0;
      slot = None;
      send;
      release;
    }
  in
  let service () =
    if l.head < l.tail then begin
      let v = Option.get (Ba_util.Ring_buffer.get l.ring l.head) in
      Ba_util.Ring_buffer.remove l.ring l.head;
      l.head <- l.head + 1;
      l.serviced <- l.serviced + 1;
      l.send v;
      if l.head < l.tail then
        Engine.slot_arm (Option.get l.slot) ~delay:l.interval
    end
  in
  l.slot <- Some (Engine.slot_create engine service);
  l

let lease_offer l v =
  if lease_backlog l >= l.qcap then begin
    l.drops <- l.drops + 1;
    l.release v
  end
  else begin
    Ba_util.Ring_buffer.set l.ring l.tail v;
    l.tail <- l.tail + 1;
    let slot = Option.get l.slot in
    if not (Engine.slot_armed slot) then Engine.slot_arm slot ~delay:l.interval
  end

(* Barrier-time reconciliation over one direction's leases: cells with
   no backlog cede their unused frame credits, backlogged cells split
   the spare pro rata. Pure integer fold — cell order cannot matter. *)
let reconcile_leases leases =
  let spare = ref 0 and total_backlog = ref 0 in
  Array.iter
    (fun l ->
      let b = lease_backlog l in
      if b = 0 then spare := !spare + max 0 (l.base_rate - l.serviced)
      else total_backlog := !total_backlog + b)
    leases;
  let rebalanced = !spare > 0 && !total_backlog > 0 in
  Array.iter
    (fun l ->
      let b = lease_backlog l in
      let rate =
        if rebalanced && b > 0 then l.base_rate + (!spare * b / !total_backlog)
        else l.base_rate
      in
      l.interval <- max l.svc (l.barrier / max 1 rate);
      l.serviced <- 0)
    leases;
  rebalanced

type cell = {
  c_engine : Engine.t;
  c_table : Flow_table.t;
  c_latency : Ba_util.Qsketch.t;
  c_data_lease : (int * Wire.data) lease option;
  c_ack_lease : (int * Wire.ack) lease option;
}

(* A cell is one flow table on its own engine and tagged links, seeded
   from the cell index; with a capacity, frames queue behind the cell's
   lease before reaching the link. *)
let build_cell ~seed ~cell_index ~flow_base ~barrier ~data_loss ~ack_loss ~data_delay
    ~ack_delay ~capacity ~ack_capacity ~plans_for ~cell_budget ~watchdog ~total_flows specs =
  let cell_seed = seed + (104729 * (cell_index + 1)) in
  let engine = Engine.create ~seed:cell_seed () in
  let tbl = ref None and data_lease = ref None and ack_lease = ref None in
  let data_link =
    Link.create engine ~loss:data_loss ~delay:data_delay
      ~corrupt:(fun (i, d) -> (i, Wire.corrupt_data d))
      ~release:(fun (_, d) -> Wire.release_data d)
      ~deliver:(fun (i, d) -> Flow_table.on_data (Option.get !tbl) i d)
      ()
  in
  let ack_link =
    Link.create engine ~loss:ack_loss ~delay:ack_delay
      ~corrupt:(fun (i, a) -> (i, Wire.corrupt_ack a))
      ~release:(fun (_, a) -> Wire.release_ack a)
      ~deliver:(fun (i, a) -> Flow_table.on_ack (Option.get !tbl) i a)
      ()
  in
  (match plans_for with
  | None -> ()
  | Some f ->
      let dp, ap = f ~cell_seed in
      Link.set_plan data_link dp;
      Link.set_plan ack_link ap);
  let latency = Ba_util.Qsketch.create () in
  let offer link lease v = match !lease with Some l -> lease_offer l v | None -> Link.send link v in
  let t =
    Flow_table.create engine ~who:"Shard.run"
      ~workload_seed:(fun i -> seed + (7919 * (flow_base + i + 1)))
      ~latency:(Flow_table.Sketch latency) ~budget:cell_budget ~watchdog
      ~data_tx:(fun i d -> offer data_link data_lease (i, d))
      ~ack_tx:(fun i a -> offer ack_link ack_lease (i, a))
      specs
  in
  tbl := Some t;
  (* Leases are sized by the admitted flow count: a cell's base lease is
     its flow-count share of the link rate. *)
  let n = Flow_table.size t in
  let mk_lease cap ~send ~release =
    match cap with
    | None -> None
    | Some (svc, qcap) ->
        let svc = max 1 svc in
        let base_rate = max 1 (barrier / svc * n / max 1 total_flows) in
        let qshare = max 4 (qcap * n / max 1 total_flows) in
        Some (make_lease engine ~svc ~barrier ~qcap:qshare ~base_rate ~send ~release)
  in
  data_lease :=
    mk_lease capacity ~send:(Link.send data_link) ~release:(fun (_, d) -> Wire.release_data d);
  ack_lease :=
    mk_lease ack_capacity ~send:(Link.send ack_link) ~release:(fun (_, a) -> Wire.release_ack a);
  Flow_table.start t;
  {
    c_engine = engine;
    c_table = t;
    c_latency = latency;
    c_data_lease = !data_lease;
    c_ack_lease = !ack_lease;
  }

let run ?(seed = 42) ?jobs ?shards ?(cell = 1024) ?(barrier = 1000) ?(data_loss = 0.)
    ?(ack_loss = 0.) ?(data_delay = Ba_channel.Dist.Uniform (40, 60))
    ?(ack_delay = Ba_channel.Dist.Uniform (40, 60)) ?capacity ?ack_capacity ?plans_for
    ?deadline ?memory_budget ?watchdog ?(measure_mem = false) specs =
  Flow_table.validate ~who:"Shard.run" ~budget:memory_budget specs;
  if cell < 1 then invalid_arg "Shard.run: cell must be >= 1";
  if barrier < 1 then invalid_arg "Shard.run: barrier must be >= 1";
  let jobs = match jobs with Some j -> j | None -> Ba_parallel.Pool.default_jobs () in
  if jobs < 1 then invalid_arg "Shard.run: jobs must be >= 1";
  let shards = match shards with Some s -> s | None -> jobs in
  if shards < 1 then invalid_arg "Shard.run: shards must be >= 1";
  let specs = Array.of_list specs in
  let total_flows = Array.length specs in
  let ncells = (total_flows + cell - 1) / cell in
  let live_before =
    if measure_mem then begin
      Gc.full_major ();
      (Gc.stat ()).Gc.live_words
    end
    else 0
  in
  let cells =
    Array.init ncells (fun ci ->
        let lo = ci * cell in
        let hi = min total_flows (lo + cell) in
        let slice = Array.to_list (Array.sub specs lo (hi - lo)) in
        let cell_budget =
          match memory_budget with
          | None -> None
          | Some b -> Some (max 1 (b * (hi - lo) / total_flows))
        in
        build_cell ~seed ~cell_index:ci ~flow_base:lo ~barrier ~data_loss ~ack_loss
          ~data_delay ~ack_delay ~capacity ~ack_capacity ~plans_for ~cell_budget
          ~watchdog ~total_flows slice)
  in
  let state_bytes =
    if measure_mem then begin
      Gc.full_major ();
      (((Gc.stat ()).Gc.live_words - live_before) * (Sys.word_size / 8))
    end
    else 0
  in
  let horizon =
    Option.value deadline
      ~default:(Array.fold_left (fun acc c -> max acc (Flow_table.deadline c.c_table)) 1 cells)
  in
  let data_leases =
    Array.of_list
      (List.filter_map (fun c -> c.c_data_lease) (Array.to_list cells))
  in
  let ack_leases =
    Array.of_list (List.filter_map (fun c -> c.c_ack_lease) (Array.to_list cells))
  in
  let epochs = ref 0 and rebalances = ref 0 in
  let t = ref 0 in
  let rec epoch_loop () =
    let alive = List.filter (fun c -> Flow_table.done_at c.c_table = None) (Array.to_list cells) in
    if alive <> [] && !t < horizon then begin
      let t_end = min horizon (!t + barrier) in
      (* Contiguous shard groups over the live cells: granularity only,
         never semantics. Each group advances its cells in order. *)
      let nalive = List.length alive in
      let per = (nalive + shards - 1) / shards in
      let group k = List.filteri (fun j _ -> j / per = k) alive in
      ignore
        (Ba_parallel.Pool.map_chunks ~jobs ~chunk:1
           (List.iter (fun c -> Engine.run ~until:t_end c.c_engine))
           (List.init ((nalive + per - 1) / per) group));
      if reconcile_leases data_leases then incr rebalances;
      if Array.length ack_leases > 0 && reconcile_leases ack_leases then incr rebalances;
      incr epochs;
      t := t_end;
      epoch_loop ()
    end
  in
  epoch_loop ();
  (* Aggregate in cell order; everything below is pure arithmetic over
     per-cell state, so the fold order is fixed and the result is the
     same whatever domains ran the epochs. *)
  let total f = Array.fold_left (fun a c -> a + f c.c_table) 0 cells in
  let per_flow f = total (fun t -> Flow_table.sum t f) in
  let flag f = per_flow (fun t i -> Bool.to_int (f t i)) in
  let delivered = per_flow Flow_table.delivered in
  let ticks =
    Array.fold_left
      (fun acc c -> max acc (Option.value ~default:!t (Flow_table.done_at c.c_table)))
      0 cells
  in
  let lease_drops =
    Array.fold_left (fun a l -> a + l.drops) 0 data_leases
    + Array.fold_left (fun a l -> a + l.drops) 0 ack_leases
  in
  {
    flows = total Flow_table.size;
    cells = ncells;
    messages = per_flow (fun t i -> (Flow_table.spec t i).Flow_table.messages);
    delivered;
    duplicates = per_flow Flow_table.duplicates;
    misordered = per_flow Flow_table.misordered;
    corrupted = per_flow Flow_table.corrupted;
    completed_flows = flag (fun t i -> Flow_table.completed_at t i <> None);
    departed = flag Flow_table.departed;
    refused = total Flow_table.refused;
    clamped_cells = total (fun t -> Bool.to_int (Flow_table.clamp t <> None));
    data_sent = per_flow Flow_table.data_sent;
    acks_sent = per_flow Flow_table.acks_sent;
    retransmissions = per_flow Flow_table.retransmissions;
    pressure_drops = per_flow Flow_table.pressure_drops;
    lease_drops;
    lease_rebalances = !rebalances;
    quarantine_events = total Flow_table.quarantine_events;
    watchdog_resyncs = total Flow_table.watchdog_resyncs;
    quarantined = total Flow_table.quarantined;
    mem_peak_bytes = total Flow_table.mem_peak;
    ticks;
    epochs = !epochs;
    completed =
      flag (fun t i -> Flow_table.completed_at t i = None && not (Flow_table.departed t i)) = 0;
    aggregate_goodput =
      (if ticks = 0 then 0.
       else float_of_int delivered *. 1000. /. float_of_int ticks);
    latency =
      Array.fold_left
        (fun acc c -> Ba_util.Qsketch.merge acc c.c_latency)
        (Ba_util.Qsketch.create ()) cells;
    state_bytes;
  }

let summary r =
  let b = Buffer.create 512 in
  Printf.bprintf b "flows=%d cells=%d messages=%d\n" r.flows r.cells r.messages;
  Printf.bprintf b
    "delivered=%d duplicates=%d misordered=%d corrupted=%d completed-flows=%d\n"
    r.delivered r.duplicates r.misordered r.corrupted r.completed_flows;
  Printf.bprintf b "departed=%d refused=%d clamped-cells=%d\n" r.departed r.refused
    r.clamped_cells;
  Printf.bprintf b "data-sent=%d acks-sent=%d retransmissions=%d pressure-drops=%d\n"
    r.data_sent r.acks_sent r.retransmissions r.pressure_drops;
  Printf.bprintf b "lease-drops=%d lease-rebalances=%d\n" r.lease_drops
    r.lease_rebalances;
  Printf.bprintf b "quarantine-events=%d watchdog-resyncs=%d quarantined=%d\n"
    r.quarantine_events r.watchdog_resyncs r.quarantined;
  Printf.bprintf b "mem-peak=%dB ticks=%d epochs=%d completed=%b goodput=%.2f/ktick\n"
    r.mem_peak_bytes r.ticks r.epochs r.completed r.aggregate_goodput;
  (if Ba_util.Qsketch.count r.latency = 0 then
     Buffer.add_string b "latency: none\n"
   else
     Printf.bprintf b "latency: p50=%.0f p99=%.0f max=%.0f (n=%d)\n"
       (Ba_util.Qsketch.quantile r.latency 0.5)
       (Ba_util.Qsketch.quantile r.latency 0.99)
       (Ba_util.Qsketch.max r.latency)
       (Ba_util.Qsketch.count r.latency));
  Buffer.contents b

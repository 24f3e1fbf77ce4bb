(** Sharded fabric: 100k–1M concurrent flows in bounded memory.

    {!Fabric} runs every flow in one engine through one pair of shared
    links — exact, but O(flows) events interleave in one event loop.
    The shard runner splits the same model for scale:

    {ul
    {- {b Cells.} Flows are partitioned by spec order into fixed-size
       {e cells} (the [cell] parameter). Each cell owns a private
       {!Ba_sim.Engine.t} plus data/ack links seeded from the cell
       index, so a cell is a deterministic sub-simulation.}
    {- {b Capacity leases.} The shared-router bottleneck
       ([capacity = (service_time, queue_capacity)]) becomes a per-cell
       {e lease}: each cell serves its frame FIFO at its flow-count
       share of the link rate. At every epoch barrier the leases are
       reconciled — idle cells' unused frame credits are re-leased to
       backlogged cells in proportion to backlog — a deterministic fold
       in cell order.}
    {- {b Epoch barriers.} All live cells advance in lockstep,
       [Engine.run ~until] one [barrier]-tick epoch at a time. Within
       an epoch cells are independent, so epochs fan out over a
       {!Ba_parallel.Pool}; [shards] controls how many contiguous cell
       groups become pool tasks.}
    {- {b One table per cell.} Each cell is a {!Flow_table} — the same
       flat flow core {!Harness} and {!Fabric} run on — reporting
       latency into one mergeable {!Ba_util.Qsketch} per cell. A
       one-cell run at [seed] counts exactly what {!Fabric.run} counts
       at [seed + 104729] (QCheck-pinned in [test_shard.ml]).}}

    {b Determinism.} The model is fixed by [(specs, seed, cell,
    barrier, capacity, …)]; [shards] and [jobs] only schedule cells
    onto domains. Results are collected in cell order and lease
    reconciliation is an order-independent integer fold, so the result
    is byte-identical for any [shards] and any [jobs] — the same
    guarantee class as the campaign pool, and QCheck-pinned in
    [test_shard.ml]. *)

type result = {
  flows : int;  (** admitted flows across all cells *)
  cells : int;
  messages : int;  (** payloads offered by admitted flows *)
  delivered : int;
  duplicates : int;
  misordered : int;
  corrupted : int;
  completed_flows : int;
  departed : int;  (** flows closed by [stop_at] while mid-transfer *)
  refused : int;  (** flows refused by cell-local admission *)
  clamped_cells : int;  (** cells where admission imposed a window clamp *)
  data_sent : int;
  acks_sent : int;
  retransmissions : int;
  pressure_drops : int;
  lease_drops : int;  (** frames tail-dropped at a full cell lease queue *)
  lease_rebalances : int;  (** barriers at which idle capacity was re-leased *)
  quarantine_events : int;
  watchdog_resyncs : int;
  quarantined : int;
  mem_peak_bytes : int;
      (** peak sampled model bytes (sum of per-cell peaks; 0 when
          neither budget nor watchdog is set) *)
  ticks : int;  (** last completion tick across cells (or the horizon) *)
  epochs : int;  (** barrier epochs executed *)
  completed : bool;  (** every admitted flow finished or departed on schedule *)
  aggregate_goodput : float;  (** delivered payloads per 1000 ticks *)
  latency : Ba_util.Qsketch.t;  (** merged delivery-latency sketch *)
  state_bytes : int;
      (** live-heap delta attributable to the built cells ([measure_mem]
          runs a major GC before/after construction; 0 otherwise). Not
          part of {!summary}: heap layout is not a simulation output. *)
}

val run :
  ?seed:int ->
  ?jobs:int ->
  ?shards:int ->
  ?cell:int ->
  ?barrier:int ->
  ?data_loss:float ->
  ?ack_loss:float ->
  ?data_delay:Ba_channel.Dist.t ->
  ?ack_delay:Ba_channel.Dist.t ->
  ?capacity:int * int ->
  ?ack_capacity:int * int ->
  ?plans_for:(cell_seed:int -> Ba_channel.Fault_plan.t * Ba_channel.Fault_plan.t) ->
  ?deadline:int ->
  ?memory_budget:int ->
  ?watchdog:Watchdog.config ->
  ?measure_mem:bool ->
  Fabric.spec list ->
  result
(** [run specs] drives every flow to completion, departure or the
    deadline. Defaults: seed 42, [jobs] {!Ba_parallel.Pool.default_jobs},
    [shards = jobs], [cell = 1024] flows per cell, [barrier = 1000]
    ticks, no loss, delay [Uniform (40, 60)] both ways, no capacity
    (uncontended links), [measure_mem = false].

    [capacity]/[ack_capacity] are the shared-link bottleneck
    [(service_time, queue_capacity)], realised as per-cell leases (see
    above): a cell's base lease is its flow-count share of the rate and
    at least one frame per epoch; its queue share at least 4 slots.

    [memory_budget] splits by flow-count share into per-cell budgets;
    each cell's table admits under its share and runs its own
    [watchdog] on its own engine (see {!Flow_table.create}).

    [plans_for ~cell_seed] attaches scheduled fault plans (data, ack) to
    each cell's links — the storm hook; [cell_seed] is derived from
    [seed] and the cell index, so plans are replayable per cell.

    Raises [Invalid_argument] on empty [specs], non-positive [cell],
    [barrier] or [shards], invalid spec intervals, or a budget that
    admits no flow in some cell. *)

val summary : result -> string
(** Deterministic multi-line digest of everything in [result] except
    [state_bytes] — what the CLI prints and what the determinism
    properties compare byte-for-byte. *)

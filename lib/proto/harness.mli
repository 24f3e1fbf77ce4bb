(** Experiment harness: one sender, one receiver, two lossy links.

    [run] is a one-flow {!Flow_table} on two private links: it drives a
    {!Workload} of [messages] payloads through one protocol and reports
    both performance (ticks, goodput, overhead) and correctness
    (duplicates, misordering, corruption) — the latter must be zero for a
    correct protocol and is deliberately *not* zero for the broken
    baselines the paper warns about. For many connections over a shared
    link, see {!Fabric}, whose per-flow verdicts are this same record
    (built by {!flow_result}), so every check written against harness
    output also reads fabric output. *)

type result = {
  protocol : string;
  completed : bool;  (** all payloads delivered and acknowledged *)
  ticks : int;  (** simulated time consumed *)
  messages : int;  (** payloads offered *)
  delivered : int;  (** distinct payloads delivered *)
  duplicates : int;  (** deliveries of an already-delivered payload *)
  misordered : int;  (** deliveries that broke application order *)
  corrupted : int;  (** deliveries of an unparseable payload *)
  data_sent : int;
  data_dropped : int;
  data_queue_dropped : int;  (** tail drops at the data-link bottleneck *)
  data_reordered : int;  (** wire-level overtakings on the data link *)
  data_duplicated : int;  (** extra copies injected by a fault plan *)
  data_corrupted : int;  (** wire-level corruptions injected on the data link *)
  data_outage_drops : int;  (** data frames lost to scheduled outages *)
  acks_sent : int;
  acks_dropped : int;
  acks_corrupted : int;  (** wire-level corruptions injected on the ack link *)
  ack_outage_drops : int;  (** acks lost to scheduled outages *)
  retransmissions : int;
  goodput : float;  (** delivered payloads per 1000 ticks *)
  latency : Ba_util.Stats.summary option;
      (** per-payload delivery latency (ticks from entering the sender's
          window to in-order delivery); [None] when nothing was delivered *)
  latencies : float list;
      (** the raw per-payload latency samples behind [latency], in
          delivery order (for histograms) *)
  ack_overhead : float;  (** ack bytes per delivered payload byte *)
  efficiency : float;  (** delivered / data_sent: 1.0 means no waste *)
  crashes : int;  (** endpoint crashes injected into this run *)
  restarts : int;  (** endpoint restarts *)
  resync_rounds : int;  (** resync handshake frames sent (REQ/POS/FIN) *)
  resync_ticks : Ba_util.Stats.summary option;
      (** per-restart recovery time; [None] when nothing restarted *)
  retx_bytes : int;  (** bytes of retransmitted payload copies on the wire *)
  pressure_drops : int;
      (** in-window frames the receiver refused for buffer-full under an
          [rx_budget]; behaviorally channel losses (never acknowledged) *)
}

type setup = {
  engine : Ba_sim.Engine.t;
  data_link : Wire.data Ba_channel.Link.t;
  ack_link : Wire.ack Ba_channel.Link.t;
}
(** Exposed to [on_setup] so experiments can install scripted faults
    (e.g. "drop exactly the acknowledgment covering block k"). *)

val run :
  Protocol.t ->
  ?seed:int ->
  ?messages:int ->
  ?payload_size:int ->
  ?config:Proto_config.t ->
  ?data_loss:float ->
  ?ack_loss:float ->
  ?data_delay:Ba_channel.Dist.t ->
  ?ack_delay:Ba_channel.Dist.t ->
  ?data_bottleneck:int * int ->
  ?data_plan:Ba_channel.Fault_plan.t ->
  ?ack_plan:Ba_channel.Fault_plan.t ->
  ?crash_plan:Crash_plan.t ->
  ?deadline:int ->
  ?on_setup:(setup -> unit) ->
  unit ->
  result
(** Defaults: [seed = 42], [messages = 1000], [payload_size = 32],
    [config = Proto_config.default], no loss, delay [Uniform (40, 60)]
    both ways, deadline scaled to the workload. The run stops early as
    soon as the transfer completes.

    [data_plan] / [ack_plan] install composable {!Ba_channel.Fault_plan}
    adversaries on the respective links (bursty loss, duplication,
    corruption, outages); the plans' randomness is derived from the
    link's seeded stream, so a run is a pure function of [seed]. Both
    links mangle messages with {!Wire.corrupt_data} /
    {!Wire.corrupt_ack} when a plan asks for a [Corrupt] verdict, so
    robust endpoints can detect and discard them by checksum.

    [crash_plan] schedules endpoint process faults: each event crashes
    the named endpoint at its tick and restarts it [down_for] ticks
    later (see {!Crash_plan}); requires a crash-tolerant protocol. *)

val flow_result :
  Flow_table.t ->
  int ->
  ?data_stats:Ba_channel.Link.stats ->
  ?ack_stats:Ba_channel.Link.stats ->
  ticks:int ->
  unit ->
  result
(** Flow [i]'s verdict over the [ticks] ticks from its start tick (an
    unresolved restart is charged up to the end of that span).
    [data_stats] / [ack_stats] attribute link counters (drops,
    reorderings, injected faults) when the flow ran over private links;
    without them the link fields fall back to the flow's own send counts
    and zeros, which is all a shared link can attribute to one flow. *)

val pp_result : Format.formatter -> result -> unit

val correct : result -> bool
(** Completed with no duplicates, misordering or corruption. *)

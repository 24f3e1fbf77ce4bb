(** The flow table: the one place the simulator wires protocol
    sender/receiver pairs to a workload and judges what they deliver.

    A table holds every flow of one engine as flat per-flow arrays
    (counters, cursors, gates) plus per-message arrays indexed through a
    prefix sum of message counts, with one {!Ba_util.Bitset} for
    "delivered" and one for "sent once". Endpoints live in per-protocol
    groups, so dispatch costs one closure per group; the only per-flow
    heap objects are the endpoints and four wiring closures (data tx,
    ack tx, payload pull, deliver).

    The table owns sender/receiver creation, payload supply and
    validation, the duplicate / misorder / corruption verdict,
    completion, retransmitted bytes, [stop_at] departures, quarantine
    gating, crash plans, the watchdog, memory sampling and admission
    control. It does {e not} own links: frames leave through the
    [data_tx] / [ack_tx] callbacks given to {!create} and arrive through
    {!on_data} / {!on_ack}. Three front ends choose the links:
    {!Harness} (one flow, two private untagged links), {!Fabric} (one
    table on shared flow-tagged links) and {!Shard} (one table per cell,
    behind capacity leases).

    A table's behaviour is a pure function of its engine's seed, the
    specs and the wiring: endpoints are created in spec order (sender,
    then receiver), and every scheduled event (departures, watchdog,
    memory sampler, crash plans in flow order, then pumps) is scheduled
    in a fixed order. *)

type spec = {
  protocol : Protocol.t;
  config : Proto_config.t;
  messages : int;  (** payloads this flow offers *)
  payload_size : int;
  start_at : int;
      (** tick at which this flow starts offering traffic (0 = from the
          beginning). Late starters model a traffic surge; they still
          take part in admission up front, so the memory guarantee
          covers the surge peak. *)
  stop_at : int option;
      (** tick at which this flow departs, finished or not ([None] = it
          stays until it completes). Its gate shuts, its watchdog slot
          and buffered bytes are released, and admission (which reasons
          about peak {e concurrent} cost over the [start_at, stop_at)
          intervals) can hand its reservation to a later arrival. *)
  crash_plan : Crash_plan.t;
      (** process faults against this flow's endpoints (crash at a tick,
          restart [down_for] ticks later); a non-empty plan requires a
          crash-tolerant protocol. The hook for checking that one
          endpoint's crash cannot stall or corrupt the flows sharing
          its links. *)
}

val validate : who:string -> budget:int option -> spec list -> unit
(** Raises [Invalid_argument] (messages prefixed by [who]) on an empty
    list, a negative [start_at], a [stop_at] not after its [start_at] or
    a non-positive [budget]; validates every config and crash plan. *)

type latency =
  | Per_flow  (** one {!Ba_util.Stats} per flow, samples kept *)
  | Sketch of Ba_util.Qsketch.t  (** every flow's samples into one sketch *)

type t

val create :
  Ba_sim.Engine.t ->
  workload_seed:(int -> int) ->
  latency:latency ->
  budget:int option ->
  watchdog:Watchdog.config option ->
  data_tx:(int -> Wire.data -> unit) ->
  ack_tx:(int -> Wire.ack -> unit) ->
  spec list ->
  t
(** Admits [specs] under [budget], creates every admitted flow's
    endpoints, and schedules departures, the watchdog, the memory
    sampler (armed by a budget or a watchdog) and the crash plans. Flow
    [i] pulls payloads from a {!Workload} seeded [workload_seed i] and
    sends through [data_tx i] / [ack_tx i] unless it is gated
    (quarantined or departed), in which case the frame is released.
    When the last admitted flow completes or departs the engine is
    stopped. Nothing is sent before {!start}.

    Admission bounds the worst-case payload bytes the table can pin,
    charging each flow [2 · min window clamp · payload_size] (retransmit
    buffer plus reassembly window) over its [start_at, stop_at)
    interval, and degrades in preference order: everyone unclamped if
    the peak concurrent cost fits; else everyone under the largest
    uniform window clamp that fits; else clamp 1 and the longest spec
    prefix that fits, the rest refused. A clamp caps each sender's
    window and rewrites its receiver's [rx_budget] to match. Raises
    [Invalid_argument] when not even one clamped flow fits. *)

val start : t -> unit
(** Pump every flow at its [start_at] (at once for [start_at = 0]). *)

val on_data : t -> int -> Wire.data -> unit
(** A data frame for flow [i] arrived; ignored once the flow departed. *)

val on_ack : t -> int -> Wire.ack -> unit

val deadline : t -> int
(** The default horizon: [max 1 total_messages · max_rto · 20 + 10⁶]
    over the admitted flows. *)

val sample_mem : t -> unit
(** Fold the current buffered bytes of the live flows into the peak. *)

(** {2 Whole-table state} *)

val size : t -> int
(** Admitted flows; flows are indexed [0 .. size - 1] in spec order. *)

val refused : t -> int
val clamp : t -> int option
val done_at : t -> int option
(** Tick at which the last flow completed or departed; [None] while
    some flow runs. *)

val mem_peak : t -> int
(** Peak sampled buffered bytes; 0 when nothing sampled. *)

val quarantine_events : t -> int
val watchdog_resyncs : t -> int
val quarantined : t -> int

val sum : t -> (t -> int -> int) -> int
(** [sum t f] is [f t 0 + … + f t (size t - 1)]. *)

(** {2 Per-flow state} *)

val spec : t -> int -> spec
(** The admitted spec, with any admission clamp applied to its config. *)

val delivered : t -> int -> int
val duplicates : t -> int -> int
val misordered : t -> int -> int
val corrupted : t -> int -> int
val data_sent : t -> int -> int
val acks_sent : t -> int -> int
val retransmissions : t -> int -> int
val pressure_drops : t -> int -> int
val retx_bytes : t -> int -> int
(** Bytes of payload copies sent more than once (by workload index). *)

val completed_at : t -> int -> int option
(** When the flow completed (delivered everything and its sender saw
    every acknowledgment), if it did before departing. *)

val departed : t -> int -> bool
(** [stop_at] closed the flow before it completed. *)

val is_complete : t -> int -> bool
(** The live condition: everything delivered and the sender done now. *)

val latency : t -> int -> Ba_util.Stats.t
(** The flow's delivery latencies ({!Per_flow} tables only). *)

val crashes : t -> int -> int
val restarts : t -> int -> int
val resync_rounds : t -> int -> int

val resync_ticks : t -> int -> ticks:int -> Ba_util.Stats.summary option
(** Per-restart recovery times; a restart that no delivery resolved is
    charged up to [ticks]. *)

(** The block-acknowledgment sender: Sections II, IV and VI as one
    window.

    The sender keeps the paper's [na] (lowest unacknowledged sequence
    number) and [ns] (next fresh one), sends while the window has room,
    and processes block acknowledgments [(lo, hi)] that may cover any
    range of outstanding messages (action 1). The three designs of the
    paper differ only in their timer discipline and in how far the
    flight band may run ahead of [na]:

    - [Simple] (Section II) has one timer. It restarts on every data
      transmission, so "expired" means no data was sent for a full
      [rto]; the sender then resends [na] (action 2). With
      [rto > 2 * max link delay + ack_coalesce] that implies no copy of
      any message or acknowledgment is still in transit — the paper's
      timeout soundness condition. This design ignores [adaptive_rto]
      and [dynamic_window].
    - [Multi] (Section IV) gives every outstanding message its own
      timer (action 2′). When a whole block acknowledgment is lost, the
      covered messages are retransmitted back-to-back, so recovery costs
      about one timeout plus one round trip instead of one full timeout
      per covered message. It honours [adaptive_rto] (Jacobson/Karels
      with Karn's rule and backoff, see {!Rtt_estimator}) and
      [dynamic_window] (AIMD).
    - [Reuse {lead}] (Section VI) has [Multi]'s timers and reuses
      positions acknowledged out of order: at most [window] messages are
      unacknowledged, but [ns] may run up to [lead >= window] past [na].
      In-flight data then spans [[na, na + lead)], so both endpoints size
      their codecs and buffers by [lead] and a wire modulus needs
      [>= 2 * lead] — the paper's "tradeoff between the added complexity
      versus the potential gain in performance".

    New data is sent while [unacked < effective_window] and
    [ns - na < lead - window + effective_window], where [lead = window]
    for [Simple] and [Multi] and the effective window is [window]
    narrowed by [tx_budget], {!clamp_window} and the AIMD window.

    Sequence numbers are full-width internally; the wire carries them
    through {!Seqcodec} (modulo the config's wire modulus, if any). *)

type t

type design = Simple | Multi | Reuse of { lead : int }

val create :
  Ba_sim.Engine.t ->
  Config.t ->
  design:design ->
  tx:(Ba_proto.Wire.data -> unit) ->
  next_payload:(unit -> string option) ->
  t
(** [Reuse {lead}] requires [lead >= config.window] and, when a wire
    modulus is set, [modulus >= 2 * lead]. *)

val pump : t -> unit
(** Pull payloads from [next_payload] while the window has room, sending
    each immediately. Called automatically after window-opening acks;
    call it once after setup, and again if the supplier gains new data. *)

val on_ack : t -> Ba_proto.Wire.ack -> unit
(** Process a (possibly stale, duplicate or corrupted) block
    acknowledgment. *)

val na : t -> int
(** Lowest unacknowledged sequence number. *)

val ns : t -> int
(** Next fresh sequence number. *)

val outstanding : t -> int
(** [ns - na]: the flight band, acknowledged holes included. *)

val unacked : t -> int
(** Messages in [[na, ns)] not yet acknowledged. *)

val is_done : t -> bool
(** Supplier exhausted and nothing outstanding. *)

val retransmissions : t -> int

val corrupt_acks_dropped : t -> int
(** Acknowledgments discarded because their checksum failed
    ({!Ba_proto.Wire.ack_ok}); acting on a mangled block range could
    acknowledge data the receiver never accepted. *)

val rto_now : t -> int
(** The timeout currently used when arming timers: the configured [rto],
    or the estimator's value when [adaptive_rto] is in force. *)

val srtt : t -> float option
(** Smoothed round-trip estimate, when adaptive timeouts are in force. *)

val cwnd : t -> int
(** Current AIMD congestion window ([dynamic_window] mode); equals 1 and
    is unused otherwise. *)

val clamp_window : t -> int -> unit
(** [clamp_window t n] caps the effective window at [n] messages — the
    fabric's backpressure path. [n >= window] removes the clamp; [n < 1]
    raises. Only future sends are affected. The clamp survives
    crash–restart, since the pressure it reflects is external to this
    endpoint. *)

val window_clamp : t -> int option
(** The clamp currently in force, if any. *)

val buffered_bytes : t -> int
(** Total payload bytes in the retransmit buffer (memory accounting). *)

(** {2 Crash–restart lifecycle}

    [crash] wipes the volatile state — window buffers, [na]/[ns], all
    timers, the congestion window, the RTT estimator,
    retransmission-frontier holds. Stable storage keeps the incarnation
    epoch (with [resync_epochs]) and the application outbox
    ({!Ba_proto.Source} can replay any issued payload). While down,
    frames are ignored and [pump] is a no-op.

    [restart] with [resync_epochs]: bump the epoch and run the REQ → POS
    → FIN handshake; on POS the sender aligns [na = ns = pos], rewinds
    the outbox there and resumes. Without it (negative control), resume
    blind from position 0 with the old epoch. *)

val crash : t -> unit
val restart : t -> unit
val alive : t -> bool
val epoch : t -> int

val syncing : t -> bool
(** Restarted and still awaiting the receiver's POS. *)

val stale_epoch_dropped : t -> int
(** Acknowledgments rejected for carrying a dead incarnation's epoch. *)

val resync_rounds : t -> int
(** Handshake frames (REQ + FIN) sent, including retries. *)

val restarts : t -> int

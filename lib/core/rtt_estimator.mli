(** Round-trip-time estimation for adaptive retransmission timeouts.

    The paper assumes a known bound on message lifetime; a deployment
    usually has to estimate it. This is the classic Jacobson/Karels
    smoothed estimator with Karn's rule applied by the caller (only feed
    samples from messages that were never retransmitted):

    {ul
    {- [srtt <- (1 - a) * srtt + a * sample] with [a = 1/8]}
    {- [rttvar <- (1 - b) * rttvar + b * |srtt - sample|] with [b = 1/4]}
    {- [rto = srtt + 4 * rttvar], clamped to [[floor, ceiling]].}}

    Used by {!Sender} when the configuration asks for adaptive
    timeouts; safe to use standalone. *)

type t

val create : ?floor:int -> ?ceiling:int -> initial_rto:int -> unit -> t
(** [floor] defaults to 1, [ceiling] to [max_int]. Until the first sample
    arrives {!rto} returns [initial_rto] (clamped). *)

val observe : t -> int -> unit
(** Feed one round-trip sample in ticks. Requires a non-negative sample. *)

val rto : t -> int
(** Current timeout: [srtt + 4 * rttvar] clamped to [[floor, ceiling]]. *)

val srtt : t -> float
(** Smoothed RTT; 0 before any sample. *)

val rttvar : t -> float

val samples : t -> int
(** Number of samples observed. *)

val backoff : t -> unit
(** Exponential backoff after a retransmission: double the current rto,
    saturating at the ceiling (never overflowing past it — doubling an
    already-huge rto must not wrap negative and collapse to the floor).
    The next genuine sample resumes normal smoothing, so the rto cannot
    stay pinned at the cap once the path recovers (Karn's rule, applied
    by the caller, guarantees that sample is untainted). *)

val reset : t -> unit
(** Return to the freshly created state ([initial_rto], no samples) —
    the estimator is volatile, so a crashed-and-restarted sender starts
    estimating from scratch. *)

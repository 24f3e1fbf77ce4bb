(* Window bookkeeping lives in flat lead-sized arrays indexed by
   [seq mod lead] — valid exactly for the flight band [na, ns), whose
   members are distinct mod lead. Timers are persistent
   {!Ba_sim.Engine.slot}s: [Simple] owns one, the per-message designs
   own one per window slot, whose callback reads the sequence number it
   is currently armed for from [tslot_seq]. Sending, acknowledging and
   (re)arming a timer therefore allocate nothing. *)

type design = Simple | Multi | Reuse of { lead : int }

type t = {
  config : Config.t;
  design : design;
  lead : int;  (* bound on ns - na; = window for Simple and Multi *)
  codec : Seqcodec.t;
  engine : Ba_sim.Engine.t;
  tx : Ba_proto.Wire.data -> unit;
  source : Ba_proto.Source.t;
  payloads : string array;  (* payloads of [na, ns), at [seq mod lead] *)
  acked_seq : int array;  (* seq when that seq is acked out of order, -1 otherwise *)
  tslots : Ba_sim.Engine.slot array;  (* Simple: the one timer; else one per window slot *)
  tslot_seq : int array;  (* seq each per-message slot is armed for, -1 when disarmed *)
  sent_at : int array;  (* first-transmission time, for RTT sampling *)
  resent : int array;  (* per-message retransmission count (Karn's rule + backoff) *)
  estimator : Rtt_estimator.t option;
  guard : Window_guard.t;
  sync_timer : Ba_sim.Timer.t;  (* REQ retry while awaiting the receiver's POS *)
  mutable na : int;
  mutable ns : int;
  mutable unacked : int;  (* members of [na, ns) not yet acknowledged *)
  mutable alive : bool;
  mutable epoch : int;  (* incarnation; stable storage *)
  mutable syncing : bool;  (* restarted; REQ sent, POS pending *)
  mutable retransmissions : int;
  mutable corrupt_acks_dropped : int;
  mutable stale_epoch_dropped : int;
  mutable resync_rounds : int;  (* handshake frames sent (REQ + FIN) *)
  mutable restarts : int;
  (* AIMD congestion window (dynamic_window mode): cwnd counts messages,
     ack_credit accumulates fractional additive increase. *)
  mutable cwnd : int;
  mutable ack_credit : int;
  mutable wclamp : int option;
      (* externally imposed window clamp (fabric backpressure); survives
         crash–restart because the pressure is outside this endpoint *)
}

let outstanding t = t.ns - t.na

let slot_of t seq = seq mod t.lead

let is_acked t seq = t.acked_seq.(slot_of t seq) = seq

(* The effective window is the configured one narrowed by every active
   pressure signal: the static retransmit-buffer budget, any fabric
   backpressure clamp, and (in dynamic mode) the AIMD congestion
   window. *)
let effective_window t =
  let w = t.config.Config.window in
  let w = match t.config.Config.tx_budget with Some b -> min w b | None -> w in
  let w = match t.wclamp with Some c -> min w c | None -> w in
  if t.config.Config.dynamic_window then min t.cwnd w else w

(* Additive increase: one extra message of window per cwnd acknowledged
   (i.e. +1 per round trip at saturation). *)
let on_progress t acked_count =
  if t.config.Config.dynamic_window && t.cwnd < t.config.Config.window then begin
    t.ack_credit <- t.ack_credit + acked_count;
    if t.ack_credit >= t.cwnd then begin
      t.ack_credit <- 0;
      t.cwnd <- t.cwnd + 1
    end
  end

(* Multiplicative decrease on timeout. *)
let on_loss_signal t =
  if t.config.Config.dynamic_window then begin
    t.cwnd <- max 1 (t.cwnd / 2);
    t.ack_credit <- 0
  end

let base_rto t =
  match t.estimator with Some e -> Rtt_estimator.rto e | None -> t.config.Config.rto

(* Adaptive mode backs off per message: each retransmission of [seq]
   doubles its own timer, independently of its window mates (a shared
   backoff would compound across the whole window). Fixed mode keeps the
   paper's constant timeout period. *)
let rto_for t seq =
  match t.estimator with
  | None -> t.config.Config.rto
  | Some _ ->
      let factor = 1 lsl min t.resent.(slot_of t seq) 6 in
      min (base_rto t * factor) (60 * t.config.Config.rto)

(* Handshake message 1 (REQ): a restarted sender has no idea how much of
   its outbox the receiver already delivered; ask. Retried on a timer
   until POS arrives. *)
let send_req t =
  t.resync_rounds <- t.resync_rounds + 1;
  t.tx (Ba_proto.Wire.make_sync_req ~epoch:t.epoch);
  Ba_sim.Timer.start t.sync_timer

let send_fin t =
  t.resync_rounds <- t.resync_rounds + 1;
  t.tx (Ba_proto.Wire.make_sync_fin ~epoch:t.epoch)

(* Action 2 / 2': the timer of message [seq] expired (for [Simple],
   [seq] is always [na]), meaning no copy of it or of a covering
   acknowledgment survives in either channel; resend it. *)
let rec on_timeout t seq =
  if t.alive && (not t.syncing) && seq >= t.na && seq < t.ns && not (is_acked t seq) then begin
    t.retransmissions <- t.retransmissions + 1;
    on_loss_signal t;
    (* Karn's algorithm, second half: the rule in [sample_rtt] only
       excludes tainted samples, so during an outage the estimator would
       otherwise keep its stale pre-outage rto and every *newly* pumped
       message would retransmit at that collapsed value forever. Back off
       the shared estimate too, but only when the oldest outstanding
       message expires — w simultaneous per-message expiries must not
       compound into a 2^w backoff. The next genuine sample rebuilds the
       rto from srtt/rttvar as usual. *)
    if seq = t.na then Option.iter Rtt_estimator.backoff t.estimator;
    t.resent.(slot_of t seq) <- t.resent.(slot_of t seq) + 1;
    (* With unbounded wire numbers decode is exact and no hold is needed.
       The stale-copy decode band is [seq, seq + lead). *)
    if t.config.Config.wire_modulus <> None then
      Window_guard.note_retransmission t.guard ~seq ~window:t.lead
        ~hold_for:(Config.hold_duration t.config);
    transmit t seq
  end

(* [Simple]'s one timer restarts on every data transmission: the paper's
   simple timeout measures silence since the last data send. *)
and transmit t seq =
  if seq < t.na || seq >= t.ns then invalid_arg "Sender.transmit: no buffered payload";
  let i = slot_of t seq in
  t.tx
    (Ba_proto.Wire.make_data_e ~epoch:t.epoch ~seq:(Seqcodec.encode t.codec seq)
       ~payload:t.payloads.(i));
  match t.design with
  | Simple -> Ba_sim.Engine.slot_arm t.tslots.(0) ~delay:t.config.Config.rto
  | Multi | Reuse _ ->
      t.tslot_seq.(i) <- seq;
      Ba_sim.Engine.slot_arm t.tslots.(i) ~delay:(rto_for t seq)

(* With [lead = window] the band bound reads [ns - na < effective window]
   and implies the unacked one; with slot reuse the unacked bound is the
   classic resource limit and the band bound keeps the receiver's decode
   band sound. *)
let rec pump t =
  let ew = effective_window t in
  if t.alive && (not t.syncing) && t.unacked < ew
     && outstanding t < t.lead - t.config.Config.window + ew
  then begin
    if t.ns >= Window_guard.frontier t.guard then
      (* A retransmitted copy may still be in flight; sending past its
         decode window would risk mis-reconstruction at the receiver. *)
      Window_guard.when_blocked t.guard (fun () -> pump t)
    else begin
      match Ba_proto.Source.next t.source with
      | None -> ()
      | Some payload ->
          let seq = t.ns in
          let i = slot_of t seq in
          t.payloads.(i) <- payload;
          t.acked_seq.(i) <- -1;
          t.resent.(i) <- 0;
          t.ns <- t.ns + 1;
          t.unacked <- t.unacked + 1;
          t.sent_at.(i) <- Ba_sim.Engine.now t.engine;
          transmit t seq;
          pump t
    end
  end

let is_done t =
  t.alive && (not t.syncing) && outstanding t = 0 && Ba_proto.Source.exhausted t.source

let create engine config ~design ~tx ~next_payload =
  Config.validate config;
  let w = config.Config.window in
  let lead =
    match design with
    | Simple | Multi -> w
    | Reuse { lead } ->
        if lead < w then invalid_arg "Sender.create: lead must be >= window";
        (* Slot reuse decodes over the whole lead band, so the sound
           modulus bound is the stricter [2 * lead], not the plain
           window's [2 * w]. Reject it here with the reuse-specific bound
           rather than letting the codec report a misleading "2*window"
           (its window IS the lead). *)
        (match config.Config.wire_modulus with
        | Some n when n < 2 * lead ->
            invalid_arg
              (Printf.sprintf "Sender.create: modulus %d < 2*lead=%d loses information" n
                 (2 * lead))
        | Some _ | None -> ());
        lead
  in
  (* The simple design keeps the paper's fixed timeout and window. *)
  let config =
    match design with
    | Simple -> { config with Config.adaptive_rto = false; dynamic_window = false }
    | Multi | Reuse _ -> config
  in
  let source = Ba_proto.Source.create next_payload in
  let codec = Seqcodec.create ~window:lead ~wire_modulus:config.Config.wire_modulus in
  let estimator =
    if config.Config.adaptive_rto then begin
      (* With a finite modulus the configured rto is the soundness floor
         (it encodes the channel-lifetime bound); unbounded wire numbers
         can chase the real round trip freely. *)
      let floor =
        match config.Config.wire_modulus with Some _ -> config.Config.rto | None -> 2
      in
      Some
        (Rtt_estimator.create ~floor ~ceiling:(60 * config.Config.rto)
           ~initial_rto:config.Config.rto ())
    end
    else None
  in
  let rec t =
    lazy
      {
        config;
        design;
        lead;
        codec;
        engine;
        tx;
        source;
        payloads = Array.make lead "";
        acked_seq = Array.make lead (-1);
        tslots =
          (match design with
          | Simple ->
              [| Ba_sim.Engine.slot_create engine (fun () ->
                     let t = Lazy.force t in
                     on_timeout t t.na) |]
          | Multi | Reuse _ ->
              Array.init lead (fun i ->
                  Ba_sim.Engine.slot_create engine (fun () ->
                      let t = Lazy.force t in
                      on_timeout t t.tslot_seq.(i))));
        tslot_seq = Array.make lead (-1);
        sent_at = Array.make lead 0;
        resent = Array.make lead 0;
        estimator;
        guard = Window_guard.create engine;
        sync_timer =
          Ba_sim.Timer.create engine ~duration:config.Config.rto (fun () ->
              let t = Lazy.force t in
              if t.alive && t.syncing then send_req t);
        na = 0;
        ns = 0;
        unacked = 0;
        alive = true;
        epoch = 0;
        syncing = false;
        retransmissions = 0;
        corrupt_acks_dropped = 0;
        stale_epoch_dropped = 0;
        resync_rounds = 0;
        restarts = 0;
        cwnd = 1;
        ack_credit = 0;
        wclamp = None;
      }
  in
  Lazy.force t

let stop_timer t seq =
  let i = slot_of t seq in
  if t.tslot_seq.(i) = seq then begin
    Ba_sim.Engine.slot_cancel t.tslots.(i);
    t.tslot_seq.(i) <- -1
  end

let sample_rtt t seq =
  match t.estimator with
  | None -> ()
  | Some e ->
      (* Karn's rule: only first-transmission acknowledgments are
         unambiguous round-trip samples. *)
      let i = slot_of t seq in
      if t.resent.(i) = 0 then
        Rtt_estimator.observe e (Ba_sim.Engine.now t.engine - t.sent_at.(i))

(* Wipe all volatile state: payload/ack/timer arrays, the congestion and
   rtt estimators, the retransmission-frontier holds. [na]/[ns] are
   zeroed too (they are meaningless without the buffers); the truth about
   position lives at the receiver and comes back via POS. Stable storage
   keeps only the epoch and, implicitly, the application outbox
   ({!Ba_proto.Source} retains issued payloads for replay). *)
let wipe_volatile t =
  Array.iter Ba_sim.Engine.slot_cancel t.tslots;
  Array.fill t.tslot_seq 0 t.lead (-1);
  Array.fill t.acked_seq 0 t.lead (-1);
  Array.fill t.payloads 0 t.lead "";
  Array.fill t.resent 0 t.lead 0;
  Array.fill t.sent_at 0 t.lead 0;
  Window_guard.clear t.guard;
  Option.iter Rtt_estimator.reset t.estimator;
  Ba_sim.Timer.stop t.sync_timer;
  t.na <- 0;
  t.ns <- 0;
  t.unacked <- 0;
  t.cwnd <- 1;
  t.ack_credit <- 0

let crash t =
  if t.alive then begin
    t.alive <- false;
    t.syncing <- false;
    wipe_volatile t
  end

(* Adopt the receiver-announced resume position: align [na]/[ns] there
   and rewind the outbox so [pump] replays from it. *)
let resync_to t pos =
  Ba_proto.Source.rewind t.source ~to_:pos;
  t.na <- pos;
  t.ns <- pos;
  t.syncing <- false;
  Ba_sim.Timer.stop t.sync_timer

let restart t =
  if not t.alive then begin
    t.alive <- true;
    t.restarts <- t.restarts + 1;
    if t.config.Config.resync_epochs then begin
      t.epoch <- t.epoch + 1;
      t.syncing <- true;
      send_req t
    end
    else begin
      (* Negative control: resume blind from zero, replaying the whole
         outbox against a receiver that may be far ahead. *)
      Ba_proto.Source.rewind t.source ~to_:0;
      pump t
    end
  end

(* Action 1: mark every covered sequence number that is still
   outstanding, then slide na over the acknowledged prefix. Stale
   duplicates decode outside [na, ns) and are ignored. A corrupted
   acknowledgment is discarded outright: a mangled block range could
   cover messages the receiver never accepted, which is a safety
   violation, not just waste. With epochs on, frames from a dead
   incarnation are rejected the same way the receiver rejects stale
   data; a *higher* epoch means the receiver restarted and its POS tells
   us everything we need. *)
let on_ack t a =
  if not t.alive then ()
  else if not (Ba_proto.Wire.ack_ok a) then
    t.corrupt_acks_dropped <- t.corrupt_acks_dropped + 1
  else begin
    let epochs = t.config.Config.resync_epochs in
    if epochs && a.Ba_proto.Wire.epoch < t.epoch then
      t.stale_epoch_dropped <- t.stale_epoch_dropped + 1
    else if epochs && a.Ba_proto.Wire.epoch > t.epoch then begin
      (* Only a restarted receiver mints a higher epoch, and it only
         sends POS until we confirm — adopt its epoch and position. *)
      match a.Ba_proto.Wire.akind with
      | Ba_proto.Wire.Sync_pos ->
          t.epoch <- a.Ba_proto.Wire.epoch;
          wipe_volatile t;
          resync_to t a.Ba_proto.Wire.lo;
          send_fin t;
          pump t
      | Ba_proto.Wire.Ack -> t.stale_epoch_dropped <- t.stale_epoch_dropped + 1
    end
    else begin
      match a.Ba_proto.Wire.akind with
      | Ba_proto.Wire.Sync_pos ->
          if t.syncing then begin
            resync_to t a.Ba_proto.Wire.lo;
            send_fin t;
            pump t
          end
          else
            (* Duplicate POS: our FIN was lost and the receiver is still
               retrying. Re-confirm; do not move the window. *)
            send_fin t
      | Ba_proto.Wire.Ack ->
          if not t.syncing then begin
            let lo = a.Ba_proto.Wire.lo in
            let hi = a.Ba_proto.Wire.hi in
            let count = Seqcodec.span t.codec ~lo ~hi in
            for k = 0 to count - 1 do
              let wire = Seqcodec.shift t.codec lo k in
              let seq = Seqcodec.decode_ack t.codec ~na:t.na wire in
              if seq >= t.na && seq < t.ns && not (is_acked t seq) then begin
                sample_rtt t seq;
                t.acked_seq.(slot_of t seq) <- seq;
                t.unacked <- t.unacked - 1;
                stop_timer t seq
              end
            done;
            let na_before = t.na in
            while is_acked t t.na do
              let i = slot_of t t.na in
              t.acked_seq.(i) <- -1;
              t.payloads.(i) <- "";
              t.na <- t.na + 1
            done;
            (* Simple's one timer; a per-message slot is already
               disarmed once its seq is acknowledged. *)
            if outstanding t = 0 then Ba_sim.Engine.slot_cancel t.tslots.(0);
            on_progress t (t.na - na_before);
            pump t
          end
    end
  end

let na t = t.na
let ns t = t.ns
let unacked t = t.unacked
let retransmissions t = t.retransmissions
let corrupt_acks_dropped t = t.corrupt_acks_dropped
let rto_now t = base_rto t
let srtt t = Option.map Rtt_estimator.srtt t.estimator
let cwnd t = t.cwnd

let clamp_window t n =
  if n < 1 then invalid_arg "Sender.clamp_window: clamp must be >= 1";
  t.wclamp <- (if n >= t.config.Config.window then None else Some n)

let window_clamp t = t.wclamp

let buffered_bytes t =
  let n = ref 0 in
  for seq = t.na to t.ns - 1 do
    n := !n + String.length t.payloads.(slot_of t seq)
  done;
  !n

let alive t = t.alive
let epoch t = t.epoch
let syncing t = t.syncing
let stale_epoch_dropped t = t.stale_epoch_dropped
let resync_rounds t = t.resync_rounds
let restarts t = t.restarts

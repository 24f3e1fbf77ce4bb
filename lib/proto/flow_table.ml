(* The flow table: every flow of one engine as flat arrays. Per-message
   state (pull tick, the pulled payload, delivered/sent bits) is indexed
   by [msg_base.(i) + k] for message [k] of flow [i]. The front ends
   (Harness, Fabric, Shard) differ only in the links behind [data_tx] /
   [ack_tx] and the latency sink. *)

module Engine = Ba_sim.Engine
module Bitset = Ba_util.Bitset
module Stats = Ba_util.Stats

type spec = {
  protocol : Protocol.t;
  config : Proto_config.t;
  messages : int;
  payload_size : int;
  start_at : int;
  stop_at : int option;
  crash_plan : Crash_plan.t;
}

let validate ~who ~budget specs =
  if specs = [] then invalid_arg (who ^ ": at least one flow required");
  List.iter
    (fun s ->
      Proto_config.validate s.config;
      Crash_plan.validate s.crash_plan;
      if s.start_at < 0 then invalid_arg (who ^ ": start_at must be >= 0");
      match s.stop_at with
      | Some d when d <= s.start_at -> invalid_arg (who ^ ": stop_at must be > start_at")
      | Some _ | None -> ())
    specs;
  match budget with
  | Some b when b <= 0 -> invalid_arg (who ^ ": memory_budget must be positive")
  | Some _ | None -> ()

(* Worst-case bytes one flow can pin: a full effective window of
   payloads in the sender's retransmit buffer plus as many again in the
   receiver's reassembly window. Deliberately conservative — admission
   guarantees the budget even when every admitted flow (surge flows
   included) saturates simultaneously. *)
let flow_cost s ~clamp = 2 * min s.config.Proto_config.window clamp * s.payload_size

(* Peak concurrent cost under the interval model: a flow pins memory
   only while its [start_at, stop_at) interval is open, so the budget
   must cover the worst instant, not the lifetime sum. The concurrent
   total is piecewise constant and only steps up at interval starts, so
   checking each spec's [start_at] finds the peak. *)
let peak_cost ~clamp specs =
  let active_at t s = s.start_at <= t && match s.stop_at with None -> true | Some d -> t < d in
  List.fold_left
    (fun acc s ->
      let here =
        List.fold_left
          (fun a s' -> if active_at s.start_at s' then a + flow_cost s' ~clamp else a)
          0 specs
      in
      max acc here)
    0 specs

(* Graceful degradation (Jain, DEC-TR-342), in preference order: admit
   everyone unclamped; else everyone under the largest uniform window
   clamp that fits; else clamp to 1 and the longest spec prefix that
   fits, refusing the rest. *)
let plan_admission ~budget specs =
  let max_w = List.fold_left (fun acc s -> max acc s.config.Proto_config.window) 1 specs in
  let rec fit c = if c >= 1 && peak_cost ~clamp:c specs > budget then fit (c - 1) else c in
  let c = fit max_w in
  if c >= 1 then (specs, 0, if c < max_w then Some c else None)
  else begin
    let rec split admitted = function
      | [] -> (List.rev admitted, 0)
      | s :: rest ->
          if peak_cost ~clamp:1 (List.rev (s :: admitted)) > budget then
            (List.rev admitted, List.length (s :: rest))
          else split (s :: admitted) rest
    in
    let admitted, refused = split [] specs in
    if admitted = [] then invalid_arg "Fabric.run: memory_budget admits no flow";
    (admitted, refused, Some 1)
  end

(* The clamp is enforced twice over: the sender's effective window is
   capped at creation and the receiver's reassembly budget is rewritten
   to match, so even a misbehaving sender cannot pin more than the
   accounted slots. *)
let clamp_rx c s =
  let w = s.config.Proto_config.window in
  if c >= w then s
  else
    let rx = Option.value ~default:w s.config.Proto_config.rx_budget in
    { s with config = { s.config with Proto_config.rx_budget = Some (min c rx) } }

(* Per-protocol endpoint arrays behind one set of closures: dispatch
   costs one closure per group, not per flow. *)
type group = {
  g_create : (* slot config tx next_payload ack_tx deliver *)
    int -> Proto_config.t -> (Wire.data -> unit) -> (unit -> string option) ->
    (Wire.ack -> unit) -> (string -> unit) -> unit;
  g_tolerant : bool;
  g_on_ack : int -> Wire.ack -> unit;
  g_on_data : int -> Wire.data -> unit;
  g_pump : int -> unit;
  g_sender_done : int -> bool;
  g_retx : int -> int;
  g_mem : int -> int;
  g_pressure : int -> int;
  g_clamp : int -> int -> unit;
  g_resync_rounds : int -> int;
  g_crash : int -> Crash_plan.endpoint -> unit;
  g_restart : int -> Crash_plan.endpoint -> unit;
}

let make_group engine (module P : Protocol.S) count =
  let senders : P.sender option array = Array.make count None in
  let receivers : P.receiver option array = Array.make count None in
  let s i = Option.get senders.(i) and r i = Option.get receivers.(i) in
  {
    g_create =
      (fun slot config tx next_payload ack_tx deliver ->
        senders.(slot) <- Some (P.create_sender engine config ~tx ~next_payload);
        receivers.(slot) <- Some (P.create_receiver engine config ~tx:ack_tx ~deliver));
    g_tolerant = P.crash_tolerant;
    g_on_ack = (fun i a -> P.sender_on_ack (s i) a);
    g_on_data = (fun i d -> P.receiver_on_data (r i) d);
    g_pump = (fun i -> P.sender_pump (s i));
    g_sender_done = (fun i -> P.sender_done (s i));
    g_retx = (fun i -> P.sender_retransmissions (s i));
    g_mem = (fun i -> P.sender_mem_bytes (s i) + P.receiver_mem_bytes (r i));
    g_pressure = (fun i -> P.receiver_pressure_dropped (r i));
    g_clamp = (fun i w -> P.sender_clamp_window (s i) w);
    g_resync_rounds = (fun i -> P.sender_resync_rounds (s i) + P.receiver_resync_rounds (r i));
    g_crash =
      (fun i -> function
        | Crash_plan.Sender_end -> P.sender_crash (s i)
        | Crash_plan.Receiver_end -> P.receiver_crash (r i));
    g_restart =
      (fun i -> function
        | Crash_plan.Sender_end -> P.sender_restart (s i)
        | Crash_plan.Receiver_end -> P.receiver_restart (r i));
  }

(* Crash bookkeeping, allocated at a flow's first crash: every restart
   opens a recovery interval that the next new delivery (or completion)
   closes. *)
type recovery = {
  mutable crashes : int;
  mutable restarts : int;
  mutable pending : int list;  (* restart ticks not yet resolved *)
  resync : Stats.t;
}

type latency = Per_flow | Sketch of Ba_util.Qsketch.t

type t = {
  engine : Engine.t;
  specs : spec array;
  refused : int;
  clamp : int option;
  workload_seed : int -> int;
  data_tx : int -> Wire.data -> unit;
  ack_tx : int -> Wire.ack -> unit;
  msg_base : int array;
  delivered : int array;
  next_expected : int array;
  next_msg : int array;
  duplicates : int array;
  misordered : int array;
  corrupted : int array;
  data_sent : int array;
  acks_sent : int array;
  retx_bytes : int array;
  completed_at : int array;  (* -1 until completion *)
  active : bool array;  (* cleared only by departure *)
  gated : bool array;  (* frames released instead of sent *)
  recovery : recovery option array;
  seen : Bitset.t;  (* per message: delivered *)
  sent_once : Bitset.t;  (* per message: transmitted at least once *)
  pulled_at : int array;  (* per message: pull tick, -1 before *)
  expected : string array;  (* per message: the pulled payload until delivered *)
  latency : latency;
  lat_stats : Stats.t array;
  groups : group array;
  group_of : int array;
  gslot : int array;
  dogs : Watchdog.t array;
  mutable remaining : int;
  mutable done_at : int;  (* -1 while running *)
  mutable mem_peak : int;
}

let grp t i = t.groups.(t.group_of.(i))
let messages t i = t.msg_base.(i + 1) - t.msg_base.(i)

let finish t =
  t.remaining <- t.remaining - 1;
  if t.remaining = 0 then begin
    t.done_at <- Engine.now t.engine;
    Engine.stop t.engine
  end

let charge r ~upto =
  List.iter (fun t0 -> Stats.add r.resync (float_of_int (upto - t0))) r.pending;
  r.pending <- []

let resolve_restarts t i =
  match t.recovery.(i) with
  | Some r when r.pending <> [] -> charge r ~upto:(Engine.now t.engine)
  | Some _ | None -> ()

let is_complete t i = t.delivered.(i) >= messages t i && (grp t i).g_sender_done t.gslot.(i)

(* Checked after every delivery, every ack and every sender restart. *)
let check_done t i =
  if t.active.(i) && t.completed_at.(i) < 0 && is_complete t i then begin
    t.completed_at.(i) <- Engine.now t.engine;
    resolve_restarts t i;
    finish t
  end

let recovery t i =
  match t.recovery.(i) with
  | Some r -> r
  | None ->
      let r = { crashes = 0; restarts = 0; pending = []; resync = Stats.create () } in
      t.recovery.(i) <- Some r;
      r

let crash t i ep =
  let r = recovery t i in
  r.crashes <- r.crashes + 1;
  (grp t i).g_crash t.gslot.(i) ep

let restart t i ep =
  let r = recovery t i in
  r.restarts <- r.restarts + 1;
  r.pending <- Engine.now t.engine :: r.pending;
  (grp t i).g_restart t.gslot.(i) ep;
  match ep with Crash_plan.Sender_end -> check_done t i | Crash_plan.Receiver_end -> ()

(* Pull message [k] of flow [i]. The payload is kept until its first
   valid delivery, so validation compares against it rather than
   regenerating it. *)
let next_payload t i =
  let k = t.next_msg.(i) in
  if k >= messages t i then None
  else begin
    t.next_msg.(i) <- k + 1;
    let p = Workload.payload ~seed:(t.workload_seed i) ~size:t.specs.(i).payload_size k in
    let m = t.msg_base.(i) + k in
    t.expected.(m) <- p;
    t.pulled_at.(m) <- Engine.now t.engine;
    Some p
  end

let deliver t i payload =
  (match Workload.index_of payload with
  | Some k when k >= 0 && k < messages t i ->
      let m = t.msg_base.(i) + k in
      let exp = t.expected.(m) in
      let valid =
        if String.length exp > 0 then String.equal exp payload
        else
          String.equal
            (Workload.payload ~seed:(t.workload_seed i) ~size:t.specs.(i).payload_size k)
            payload
      in
      if not valid then t.corrupted.(i) <- t.corrupted.(i) + 1
      else if Bitset.mem t.seen m then t.duplicates.(i) <- t.duplicates.(i) + 1
      else begin
        Bitset.set t.seen m;
        t.expected.(m) <- "";
        t.delivered.(i) <- t.delivered.(i) + 1;
        resolve_restarts t i;
        let t0 = t.pulled_at.(m) in
        (if t0 >= 0 then
           let x = float_of_int (Engine.now t.engine - t0) in
           match t.latency with
           | Per_flow -> Stats.add t.lat_stats.(i) x
           | Sketch q -> Ba_util.Qsketch.add q x);
        if k <> t.next_expected.(i) then t.misordered.(i) <- t.misordered.(i) + 1;
        t.next_expected.(i) <- k + 1
      end
  | Some _ | None -> t.corrupted.(i) <- t.corrupted.(i) + 1);
  check_done t i

(* A second transmission of the same workload index is a retransmitted
   copy; handshake frames carry no payload and are not counted. *)
let offer_data t i d =
  t.data_sent.(i) <- t.data_sent.(i) + 1;
  (match d.Wire.dkind with
  | Wire.Msg -> (
      match Workload.index_of d.Wire.payload with
      | Some k when k >= 0 && k < messages t i ->
          let m = t.msg_base.(i) + k in
          if Bitset.mem t.sent_once m then
            t.retx_bytes.(i) <- t.retx_bytes.(i) + Wire.data_bytes d
          else Bitset.set t.sent_once m
      | Some _ | None -> ())
  | Wire.Sync_req | Wire.Sync_fin -> ());
  if t.gated.(i) then Wire.release_data d else t.data_tx i d

let offer_ack t i a =
  t.acks_sent.(i) <- t.acks_sent.(i) + 1;
  if t.gated.(i) then Wire.release_ack a else t.ack_tx i a

let on_data t i d = if t.active.(i) then (grp t i).g_on_data t.gslot.(i) d

let on_ack t i a =
  if t.active.(i) then begin
    (grp t i).g_on_ack t.gslot.(i) a;
    check_done t i
  end

let sample_mem t =
  let total = ref 0 in
  for i = 0 to Array.length t.specs - 1 do
    if t.active.(i) then total := !total + (grp t i).g_mem t.gslot.(i)
  done;
  if !total > t.mem_peak then t.mem_peak <- !total

let protocol_name s = let (module P : Protocol.S) = s.protocol in P.name

(* [s]'s group among each group's first spec, or [Array.length firsts]. *)
let rec find_group firsts s g =
  if g = Array.length firsts || String.equal (protocol_name firsts.(g)) (protocol_name s) then g
  else find_group firsts s (g + 1)

(* Group flows by protocol, groups in order of first appearance; a
   flow's slot is its rank among its group's flows. *)
let make_groups engine specs =
  let firsts = ref [||] in
  let group_of =
    Array.map
      (fun s ->
        let g = find_group !firsts s 0 in
        if g = Array.length !firsts then firsts := Array.append !firsts [| s |];
        g)
      specs
  in
  let counts = Array.make (Array.length !firsts) 0 in
  let gslot = Array.map (fun g -> counts.(g) <- counts.(g) + 1; counts.(g) - 1) group_of in
  (Array.mapi (fun g f -> make_group engine f.protocol counts.(g)) !firsts, group_of, gslot)

let schedule_at t at f = ignore (Engine.schedule_at t.engine ~at f)

(* Departure: at stop_at the flow is closed whether or not it finished;
   its gate shuts, no event reaches it, and its buffered bytes stop
   counting. *)
let depart t i () =
  if t.active.(i) then begin
    t.active.(i) <- false;
    t.gated.(i) <- true;
    if t.completed_at.(i) < 0 then finish t
  end

(* Recovery goes through the crash-restart handshake: wipe the sender's
   volatile state and let REQ/POS/FIN re-establish the window.
   Protocols without a crash lifecycle have no recovery lever. *)
let resync t i =
  if (grp t i).g_tolerant then begin
    crash t i Crash_plan.Sender_end;
    restart t i Crash_plan.Sender_end
  end

(* Live completion, not the latched one: a completed flow whose sender a
   crash plan took down is watched (and resynced) again. *)
let rec watch t (cfg : Watchdog.config) () =
  sample_mem t;
  for i = 0 to Array.length t.specs - 1 do
    if t.active.(i) && t.specs.(i).start_at <= Engine.now t.engine then
      match Watchdog.observe t.dogs.(i) ~delivered:t.delivered.(i) ~completed:(is_complete t i) with
      | Watchdog.Nothing -> ()
      | Watchdog.Resync -> resync t i
      | Watchdog.Quarantine -> t.gated.(i) <- true
      | Watchdog.Release ->
          t.gated.(i) <- false;
          resync t i
  done;
  if t.remaining > 0 then
    ignore (Engine.schedule t.engine ~delay:cfg.Watchdog.check_interval (watch t cfg))

(* Without a watchdog, a budget still arms a sampler: admission is a
   static worst-case guarantee and the sampler observes what happened. *)
let rec sample_every t () =
  sample_mem t;
  if t.remaining > 0 then ignore (Engine.schedule t.engine ~delay:500 (sample_every t))

let create engine ~workload_seed ~latency ~budget ~watchdog ~data_tx ~ack_tx specs =
  let specs, refused, clamp =
    match budget with
    | None -> (specs, 0, None)
    | Some budget -> plan_admission ~budget specs
  in
  let specs = Array.of_list specs in
  let specs = match clamp with None -> specs | Some c -> Array.map (clamp_rx c) specs in
  let n = Array.length specs in
  let msg_base = Array.make (n + 1) 0 in
  Array.iteri (fun i s -> msg_base.(i + 1) <- msg_base.(i) + s.messages) specs;
  let total = max 1 msg_base.(n) in
  let groups, group_of, gslot = make_groups engine specs in
  let ints () = Array.make n 0 in
  let t =
    {
      engine;
      specs;
      refused;
      clamp;
      workload_seed;
      data_tx;
      ack_tx;
      msg_base;
      delivered = ints ();
      next_expected = ints ();
      next_msg = ints ();
      duplicates = ints ();
      misordered = ints ();
      corrupted = ints ();
      data_sent = ints ();
      acks_sent = ints ();
      retx_bytes = ints ();
      completed_at = Array.make n (-1);
      active = Array.make n true;
      gated = Array.make n false;
      recovery = Array.make n None;
      seen = Bitset.create ~initial_capacity:total ();
      sent_once = Bitset.create ~initial_capacity:total ();
      pulled_at = Array.make total (-1);
      expected = Array.make total "";
      latency;
      lat_stats =
        (match latency with Per_flow -> Array.init n (fun _ -> Stats.create ()) | Sketch _ -> [||]);
      groups;
      group_of;
      gslot;
      dogs =
        (match watchdog with
        | Some cfg -> Array.init n (fun _ -> Watchdog.create cfg)
        | None -> [||]);
      remaining = n;
      done_at = -1;
      mem_peak = 0;
    }
  in
  Array.iteri
    (fun i s ->
      let g = grp t i in
      g.g_create gslot.(i) s.config
        (fun d -> offer_data t i d)
        (fun () -> next_payload t i)
        (fun a -> offer_ack t i a)
        (fun p -> deliver t i p);
      Option.iter (g.g_clamp gslot.(i)) clamp)
    specs;
  Array.iteri (fun i s -> Option.iter (fun d -> schedule_at t d (depart t i)) s.stop_at) specs;
  (match watchdog with
  | Some cfg -> ignore (Engine.schedule engine ~delay:cfg.Watchdog.check_interval (watch t cfg))
  | None -> if budget <> None then ignore (Engine.schedule engine ~delay:500 (sample_every t)));
  Array.iteri
    (fun i s ->
      List.iter
        (fun (e : Crash_plan.event) ->
          schedule_at t e.Crash_plan.at (fun () -> crash t i e.Crash_plan.endpoint);
          schedule_at t (e.Crash_plan.at + e.Crash_plan.down_for) (fun () ->
              restart t i e.Crash_plan.endpoint))
        s.crash_plan)
    specs;
  t

(* Surge flows (start_at > 0) exist from tick 0 — creation order fixes
   determinism — but only start offering traffic at their start tick. *)
let start t =
  Array.iteri
    (fun i s ->
      let pump () = if t.active.(i) then (grp t i).g_pump t.gslot.(i) in
      if s.start_at = 0 then pump () else schedule_at t s.start_at pump)
    t.specs

let deadline t =
  let max_rto = Array.fold_left (fun acc s -> max acc s.config.Proto_config.rto) 1 t.specs in
  (max 1 t.msg_base.(Array.length t.specs) * max_rto * 20) + 1_000_000

let size t = Array.length t.specs
let refused t = t.refused
let clamp t = t.clamp
let done_at t = if t.done_at >= 0 then Some t.done_at else None
let mem_peak t = t.mem_peak
let count_dogs t f = Array.fold_left (fun a d -> a + f d) 0 t.dogs
let quarantine_events t = count_dogs t Watchdog.quarantine_events
let watchdog_resyncs t = count_dogs t Watchdog.resync_events

let quarantined t = count_dogs t (fun d -> Bool.to_int (Watchdog.state d = Watchdog.Quarantined))

let sum t f =
  let acc = ref 0 in
  for i = 0 to size t - 1 do
    acc := !acc + f t i
  done;
  !acc

let spec t i = t.specs.(i)
let delivered t i = t.delivered.(i)
let duplicates t i = t.duplicates.(i)
let misordered t i = t.misordered.(i)
let corrupted t i = t.corrupted.(i)
let data_sent t i = t.data_sent.(i)
let acks_sent t i = t.acks_sent.(i)
let retransmissions t i = (grp t i).g_retx t.gslot.(i)
let pressure_drops t i = (grp t i).g_pressure t.gslot.(i)
let retx_bytes t i = t.retx_bytes.(i)
let completed_at t i = if t.completed_at.(i) >= 0 then Some t.completed_at.(i) else None
let departed t i = (not t.active.(i)) && t.completed_at.(i) < 0
let latency t i = t.lat_stats.(i)
let crashes t i = match t.recovery.(i) with Some r -> r.crashes | None -> 0
let restarts t i = match t.recovery.(i) with Some r -> r.restarts | None -> 0
let resync_rounds t i = (grp t i).g_resync_rounds t.gslot.(i)

let resync_ticks t i ~ticks =
  match t.recovery.(i) with
  | None -> None
  | Some r ->
      charge r ~upto:ticks;
      if Stats.count r.resync = 0 then None else Some (Stats.summary r.resync)

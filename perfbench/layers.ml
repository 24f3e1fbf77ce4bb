(* Isolated per-layer rows: one tight loop per public function, timed in
   batches. A row's figure is the median batch cost per operation, so a
   slow stretch of the host moves few batches and not the figure. *)

open Ba_proto

type row = { name : string; unit_ : string; ns : float;  (** per op *) samples : int }

(* The reported figure, in the row's unit: "ns" or "us". *)
let value r = if r.unit_ = "us" then r.ns /. 1e3 else r.ns

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let min_batches = 5

(* [run_batch i] performs [batch] operations (the [i]-th batch). Batches
   repeat until [budget_s] has passed, at least [min_batches] times. *)
let timed ~budget_s ~batch name unit_ run_batch =
  run_batch 0;
  let stop = Clock.wall () +. budget_s in
  let rec loop i acc =
    if i > min_batches && Clock.wall () > stop then acc
    else begin
      let t0 = Clock.ns () in
      run_batch i;
      let ns = float_of_int (Clock.ns () - t0) in
      loop (i + 1) ((ns /. float_of_int batch) :: acc)
    end
  in
  let per_op = loop 1 [] in
  { name; unit_; ns = median per_op; samples = List.length per_op * batch }

let sink = ref 0

let payload size = Workload.payload ~seed:7 ~size 0

let checksum ~budget_s size label =
  let p = payload size and batch = 10_000 in
  timed ~budget_s ~batch ("wire.checksum_ns." ^ label) "ns" (fun b ->
      for i = 0 to batch - 1 do
        sink := !sink lxor Wire.data_checksum ~seq:((b * batch) + i) ~payload:p ~epoch:0 ~dkind:Wire.Msg
      done)

let frame_pool ~budget_s =
  let p = payload 32 and batch = 10_000 in
  timed ~budget_s ~batch "wire.pool_ns" "ns" (fun b ->
      for i = 0 to batch - 1 do
        Wire.release_data (Wire.make_data ~seq:((b * batch) + i) ~payload:p)
      done)

let workload_payload ~budget_s size label =
  let batch = if size > 100 then 1_000 else 10_000 in
  timed ~budget_s ~batch ("workload.payload_ns." ^ label) "ns" (fun b ->
      for i = 0 to batch - 1 do
        sink := !sink + String.length (Workload.payload ~seed:3 ~size ((b * batch) + i))
      done)

let engine_event ~budget_s =
  let e = Ba_sim.Engine.create () and batch = 10_000 in
  let f () = incr sink in
  timed ~budget_s ~batch "engine.event_ns" "ns" (fun _ ->
      for _ = 1 to batch do
        ignore (Ba_sim.Engine.schedule e ~delay:1 f);
        ignore (Ba_sim.Engine.step e)
      done)

let timer_rearm ~budget_s =
  let e = Ba_sim.Engine.create () and batch = 10_000 in
  let slot = Ba_sim.Engine.slot_create e (fun () -> incr sink) in
  timed ~budget_s ~batch "engine.timer_rearm_ns" "ns" (fun _ ->
      for i = 1 to batch do
        Ba_sim.Engine.slot_arm slot ~delay:(300 + (i land 63));
        Ba_sim.Engine.slot_cancel slot
      done)

(* A frame through a lossless constant-delay link: send, then the
   engine event that delivers it and the release hook. *)
let link_frame ~budget_s =
  let e = Ba_sim.Engine.create () and batch = 10_000 in
  let l =
    Ba_channel.Link.create e ~delay:(Ba_channel.Dist.Constant 1) ~release:ignore
      ~deliver:(fun (x : int) -> sink := !sink + x)
      ()
  in
  timed ~budget_s ~batch "link.frame_ns" "ns" (fun _ ->
      for i = 1 to batch do
        Ba_channel.Link.send l i;
        ignore (Ba_sim.Engine.step e)
      done)

(* Protocol endpoints through Protocol.S, with unbounded sequence
   numbers so a long loop never wraps. Frames are released after each
   call, as the link does. *)
let endpoint_config = Proto_config.make ~window:16 ~rto:300 ()

let receiver ~budget_s ~ooo =
  let (module P : Protocol.S) = Blockack.Protocols.multi in
  let e = Ba_sim.Engine.create () in
  let r =
    P.create_receiver e endpoint_config ~tx:Wire.release_ack ~deliver:(fun p ->
        sink := !sink + String.length p)
  in
  let p = payload 32 and batch = 16 * 256 in
  (* Out of order: each 16-frame window arrives reversed, so 15 frames
     are buffered and the 16th releases the block. *)
  let seq_of b i =
    let base = b * batch in
    if ooo then base + (i land lnot 15) + (15 - (i land 15)) else base + i
  in
  let name = if ooo then "receiver.on_data_ooo_ns" else "receiver.on_data_inorder_ns" in
  timed ~budget_s ~batch name "ns" (fun b ->
      for i = 0 to batch - 1 do
        let d = Wire.make_data ~seq:(seq_of b i) ~payload:p in
        P.receiver_on_data r d;
        Wire.release_data d
      done)

(* One cumulative ack per message: each ack opens one window slot, so
   the sender pulls a payload, builds and sends a frame and arms its
   retransmission timer. *)
let sender ~budget_s =
  let (module P : Protocol.S) = Blockack.Protocols.multi in
  let e = Ba_sim.Engine.create () in
  let p = payload 32 in
  let s =
    P.create_sender e endpoint_config ~tx:Wire.release_data ~next_payload:(fun () -> Some p)
  in
  P.sender_pump s;
  let batch = 10_000 in
  timed ~budget_s ~batch "sender.on_ack_ns" "ns" (fun b ->
      for i = 0 to batch - 1 do
        let k = (b * batch) + i in
        let a = Wire.make_ack ~lo:k ~hi:k in
        P.sender_on_ack s a;
        Wire.release_ack a
      done)

let codec_frame size =
  let module C = Ba_transport.Codec in
  let buf = Bytes.create C.max_datagram in
  let f = C.Data (Wire.make_data ~seq:12345 ~payload:(payload size)) in
  (buf, f, C.encode buf f)

let codec_encode ~budget_s size label =
  let buf, f, _ = codec_frame size and batch = 10_000 in
  timed ~budget_s ~batch ("codec.encode_ns." ^ label) "ns" (fun _ ->
      for _ = 1 to batch do
        sink := !sink + Ba_transport.Codec.encode buf f
      done)

let codec_decode ~budget_s size label =
  let buf, _, len = codec_frame size and batch = 10_000 in
  timed ~budget_s ~batch ("codec.decode_ns." ^ label) "ns" (fun _ ->
      for _ = 1 to batch do
        match Ba_transport.Codec.decode buf ~len with Ok _ -> incr sink | Error e -> failwith e
      done)

(* A loopback sendto + recvfrom pair on blocking sockets: the syscall
   floor under every udp datagram. *)
let udp_roundtrip ~budget_s =
  let sock () =
    let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
    Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    s
  in
  let a = sock () and b = sock () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let to_b = Unix.getsockname b in
      let out = Bytes.make 60 'x' and inb = Bytes.create 2048 and batch = 200 in
      timed ~budget_s ~batch "udp.roundtrip_us" "us" (fun _ ->
          for _ = 1 to batch do
            ignore (Unix.sendto a out 0 60 [] to_b);
            ignore (Unix.recvfrom b inb 0 2048 [])
          done))

let qsketch ~budget_s =
  let q = Ba_util.Qsketch.create () and rng = Ba_util.Rng.create 5 and batch = 10_000 in
  let xs = Array.init batch (fun _ -> Ba_util.Rng.float rng 1000.) in
  timed ~budget_s ~batch "qsketch.add_ns" "ns" (fun _ ->
      for i = 0 to batch - 1 do
        Ba_util.Qsketch.add q xs.(i)
      done)

(* Dispatch cost per empty task on the shared pool. *)
let pool_dispatch ~budget_s ~jobs label =
  let tasks = List.init 64 Fun.id in
  timed ~budget_s ~batch:64 ("pool.dispatch_us." ^ label) "us" (fun _ ->
      ignore (Ba_parallel.Pool.map_chunks ~jobs ~chunk:1 Fun.id tasks))

(* Every row, sharing [total_s] of measuring time equally. *)
let all ~total_s ~nproc =
  let rows =
    [
      checksum 32 "32B";
      checksum 1024 "1KiB";
      frame_pool;
      workload_payload 32 "32B";
      workload_payload 1024 "1KiB";
      engine_event;
      timer_rearm;
      link_frame;
      receiver ~ooo:false;
      receiver ~ooo:true;
      sender;
      codec_encode 32 "32B";
      codec_decode 32 "32B";
      codec_encode 1024 "1KiB";
      codec_decode 1024 "1KiB";
      udp_roundtrip;
      qsketch;
      pool_dispatch ~jobs:1 "1";
      pool_dispatch ~jobs:nproc "nproc";
    ]
  in
  let budget_s = total_s /. float_of_int (List.length rows) in
  List.map (fun row -> row ~budget_s) rows

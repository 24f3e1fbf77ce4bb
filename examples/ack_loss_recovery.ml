(* Ack-loss recovery, on the wire: build a tiny transfer by hand out of
   a Sender + Receiver, kill the one block acknowledgment that
   covers the whole window, and render time-sequence diagrams of how each
   timeout design recovers (the paper's Section II vs Section IV).

   Run with: dune exec examples/ack_loss_recovery.exe *)

module Engine = Ba_sim.Engine
module Link = Ba_channel.Link
module Wire = Ba_proto.Wire

let block = 4
let rto = 300

let config =
  Blockack.Config.make ~window:8 ~rto ~wire_modulus:(Some 16) ~ack_coalesce:20
    ~max_transit:50 ()

let run_one design =
  let engine = Engine.create ~seed:5 () in
  let tracer = Ba_trace.Tracer.create () in
  let trace side fmt =
    Printf.ksprintf
      (fun label -> Ba_trace.Tracer.record tracer ~time:(Engine.now engine) ~side label)
      fmt
  in
  let sender_cell = ref None and receiver_cell = ref None in
  let killed = ref false in
  let data_link =
    Link.create engine ~delay:(Ba_channel.Dist.Constant 50)
      ~deliver:(fun d ->
        trace Ba_trace.Tracer.Receiver "-> DATA %d" d.Wire.seq;
        match !receiver_cell with Some r -> Blockack.Receiver.on_data r d | None -> ())
      ()
  in
  let ack_link =
    Link.create engine ~delay:(Ba_channel.Dist.Constant 50)
      ~deliver:(fun a ->
        trace Ba_trace.Tracer.Sender "ACK (%d,%d) <-" a.Wire.lo a.Wire.hi;
        match !sender_cell with Some s -> Blockack.Sender.on_ack s a | None -> ())
      ()
  in
  (* The fault: drop the first acknowledgment — it will be the coalesced
     block ack covering all [block] messages. *)
  Link.set_fault ack_link (fun (a : Wire.ack) ->
      if !killed then Link.Deliver
      else begin
        killed := true;
        trace Ba_trace.Tracer.Receiver "<- ACK (%d,%d)  ** LOST **" a.Wire.lo a.Wire.hi;
        Link.Drop
      end);
  let next_payload = Ba_proto.Workload.supplier ~seed:1 ~size:8 ~count:block in
  let tx_data d =
    trace Ba_trace.Tracer.Sender "DATA %d ->" d.Wire.seq;
    Link.send data_link d
  in
  let tx_ack a =
    if !killed then trace Ba_trace.Tracer.Receiver "<- ACK (%d,%d)" a.Wire.lo a.Wire.hi;
    Link.send ack_link a
  in
  let deliver payload = trace Ba_trace.Tracer.Receiver "deliver %S" payload in
  let sender = Blockack.Sender.create engine config ~design ~tx:tx_data ~next_payload in
  sender_cell := Some sender;
  receiver_cell :=
    Some (Blockack.Receiver.create engine config ~tx:tx_ack ~deliver);
  Blockack.Sender.pump sender;
  Engine.run ~until:3_000 engine;
  assert (Blockack.Sender.is_done sender);
  (Ba_trace.Tracer.render tracer, Engine.now engine)

let () =
  Printf.printf
    "Transfer of %d messages; the single block ack covering them is lost.\n\
     rto = %d ticks, one-way delay 50 ticks, receiver coalesces acks for 20 ticks.\n\n"
    block rto;
  let simple_trace, _ = run_one Blockack.Sender.Simple in
  print_endline "--- Section II sender: one timer, resend the window base ---";
  print_string simple_trace;
  print_endline
    "Each timeout recovers ONE message (the duplicate ack only advances na by one),\n\
     so the lost block costs about block * rto ticks.\n";
  let multi_trace, _ = run_one Blockack.Sender.Multi in
  print_endline "--- Section IV sender: a timer per outstanding message ---";
  print_string multi_trace;
  print_endline
    "All timers expire together: the whole block is retransmitted back-to-back and\n\
     re-acknowledged within one round trip — recovery costs about rto ticks total."

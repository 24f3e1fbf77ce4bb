module Common_receiver = struct
  type receiver = Receiver.t

  let create_receiver engine config ~tx ~deliver = Receiver.create engine config ~tx ~deliver
  let receiver_on_data = Receiver.on_data
  let ack_wire_bytes = Ba_proto.Wire.ack_bytes_block
  let receiver_crash = Receiver.crash
  let receiver_restart = Receiver.restart
  let receiver_resync_rounds = Receiver.resync_rounds
  let receiver_position = Receiver.nr
  let receiver_restore = Receiver.restore
  let receiver_mem_bytes = Receiver.buffered_bytes
  let receiver_pressure_dropped = Receiver.pressure_dropped
end

(* Everything of the sender half but its creation and its name. *)
module Common_sender = struct
  type sender = Sender.t

  let sender_on_ack = Sender.on_ack
  let sender_pump = Sender.pump
  let sender_done = Sender.is_done
  let sender_retransmissions = Sender.retransmissions
  let sender_mem_bytes = Sender.buffered_bytes
end

(* Sections II and IV: the same crash-tolerant, clampable endpoint pair
   with the design's timer discipline. *)
let windowed name design : Ba_proto.Protocol.t =
  (module struct
    let name = name

    include Common_sender
    include Common_receiver

    (* Applied in full: a partial application would allocate curried
       closures for every sender a fabric creates. *)
    let create_sender engine config ~tx ~next_payload =
      Sender.create engine config ~design ~tx ~next_payload

    let sender_outstanding = Sender.outstanding
    let crash_tolerant = true
    let sender_crash = Sender.crash
    let sender_restart = Sender.restart
    let sender_resync_rounds = Sender.resync_rounds
    let sender_clamp_window = Sender.clamp_window
  end)

let simple = windowed "blockack-simple" Sender.Simple
let multi = windowed "blockack-multi" Sender.Multi

let reuse ?(lead_factor = 2) () : Ba_proto.Protocol.t =
  if lead_factor < 1 then invalid_arg "Protocols.reuse: lead_factor must be >= 1";
  (module struct
    let name = Printf.sprintf "blockack-reuse(x%d)" lead_factor

    include Common_sender

    type receiver = Receiver.t

    let lead config = lead_factor * config.Ba_proto.Proto_config.window

    let create_sender engine config ~tx ~next_payload =
      Sender.create engine config ~design:(Sender.Reuse { lead = lead config }) ~tx ~next_payload

    (* The receiver must accept (and buffer) the whole flight band, so it
       runs with the widened window. *)
    let create_receiver engine config ~tx ~deliver =
      Receiver.create engine
        { config with Ba_proto.Proto_config.window = lead config }
        ~tx ~deliver

    let receiver_on_data = Receiver.on_data

    (* The window bounds unacknowledged messages; the band runs ahead. *)
    let sender_outstanding = Sender.unacked
    let ack_wire_bytes = Ba_proto.Wire.ack_bytes_block

    (* Slot reuse has no crash story yet (its lead window would need its
       own resync argument); the stub raises. *)
    include Ba_proto.Protocol.No_crash (struct
      let name = name

      type nonrec sender = sender
      type nonrec receiver = receiver
    end)

    (* Memory is still observable even without a clamp path: the sender
       buffers the whole lead band. *)
    let receiver_mem_bytes = Receiver.buffered_bytes
    let sender_clamp_window (_ : sender) (_ : int) = ()
    let receiver_pressure_dropped = Receiver.pressure_dropped
  end)

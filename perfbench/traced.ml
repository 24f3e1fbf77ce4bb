(* A Protocol.S wrapper that delegates every call and records spans.

   Spans nest (a sender's [on_ack] pulls [next_payload] and calls [tx]),
   so each span keeps its self time: its elapsed time minus the time of
   the spans opened inside it. Buffers are per domain, so shard cells
   running on pool workers never share one; [totals] sums them. *)

module Span = struct
  let sender_on_ack = 0
  let sender_pump = 1
  let receiver_on_data = 2
  let data_tx = 3
  let ack_tx = 4
  let next_payload = 5
  let deliver = 6
end

let names =
  [| "sender_on_ack"; "sender_pump"; "receiver_on_data"; "data_tx"; "ack_tx"; "next_payload";
     "deliver" |]

let spans = Array.length names
let max_depth = 64

type buf = {
  self : int array;  (** ns, per span *)
  calls : int array;
  child : int array;  (** per open depth: ns spent in nested spans *)
  mutable depth : int;
}

let lock = Mutex.create ()
let buffers = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          self = Array.make spans 0;
          calls = Array.make spans 0;
          child = Array.make max_depth 0;
          depth = 0;
        }
      in
      Mutex.protect lock (fun () -> buffers := b :: !buffers);
      b)

let reset () =
  Mutex.protect lock (fun () ->
      List.iter
        (fun b ->
          Array.fill b.self 0 spans 0;
          Array.fill b.calls 0 spans 0;
          b.depth <- 0)
        !buffers)

(** [(self_ns, calls)] summed over every domain's buffer. *)
let totals () =
  let self = Array.make spans 0 and calls = Array.make spans 0 in
  Mutex.protect lock (fun () ->
      List.iter
        (fun b ->
          for i = 0 to spans - 1 do
            self.(i) <- self.(i) + b.self.(i);
            calls.(i) <- calls.(i) + b.calls.(i)
          done)
        !buffers);
  (self, calls)

let[@inline] enter () =
  let b = Domain.DLS.get key in
  b.child.(b.depth) <- 0;
  b.depth <- b.depth + 1;
  Clock.ns ()

let[@inline] leave id t0 =
  let el = Clock.ns () - t0 in
  let b = Domain.DLS.get key in
  let d = b.depth - 1 in
  b.depth <- d;
  b.self.(id) <- b.self.(id) + el - b.child.(d);
  b.calls.(id) <- b.calls.(id) + 1;
  if d > 0 then b.child.(d - 1) <- b.child.(d - 1) + el

(* [f x] inside span [id]. *)
let[@inline] span id f x =
  let t = enter () in
  match f x with
  | v ->
      leave id t;
      v
  | exception e ->
      leave id t;
      raise e

module Make (P : Ba_proto.Protocol.S) : Ba_proto.Protocol.S = struct
  include P

  let create_sender engine config ~tx ~next_payload =
    P.create_sender engine config ~tx:(span Span.data_tx tx)
      ~next_payload:(span Span.next_payload next_payload)

  let create_receiver engine config ~tx ~deliver =
    P.create_receiver engine config ~tx:(span Span.ack_tx tx) ~deliver:(span Span.deliver deliver)

  let sender_on_ack s a = span Span.sender_on_ack (P.sender_on_ack s) a
  let receiver_on_data r d = span Span.receiver_on_data (P.receiver_on_data r) d
  let sender_pump s = span Span.sender_pump P.sender_pump s
end

let wrap (module P : Ba_proto.Protocol.S) : Ba_proto.Protocol.t = (module Make (P))

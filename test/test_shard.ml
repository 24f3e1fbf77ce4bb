(* Sharded-fabric tests (also wired to the `shard-smoke` alias): the
   scale runner must be a pure function of the model parameters —
   [shards] and [jobs] are scheduling knobs, so a sharded run is
   byte-identical to the unsharded ([shards = 1], [jobs = 1]) run for
   any shard count and any job count, including under storm churn — and
   the cell-local admission/lease machinery must keep its Fabric
   semantics (budgets honoured, capacity-limited runs complete). *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

module Shard = Ba_proto.Shard
module Fabric = Ba_proto.Fabric
module Chaos = Ba_verify.Chaos
module Registry = Ba_registry.Registry
module Dist = Ba_channel.Dist

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "registry is missing %S" name

let mixed_specs ~messages ~flows =
  let protos = [| "blockack-multi"; "selective-repeat"; "go-back-n" |] in
  List.init flows (fun i ->
      let e = entry protos.(i mod Array.length protos) in
      let config = Registry.config ~window:4 ~rto:800 e () in
      Fabric.spec ~config ~messages ~payload_size:24 e.Registry.protocol)

(* ------------------------------------------------------------------ *)
(* Baseline behaviour *)

let test_clean_run_completes () =
  let specs = mixed_specs ~messages:6 ~flows:48 in
  let r = Shard.run ~seed:7 ~jobs:1 ~shards:1 ~cell:8 specs in
  check Alcotest.bool "completed" true r.Shard.completed;
  check Alcotest.int "cells" 6 r.Shard.cells;
  check Alcotest.int "flows" 48 r.Shard.flows;
  check Alcotest.int "all delivered" r.Shard.messages r.Shard.delivered;
  check Alcotest.int "no duplicates" 0 r.Shard.duplicates;
  check Alcotest.int "no corruption" 0 r.Shard.corrupted;
  check Alcotest.int "nothing refused" 0 r.Shard.refused

let test_capacity_lease_run_completes () =
  (* A tight shared bottleneck realised as per-cell leases: the run must
     still complete, and the lease layer (not the per-cell links) must
     be doing the queueing. *)
  let specs = mixed_specs ~messages:5 ~flows:24 in
  let r = Shard.run ~seed:11 ~jobs:1 ~shards:1 ~cell:6 ~capacity:(2, 64) specs in
  check Alcotest.bool "completed under lease" true r.Shard.completed;
  check Alcotest.int "all delivered" r.Shard.messages r.Shard.delivered

let test_budget_admission_is_cell_local () =
  (* A budget far below the unclamped demand: every cell must degrade
     (clamp or refuse) using only its own share, and the sampled model
     memory must respect the global budget. *)
  let specs = mixed_specs ~messages:5 ~flows:32 in
  let budget = 4 * 1024 in
  let r = Shard.run ~seed:3 ~jobs:1 ~shards:1 ~cell:8 ~memory_budget:budget specs in
  check Alcotest.bool "degraded somewhere" true
    (r.Shard.clamped_cells > 0 || r.Shard.refused > 0);
  check Alcotest.bool "sampled peak within budget" true (r.Shard.mem_peak_bytes <= budget)

(* ------------------------------------------------------------------ *)
(* Determinism: shards/jobs are scheduling, not semantics *)

type scenario = {
  sc_seed : int;
  sc_flows : int;
  sc_cell : int;
  sc_messages : int;
  sc_loss : bool;
  sc_capacity : (int * int) option;
  sc_budget : int option;
  sc_watchdog : bool;
  sc_storm : bool;  (* churn population + seed-derived storm plans *)
  sc_shards : int;
  sc_jobs : int;
}

let scenario_gen =
  QCheck.Gen.(
    let* sc_seed = int_range 1 1000 in
    let* sc_flows = int_range 6 30 in
    let* sc_cell = int_range 3 9 in
    let* sc_messages = int_range 3 6 in
    let* sc_loss = bool in
    let* with_cap = bool in
    let* svc = int_range 1 4 in
    let* qcap = int_range 8 40 in
    let* with_budget = bool in
    let* budget = int_range 2 20 in
    let* sc_watchdog = bool in
    let* sc_storm = bool in
    let* sc_shards = int_range 2 5 in
    let* sc_jobs = int_range 2 4 in
    return
      {
        sc_seed;
        sc_flows;
        sc_cell;
        sc_messages;
        sc_loss;
        sc_capacity = (if with_cap then Some (svc, qcap) else None);
        sc_budget = (if with_budget then Some (budget * 1024) else None);
        sc_watchdog;
        sc_storm;
        sc_shards;
        sc_jobs;
      })

let scenario_print sc =
  Printf.sprintf
    "seed=%d flows=%d cell=%d msgs=%d loss=%b cap=%s budget=%s dog=%b storm=%b \
     shards=%d jobs=%d"
    sc.sc_seed sc.sc_flows sc.sc_cell sc.sc_messages sc.sc_loss
    (match sc.sc_capacity with
    | Some (s, q) -> Printf.sprintf "(%d,%d)" s q
    | None -> "-")
    (match sc.sc_budget with Some b -> string_of_int b | None -> "-")
    sc.sc_watchdog sc.sc_storm sc.sc_shards sc.sc_jobs

let run_scenario sc ~shards ~jobs =
  let specs =
    if sc.sc_storm then
      (* A churning population: long-lived bases plus leavers/returners,
         the soak's flow pattern at miniature scale. *)
      let e = entry "blockack-multi" in
      let config = Registry.config ~window:4 ~rto:800 e () in
      Fabric.churn ~base:2 ~churners:2 ~messages:sc.sc_messages ~payload_size:24
        ~config ~seed:sc.sc_seed e.Registry.protocol
      @ mixed_specs ~messages:sc.sc_messages ~flows:sc.sc_flows
    else mixed_specs ~messages:sc.sc_messages ~flows:sc.sc_flows
  in
  let plans_for =
    if sc.sc_storm then
      Some (fun ~cell_seed -> Chaos.plans_for Chaos.Storm ~seed:cell_seed)
    else None
  in
  let r =
    Shard.run ~seed:sc.sc_seed ~jobs ~shards ~cell:sc.sc_cell ~barrier:500
      ~data_loss:(if sc.sc_loss then 0.03 else 0.)
      ~ack_loss:(if sc.sc_loss then 0.03 else 0.)
      ?capacity:sc.sc_capacity ?plans_for ?memory_budget:sc.sc_budget
      ?watchdog:(if sc.sc_watchdog then Some Ba_proto.Watchdog.default_config else None)
      ~deadline:120_000 specs
  in
  Shard.summary r

let test_sharded_equals_unsharded =
  qcheck
    (QCheck.Test.make ~count:12
       ~name:"sharded run byte-identical to unsharded at any shards x jobs"
       (QCheck.make ~print:scenario_print scenario_gen)
       (fun sc ->
         let reference = run_scenario sc ~shards:1 ~jobs:1 in
         let sharded = run_scenario sc ~shards:sc.sc_shards ~jobs:sc.sc_jobs in
         if String.equal reference sharded then true
         else
           QCheck.Test.fail_reportf "diverged:\n--- shards=1 jobs=1\n%s\n--- %s\n%s"
             reference (scenario_print sc) sharded))

let test_storm_churn_shard_sweep () =
  (* The compound incident, pinned across a shard-count sweep: one
     churning population under seed-derived storm plans, watchdog armed,
     capacity leased — every shard count and job count must reproduce
     the reference summary byte for byte. *)
  let sc =
    {
      sc_seed = 42;
      sc_flows = 12;
      sc_cell = 5;
      sc_messages = 5;
      sc_loss = true;
      sc_capacity = Some (2, 32);
      sc_budget = Some (8 * 1024);
      sc_watchdog = true;
      sc_storm = true;
      sc_shards = 1;
      sc_jobs = 1;
    }
  in
  let reference = run_scenario sc ~shards:1 ~jobs:1 in
  List.iter
    (fun (shards, jobs) ->
      check Alcotest.string
        (Printf.sprintf "shards=%d jobs=%d" shards jobs)
        reference
        (run_scenario sc ~shards ~jobs))
    [ (2, 1); (3, 4); (7, 2); (16, 3) ]

(* ------------------------------------------------------------------ *)
(* Equivalence: a Fabric run is one shard cell *)

(* [Fabric.run ~seed:(s + 104729)] and [Shard.run ~seed:s] with a single
   cell seed the same engine and run the same flow table over the same
   uncontended tagged links, so every counter the cell reports must
   match the fabric's. Only the workload seeds differ, and payload
   contents never steer the protocols. *)
let test_fabric_is_one_cell =
  let protos = [| "blockack-multi"; "blockack-simple"; "selective-repeat"; "go-back-n" |] in
  let gen =
    QCheck.Gen.(
      let flow =
        let* p = int_bound (Array.length protos - 1) in
        let* window = int_range 4 8 in
        let* messages = int_range 3 12 in
        let* start_at = oneof [ return 0; int_range 1 400 ] in
        let* stay = opt (int_range 500 3000) in
        return (p, window, messages, start_at, stay)
      in
      let* seed = int_range 1 1000 in
      let* flows = list_size (int_range 1 8) flow in
      let* lossy = bool in
      let* jitter = bool in
      let* budget_pct = opt (int_range 30 100) in
      let* watchdog = bool in
      return (seed, flows, lossy, jitter, budget_pct, watchdog))
  in
  let print (seed, flows, lossy, jitter, budget_pct, watchdog) =
    Printf.sprintf "seed=%d flows=[%s] lossy=%b jitter=%b budget=%s watchdog=%b" seed
      (String.concat "; "
         (List.map
            (fun (p, w, m, st, stay) ->
              Printf.sprintf "%s w=%d m=%d start=%d stay=%s" protos.(p) w m st
                (match stay with Some d -> string_of_int d | None -> "-"))
            flows))
      lossy jitter
      (match budget_pct with Some b -> string_of_int b ^ "%" | None -> "-")
      watchdog
  in
  qcheck
    (QCheck.Test.make ~count:300 ~name:"Fabric.run is a one-cell Shard.run"
       (QCheck.make ~print gen)
       (fun (seed, flows, lossy, jitter, budget_pct, watchdog) ->
         let specs =
           List.map
             (fun (p, window, messages, start_at, stay) ->
               let e = entry protos.(p) in
               let config = Registry.config ~window ~rto:600 e () in
               Fabric.spec ~config ~messages ~start_at
                 ?stop_at:(Option.map (fun d -> start_at + d) stay)
                 e.Registry.protocol)
             flows
         in
         let need =
           List.fold_left
             (fun a (s : Fabric.spec) ->
               a + (2 * s.Fabric.config.Ba_proto.Proto_config.window * s.Fabric.payload_size))
             0 specs
         in
         let memory_budget = Option.map (fun pct -> need * pct / 100) budget_pct in
         let loss = if lossy then 0.2 else 0. in
         let delay = if jitter then Dist.Uniform (20, 180) else Dist.Uniform (40, 60) in
         let watchdog = if watchdog then Some Ba_proto.Watchdog.default_config else None in
         let f =
           Fabric.run ~seed:(seed + 104729) ~data_loss:loss ~ack_loss:loss ~data_delay:delay
             ~ack_delay:delay ?memory_budget ?watchdog ~deadline:60_000 specs
         in
         let s =
           Shard.run ~seed ~jobs:1 ~cell:(List.length specs) ~data_loss:loss ~ack_loss:loss
             ~data_delay:delay ~ack_delay:delay ?memory_budget ?watchdog ~deadline:60_000 specs
         in
         let sum g = List.fold_left (fun a r -> a + g r) 0 f.Fabric.flows in
         let fabric =
           [ sum (fun r -> r.Ba_proto.Harness.delivered);
             sum (fun r -> r.Ba_proto.Harness.data_sent);
             sum (fun r -> r.Ba_proto.Harness.acks_sent);
             sum (fun r -> r.Ba_proto.Harness.retransmissions); f.Fabric.ticks;
             Bool.to_int f.Fabric.completed;
             sum (fun r -> Bool.to_int r.Ba_proto.Harness.completed);
             f.Fabric.departed; f.Fabric.mem_peak_bytes; f.Fabric.watchdog_resyncs;
             f.Fabric.quarantine_events ]
         in
         let shard =
           [ s.Shard.delivered; s.Shard.data_sent; s.Shard.acks_sent; s.Shard.retransmissions;
             s.Shard.ticks; Bool.to_int s.Shard.completed; s.Shard.completed_flows;
             s.Shard.departed; s.Shard.mem_peak_bytes; s.Shard.watchdog_resyncs;
             s.Shard.quarantine_events ]
         in
         fabric = shard
         || QCheck.Test.fail_reportf "fabric %s <> shard %s"
              (String.concat "," (List.map string_of_int fabric))
              (String.concat "," (List.map string_of_int shard))))

let () =
  Alcotest.run "shard"
    [
      ( "model",
        [
          Alcotest.test_case "clean run completes" `Quick test_clean_run_completes;
          Alcotest.test_case "capacity lease run completes" `Quick
            test_capacity_lease_run_completes;
          Alcotest.test_case "budget admission is cell-local" `Quick
            test_budget_admission_is_cell_local;
          test_fabric_is_one_cell;
        ] );
      ( "determinism",
        [
          test_sharded_equals_unsharded;
          Alcotest.test_case "storm churn shard sweep" `Quick
            test_storm_churn_shard_sweep;
        ] );
    ]

(* Switch pipeline tests: lookup precedence, metadata, queue accounting
   and tail drop, flooding, TPP stripping, and the TCPU placement. *)

open Tpp
module State = Tpp_asic.State

let check = Alcotest.check

let host_frame ?tpp ?(payload = 100) ~to_ip () =
  Frame.udp_frame ~src_mac:(Mac.of_host_id 1) ~dst_mac:(Mac.of_host_id 2)
    ~src_ip:(Ipv4.Addr.of_host_id 1) ~dst_ip:to_ip ~src_port:5 ~dst_port:6 ?tpp
    ~payload:(Bytes.create payload) ()

let dst_ip = Ipv4.Addr.of_host_id 2

let make_switch () =
  let sw = Switch.create ~id:1 ~num_ports:4 () in
  Switch.install_route sw (Ipv4.Prefix.host dst_ip) ~port:2 ~entry_id:11 ~version:1;
  Switch.set_version sw 1;
  sw

let queued_ports = function
  | Switch.Queued ports -> ports
  | Switch.Dropped reason -> Alcotest.failf "unexpectedly dropped: %s" reason

let test_l3_forwarding_and_meta () =
  let sw = make_switch () in
  let frame = host_frame ~to_ip:dst_ip () in
  let ports = queued_ports (Switch.handle_ingress sw ~now:99 ~in_port:0 frame) in
  check (Alcotest.list Alcotest.int) "queued on route port" [ 2 ] ports;
  let meta = frame.Frame.meta in
  check Alcotest.int "in port" 0 meta.Meta.in_port;
  check Alcotest.int "out port" 2 meta.Meta.out_port;
  check Alcotest.int "entry" 11 meta.Meta.matched_entry;
  check Alcotest.int "version" 1 meta.Meta.matched_version;
  check Alcotest.int "table L3" 2 meta.Meta.table_hit;
  check Alcotest.int "arrival stamped" 99 meta.Meta.arrival_ns;
  check Alcotest.int "queue holds it" 1 (Switch.queue_packets sw ~port:2)

let test_tcam_overrides_l3 () =
  let sw = make_switch () in
  Switch.install_tcam sw
    { Tables.Tcam.any with Tables.Tcam.priority = 5;
      dst_ip = Some (dst_ip, 0xFFFFFFFF) }
    { Tables.action = Tables.Forward 3; entry_id = 77; version = 2 };
  let frame = host_frame ~to_ip:dst_ip () in
  let ports = queued_ports (Switch.handle_ingress sw ~now:0 ~in_port:0 frame) in
  check (Alcotest.list Alcotest.int) "tcam port" [ 3 ] ports;
  check Alcotest.int "tcam entry" 77 frame.Frame.meta.Meta.matched_entry;
  check Alcotest.int "table TCAM" 3 frame.Frame.meta.Meta.table_hit

let test_l2_fallback () =
  let sw = Switch.create ~id:1 ~num_ports:4 () in
  Switch.install_l2 sw (Mac.of_host_id 2) ~port:1 ~entry_id:5 ~version:1;
  let frame = host_frame ~to_ip:dst_ip () in
  let ports = queued_ports (Switch.handle_ingress sw ~now:0 ~in_port:0 frame) in
  check (Alcotest.list Alcotest.int) "l2 port" [ 1 ] ports;
  check Alcotest.int "table L2" 1 frame.Frame.meta.Meta.table_hit

let test_flood_on_miss () =
  let sw = Switch.create ~id:1 ~num_ports:4 () in
  let frame = host_frame ~to_ip:dst_ip () in
  let ports = queued_ports (Switch.handle_ingress sw ~now:0 ~in_port:1 frame) in
  check (Alcotest.list Alcotest.int) "all but ingress" [ 0; 2; 3 ] ports;
  check Alcotest.int "copies queued" 1 (Switch.queue_packets sw ~port:0);
  check Alcotest.int "copies queued" 1 (Switch.queue_packets sw ~port:3)

let test_drop_rule () =
  let sw = make_switch () in
  Switch.install_tcam sw
    { Tables.Tcam.any with Tables.Tcam.priority = 9 }
    { Tables.action = Tables.Drop; entry_id = 1; version = 1 };
  match Switch.handle_ingress sw ~now:0 ~in_port:0 (host_frame ~to_ip:dst_ip ()) with
  | Switch.Dropped _ -> ()
  | Switch.Queued _ -> Alcotest.fail "drop rule ignored"

let test_queue_accounting_and_tail_drop () =
  let sw = make_switch () in
  let wire = Frame.wire_size (host_frame ~to_ip:dst_ip ()) in
  Switch.set_queue_limit sw ~port:2 ~bytes:(2 * wire);
  let send () = Switch.handle_ingress sw ~now:0 ~in_port:0 (host_frame ~to_ip:dst_ip ()) in
  ignore (send ());
  ignore (send ());
  check Alcotest.int "two queued" (2 * wire) (Switch.queue_bytes sw ~port:2);
  (match send () with
  | Switch.Dropped "queue full" -> ()
  | _ -> Alcotest.fail "expected tail drop");
  let st = Switch.state sw in
  check Alcotest.int "port drop counter" 1
    (State.port_stat st ~port:2 Vaddr.Port_stat.Drops);
  check Alcotest.int "switch drop counter" 1 st.State.drops;
  (* Draining restores the byte count. *)
  ignore (Switch.dequeue sw ~port:2);
  check Alcotest.int "after dequeue" wire (Switch.queue_bytes sw ~port:2);
  check Alcotest.int "tx counted" wire (State.port_stat st ~port:2 Vaddr.Port_stat.Tx_bytes)

let test_rx_counters () =
  let sw = make_switch () in
  let frame = host_frame ~to_ip:dst_ip () in
  let wire = Frame.wire_size frame in
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 frame);
  let st = Switch.state sw in
  check Alcotest.int "rx bytes" wire (State.port_stat st ~port:0 Vaddr.Port_stat.Rx_bytes);
  check Alcotest.int "rx pkts" 1 (State.port_stat st ~port:0 Vaddr.Port_stat.Rx_pkts);
  check Alcotest.int "switch bytes" wire st.State.bytes_seen;
  check Alcotest.int "offered to egress" wire (State.port st 2).State.Port.offered_bytes

let probe_tpp () =
  match Asm.to_tpp ~mem_len:16 "PUSH [Queue:QueueSize]\n" with
  | Ok tpp -> tpp
  | Error e -> Alcotest.failf "assembly: %s" e

let test_tcpu_runs_in_pipeline () =
  let sw = make_switch () in
  let frame = host_frame ~tpp:(probe_tpp ()) ~to_ip:dst_ip () in
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 frame);
  let tpp = Option.get frame.Frame.tpp in
  check Alcotest.int "hop advanced" 1 tpp.Prog.hop;
  (* The queue was empty when the probe was about to join it. *)
  check (Alcotest.list Alcotest.int) "reads pre-enqueue occupancy" [ 0 ]
    (Prog.stack_values tpp);
  match Switch.last_tcpu_result sw with
  | Some r -> check Alcotest.int "one instruction" 1 r.Tpp_asic.Tcpu.executed
  | None -> Alcotest.fail "no TCPU result recorded"

let test_tcpu_sees_prior_queue () =
  let sw = make_switch () in
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 (host_frame ~to_ip:dst_ip ()));
  let backlog = Switch.queue_bytes sw ~port:2 in
  let frame = host_frame ~tpp:(probe_tpp ()) ~to_ip:dst_ip () in
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 frame);
  check (Alcotest.list Alcotest.int) "sees the backlog" [ backlog ]
    (Prog.stack_values (Option.get frame.Frame.tpp))

let test_tcpu_disabled () =
  let sw = make_switch () in
  Switch.set_tcpu_enabled sw false;
  let frame = host_frame ~tpp:(probe_tpp ()) ~to_ip:dst_ip () in
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 frame);
  let tpp = Option.get frame.Frame.tpp in
  check Alcotest.int "not executed" 0 tpp.Prog.hop;
  check (Alcotest.list Alcotest.int) "stack untouched" [] (Prog.stack_values tpp)

let test_strip_tpp_at_edge () =
  let sw = make_switch () in
  Switch.set_strip_tpp sw ~port:0 true;
  let frame = host_frame ~tpp:(probe_tpp ()) ~to_ip:dst_ip () in
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 frame);
  (match Switch.dequeue sw ~port:2 with
  | Some forwarded ->
    check Alcotest.bool "TPP stripped" true (Option.is_none forwarded.Frame.tpp);
    check Alcotest.int "ethertype rewritten" Ethernet.ethertype_ipv4
      (Frame.ethertype forwarded)
  | None -> Alcotest.fail "frame lost");
  (* The same TPP through a non-stripping port survives. *)
  let frame2 = host_frame ~tpp:(probe_tpp ()) ~to_ip:dst_ip () in
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:1 frame2);
  match Switch.dequeue sw ~port:2 with
  | Some forwarded ->
    check Alcotest.bool "TPP kept" true (Option.is_some forwarded.Frame.tpp)
  | None -> Alcotest.fail "frame lost"

let test_tap () =
  let sw = make_switch () in
  let seen = ref [] in
  Switch.set_tap sw
    (Some (fun ~now:_ ~in_port ~out_port frame ->
         seen := (in_port, out_port, frame.Frame.id) :: !seen));
  let frame = host_frame ~to_ip:dst_ip () in
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 frame);
  check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int))
    "tap fired" [ (0, 2, frame.Frame.id) ] !seen;
  Switch.set_tap sw None;
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 (host_frame ~to_ip:dst_ip ()));
  check Alcotest.int "tap removed" 1 (List.length !seen)

let test_invalid_ingress_port () =
  let sw = make_switch () in
  match Switch.handle_ingress sw ~now:0 ~in_port:9 (host_frame ~to_ip:dst_ip ()) with
  | Switch.Dropped _ -> ()
  | Switch.Queued _ -> Alcotest.fail "invalid port accepted"

(* --- Allocation ------------------------------------------------------------ *)

(* The paper's 5-PUSH statistics program with one 20-byte record per
   hop, as the benchmark's fabric_tpp workload sends it. *)
let stats_tpp () =
  match
    Asm.to_tpp ~perhop_len:20 ~mem_len:100
      "PUSH [Switch:SwitchID]\nPUSH [Link:QueueSize]\nPUSH [Link:RxUtilization]\n\
       PUSH [Link:CapacityKbps]\nPUSH [Link:Drops]\n"
  with
  | Ok tpp -> tpp
  | Error e -> Alcotest.failf "assembly: %s" e

(* A TPP hop through a warmed switch — lookup, compiled TCPU, enqueue,
   dequeue — allocates nothing: the TCPU runs in the switch's reused
   context and the switch keeps its outcome as an int. *)
let test_tpp_hop_allocates_nothing () =
  Tpp_asic.Tcpu.set_default_backend Tpp_asic.Tcpu.Compiled;
  let ft =
    Topology.fat_tree (Engine.create ()) ~addressing:`Pods ~fib:`Aggregated ~k:4
      ~bps:10_000_000_000 ~delay:(Time_ns.us 1) ()
  in
  let net = ft.Topology.f_net in
  let src = ft.Topology.f_hosts.(0) and dst = ft.Topology.f_hosts.(15) in
  let edge, in_port =
    match Net.neighbors net src.Net.node_id with
    | [ (_, edge, port) ] -> (edge, port)
    | _ -> Alcotest.fail "host has one uplink"
  in
  let sw = Net.switch net edge in
  let tpp = stats_tpp () in
  let frame =
    Frame.Pool.udp_frame (Frame.Pool.create ()) ~src_mac:src.Net.mac
      ~dst_mac:dst.Net.mac ~src_ip:src.Net.ip ~dst_ip:dst.Net.ip ~src_port:5
      ~dst_port:7 ~tpp ~payload:(Bytes.make 1000 'x') ()
  in
  let hop () =
    (* Rewind the packet so every hop runs the full program. *)
    tpp.Prog.sp <- tpp.Prog.base;
    tpp.Prog.hop <- 0;
    Frame.set_ip_ttl frame 64;
    match Switch.handle_ingress sw ~now:0 ~in_port frame with
    | Switch.Queued [ p ] when Switch.dequeue_or sw ~port:p ~default:frame == frame -> ()
    | _ -> Alcotest.fail "hop did not forward the frame"
  in
  for _ = 1 to 100 do
    hop ()
  done;
  check (Alcotest.float 0.0) "minor words per TPP hop" 0.0 (Alloc_count.per_call hop);
  match Switch.last_tcpu_result sw with
  | Some r ->
    check Alcotest.int "all five PUSHes ran" 5 r.Tpp_asic.Tcpu.executed;
    check Alcotest.bool "no fault" true (r.Tpp_asic.Tcpu.fault = None)
  | None -> Alcotest.fail "no TCPU result recorded"

let suite =
  [
    Alcotest.test_case "l3 forwarding and metadata" `Quick test_l3_forwarding_and_meta;
    Alcotest.test_case "tcam overrides l3" `Quick test_tcam_overrides_l3;
    Alcotest.test_case "l2 fallback" `Quick test_l2_fallback;
    Alcotest.test_case "flood on miss" `Quick test_flood_on_miss;
    Alcotest.test_case "drop rule" `Quick test_drop_rule;
    Alcotest.test_case "queue accounting and tail drop" `Quick
      test_queue_accounting_and_tail_drop;
    Alcotest.test_case "rx counters" `Quick test_rx_counters;
    Alcotest.test_case "tcpu in pipeline" `Quick test_tcpu_runs_in_pipeline;
    Alcotest.test_case "tcpu sees prior queue" `Quick test_tcpu_sees_prior_queue;
    Alcotest.test_case "tcpu disabled" `Quick test_tcpu_disabled;
    Alcotest.test_case "strip tpp at edge" `Quick test_strip_tpp_at_edge;
    Alcotest.test_case "tap" `Quick test_tap;
    Alcotest.test_case "invalid ingress port" `Quick test_invalid_ingress_port;
    Alcotest.test_case "tpp hop allocates nothing" `Quick test_tpp_hop_allocates_nothing;
  ]

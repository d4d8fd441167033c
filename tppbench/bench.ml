(* The repository benchmark: three workloads over the public library API.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   W is one of fabric_udp, fabric_tpp, transport_mix.
   A run repeats the workload's fixed amount of work (one "rep": fresh
   set-up, then the timed simulation, in a forked child, plus more
   set-ups that are only timed) until
   [--seconds] is used up, checks every rep's outputs, and prints each
   metric as [workload/metric value unit], then one JSON object as the
   last line.

   Host time is noisy on shared machines (see metrics.json): other
   tenants only ever slow a rep down, for seconds to minutes at a time,
   so the host times are those of the fastest rep, the first rep is a
   warm-up, and the other end-to-end metrics are counts that repeat for
   a given seed.

   With [--trace 1] the run alternates untraced and traced reps, prints
   the per-layer metrics too, and its JSON line carries them instead of
   the end-to-end ones. Spans are taken only around
   the benchmark's own calls into the library (send thunks, receive
   callbacks, Engine.run, Parsim.run, Fct.fabric_run), plus three
   replays outside the simulation: an engine-core rung, the workload's
   hop sample through Switch.handle_ingress, and its TPP frames through
   Tcpu.execute under both backends (which must agree exactly). The
   trace (per-layer numbers and a span sample) is written as JSON to
   [--trace-out]. *)

open Tpp
module SS = Switch_state

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9

(* ---- Spans ------------------------------------------------------------

   Preallocated outside the OCaml heap; one recorder per domain. Every
   span also feeds exact per-kind count/total accumulators, so the
   aggregates cover all spans even when the raw buffer is full. *)

module Spans = struct
  let run = 0
  let pool = 1
  let send = 2
  let recv = 3
  let names = [| "engine.run"; "frame.pool_udp_frame"; "net.host_send"; "host.receive" |]
  let capacity = 16_384

  type t = {
    count : int array;
    total : int array;
    buf : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
    mutable n : int;
    mutable dropped : int;
    mutable parent : int;
  }

  let create () =
    {
      count = Array.make (Array.length names) 0;
      total = Array.make (Array.length names) 0;
      buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (4 * capacity);
      n = 0;
      dropped = 0;
      parent = -1;
    }

  let reset_totals t =
    Array.fill t.count 0 (Array.length t.count) 0;
    Array.fill t.total 0 (Array.length t.total) 0

  let store t kind t0 t1 parent =
    if t.n < capacity then begin
      let o = 4 * t.n in
      t.buf.{o} <- kind;
      t.buf.{o + 1} <- t0;
      t.buf.{o + 2} <- t1;
      t.buf.{o + 3} <- parent;
      t.n <- t.n + 1;
      t.n - 1
    end
    else begin
      t.dropped <- t.dropped + 1;
      -1
    end

  let record t kind t0 t1 =
    t.count.(kind) <- t.count.(kind) + 1;
    t.total.(kind) <- t.total.(kind) + (t1 - t0);
    ignore (store t kind t0 t1 t.parent)

  (* A span that encloses later ones: its slot becomes their parent. *)
  let open_ t kind t0 = t.parent <- store t kind t0 (-1) (-1)

  let close t kind t0 t1 =
    t.count.(kind) <- t.count.(kind) + 1;
    t.total.(kind) <- t.total.(kind) + (t1 - t0);
    if t.parent >= 0 then t.buf.{(4 * t.parent) + 2} <- t1;
    t.parent <- -1

  (* Time inside the run span not covered by the benchmark's own spans
     nested in it. *)
  let self_ns t =
    t.total.(run) - t.total.(pool) - t.total.(send) - t.total.(recv)
end

(* ---- Shared measurement helpers --------------------------------------- *)

(* A minor collection empties the minor heap, so quick_stat deltas taken
   between two of these count every word allocated in between, on every
   domain that has been joined. *)
let gc_sync () =
  Gc.minor ();
  Gc.quick_stat ()

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* VmHWM: the peak resident set of this process (each rep's child). *)
let peak_rss_mib () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let mix h v = (h * 1_000_003) lxor v

(* One rep's results. Counts are per rep; [layer] holds the per-layer
   numbers the rep produced (spans only when traced). *)
type rep = {
  setup_ns : int;
  run_ns : int;
  ops : int;                 (* frames or flows offered *)
  completed : int;
  minor : float;
  promoted : float;
  fp : int;                  (* digest of every deterministic output *)
  failures : string list;
  layer : (string * float) list;
}

let check cond msg failures = if cond then failures else msg :: failures

(* ---- Fabric workloads ---------------------------------------------------

   Every host streams pooled UDP frames to its partner in the opposite
   half of a k-ary fat-tree, one frame per [gap_ns], open loop: each send
   thunk schedules the host's next send. The seed draws each host's
   first-send offset within the gap and the flows' UDP source ports
   (hence their ECMP paths). *)

type fabric = {
  k : int;
  frames_per_host : int;
  payload : int;
  gap_ns : int;
  tpp : bool;
  parsim_shards : int;
      (* > 1: every run also sends the same traffic once through
         Parsim.run at this many shards, which must reproduce the
         sequential rep exactly (and gives the parsim.* metrics). *)
}

let link_bps = 10_000_000_000
let link_delay = Time_ns.us 1

(* Partners are in the opposite half, so every path is edge, agg, core,
   agg, edge. *)
let path_hops = 5

let stats_program =
  "PUSH [Switch:SwitchID]\n\
   PUSH [Link:QueueSize]\n\
   PUSH [Link:RxUtilization]\n\
   PUSH [Link:CapacityKbps]\n\
   PUSH [Link:Drops]\n"

let record_bytes = 20

let build w eng =
  Topology.fat_tree eng ~wire_check:`Cached ~ecmp:true ~addressing:`Pods
    ~fib:`Aggregated ~k:w.k ~bps:link_bps ~delay:link_delay ()

let horizon w = (w.frames_per_host * w.gap_ns) + Time_ns.ms 10

let sorted_hosts net =
  Net.hosts net
  |> List.sort (fun a b -> Int.compare a.Net.node_id b.Net.node_id)
  |> Array.of_list

let partner n i = (i + (n / 2)) mod n

(* Switch ids as Topology.fat_tree numbers them: cores, then aggregation
   switches pod-major, then edge switches pod-major. *)
let on_path w ~src ~dst ~hop ~agg sid =
  let half = w.k / 2 in
  let cores = half * half in
  let agg_id pod a = cores + (pod * half) + a + 1 in
  let edge_id host = cores + (w.k * half) + (host / half) + 1 in
  let pod host = host / cores in
  match hop with
  | 0 -> sid = edge_id src
  | 1 ->
    agg := sid - agg_id (pod src) 0;
    !agg >= 0 && !agg < half
  | 2 -> sid >= 1 && sid <= cores && (sid - 1) / half = !agg
  | 3 -> sid = agg_id (pod dst) !agg
  | _ -> sid = edge_id dst

(* Traffic state of one sequential net or one shard. *)
type side = {
  pools : Frame.Pool.t array;
  mutable sent : int;
  mutable received : int;
  mutable bad : int;
  mutable records : int;  (* per-hop TPP records decoded *)
  mutable qsum : int;     (* sum of their queue words *)
}

(* The seed's inputs for [n] hosts: each host's first-send time (a
   shuffled slot inside the gap) and the base of the flows' UDP source
   ports (host i sends from port_base + i). *)
let draw_inputs w ~seed ~n =
  let rng = Rng.create ~seed in
  let offset = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = offset.(i) in
    offset.(i) <- offset.(j);
    offset.(j) <- t
  done;
  let slot = max 1 (w.gap_ns / n) in
  Array.iteri (fun i p -> offset.(i) <- 1 + (p * slot)) offset;
  (offset, 1024 + Rng.int rng (65536 - 1024 - n))

let stats_template w =
  if w.tpp then
    match
      Asm.to_tpp ~perhop_len:record_bytes ~mem_len:(record_bytes * path_hops)
        stats_program
    with
    | Ok t -> Some t
    | Error e -> failwith ("stats program: " ^ e)
  else None

let setup_traffic w ~seed ~tracer ~owns net =
  let hosts = sorted_hosts net in
  let n = Array.length hosts in
  let eng = Net.engine net in
  let offset, port_base = draw_inputs w ~seed ~n in
  let template = stats_template w in
  let unused = Frame.Pool.create ~capacity:1 () in
  let side =
    {
      pools =
        Array.map
          (fun h ->
            if owns h.Net.node_id then
              Frame.Pool.create ~capacity:64 ~frame_bytes:2048 ()
            else unused)
          hosts;
      sent = 0;
      received = 0;
      bad = 0;
      records = 0;
      qsum = 0;
    }
  in
  let payload = Bytes.make w.payload 'x' in
  let send src =
    let s = hosts.(src) and d = hosts.(partner n src) in
    let make () =
      let tpp = match template with None -> None | Some t -> Some (Prog.copy t) in
      Frame.Pool.udp_frame side.pools.(src) ~src_mac:s.Net.mac ~dst_mac:d.Net.mac
        ~src_ip:s.Net.ip ~dst_ip:d.Net.ip ~src_port:(port_base + src) ~dst_port:7
        ?tpp ~payload ()
    in
    side.sent <- side.sent + 1;
    match tracer with
    | None -> Net.host_send net s (make ())
    | Some tr ->
      let t0 = now_ns () in
      let f = make () in
      let t1 = now_ns () in
      Spans.record tr Spans.pool t0 t1;
      Net.host_send net s f;
      Spans.record tr Spans.send t1 (now_ns ())
  in
  let decode ~src ~dst p =
    if
      p.Prog.hop <> path_hops || p.Prog.faulted
      || p.Prog.sp <> p.Prog.base + (record_bytes * path_hops)
    then side.bad <- side.bad + 1
    else begin
      let agg = ref (-1) in
      for hop = 0 to path_hops - 1 do
        match Prog.hop_block p ~hop with
        | [ sid; queue; _util; kbps; _drops ] ->
          side.records <- side.records + 1;
          side.qsum <- side.qsum + queue;
          if kbps <> link_bps / 1000 || not (on_path w ~src ~dst ~hop ~agg sid)
          then side.bad <- side.bad + 1
        | _ -> side.bad <- side.bad + 1
      done
    end
  in
  let receive dst f =
    side.received <- side.received + 1;
    let src = partner n dst in
    if Frame.udp_src_port f <> port_base + src then side.bad <- side.bad + 1
    else
      match template, f.Frame.tpp with
      | None, None -> ()
      | Some _, Some p -> decode ~src ~dst p
      | _ -> side.bad <- side.bad + 1
  in
  Array.iteri
    (fun i h ->
      if owns h.Net.node_id then begin
        (h.Net.receive <-
           match tracer with
           | None -> fun ~now:_ f -> receive i f
           | Some tr ->
             fun ~now:_ f ->
               let t0 = now_ns () in
               receive i f;
               Spans.record tr Spans.recv t0 (now_ns ()));
        let rec tick j () =
          send i;
          let j = j + 1 in
          if j < w.frames_per_host then
            Engine.at eng ((j * w.gap_ns) + offset.(i)) (tick j)
        in
        if w.frames_per_host > 0 then Engine.at eng offset.(i) (tick 0)
      end)
    hosts;
  side

let switch_fp sw =
  let st = Switch.state sw in
  let h =
    List.fold_left mix 17
      [ st.SS.packets_seen; st.bytes_seen; st.drops; st.tpp_execs; st.tpp_faults;
        st.tpp_cycles ]
  in
  let h = Array.fold_left mix h st.SS.sram in
  Array.fold_left
    (fun h (p : SS.Port.t) ->
      List.fold_left mix h
        [ p.rx_bytes; p.rx_pkts; p.tx_bytes; p.tx_pkts; p.drops; p.offered_bytes;
          p.queue_bytes ])
    h st.SS.ports

(* What one net (or shard) leaves behind, summed over owned nodes. *)
type harvest = {
  switch_fps : (int * int) list;
  seen : int;
  drops : int;
  execs : int;
  cycles : int;
  queued : int;
  h_side : side;
}

let harvest ~owns net side =
  let fps = ref [] and seen = ref 0 and drops = ref 0 and execs = ref 0 in
  let cycles = ref 0 and queued = ref 0 in
  List.iter
    (fun (id, sw) ->
      if owns id then begin
        let st = Switch.state sw in
        fps := (id, switch_fp sw) :: !fps;
        seen := !seen + st.SS.packets_seen;
        drops := !drops + st.SS.drops;
        execs := !execs + st.SS.tpp_execs;
        cycles := !cycles + st.SS.tpp_cycles;
        Array.iter (fun (p : SS.Port.t) -> queued := !queued + p.queue_bytes) st.SS.ports
      end)
    (Net.switches net);
  { switch_fps = !fps; seen = !seen; drops = !drops; execs = !execs;
    cycles = !cycles; queued = !queued; h_side = side }

(* Checks and counts over the harvests of all shards of one rep. *)
let fabric_outputs w hs ~setup_ns ~run_ns ~minor ~promoted ~misses ~extra =
  let sum f = List.fold_left (fun a h -> a + f h) 0 hs in
  let sent = sum (fun h -> h.h_side.sent) in
  let received = sum (fun h -> h.h_side.received) in
  let drops = sum (fun h -> h.drops) in
  let seen = sum (fun h -> h.seen) in
  let pool f = sum (fun h -> Array.fold_left (fun a p -> a + f p) 0 h.h_side.pools) in
  let outstanding = pool Frame.Pool.outstanding in
  let offered = w.frames_per_host * (w.k * w.k * w.k / 4) in
  let fp =
    List.concat_map (fun h -> h.switch_fps) hs
    |> List.sort compare
    |> List.fold_left (fun a (id, f) -> mix (mix a id) f) 0
  in
  let records = sum (fun h -> h.h_side.records) in
  let failures =
    []
    |> check (sent = offered) (Printf.sprintf "sent %d of %d frames" sent offered)
    |> check (sent = received + drops)
         (Printf.sprintf "conservation: sent %d <> delivered %d + dropped %d" sent
            received drops)
    |> check (sum (fun h -> h.queued) = 0) "frames left queued after the drain"
    |> check (outstanding = 0)
         (Printf.sprintf "%d pooled frames outstanding" outstanding)
    |> check (sum (fun h -> h.h_side.bad) = 0)
         (Printf.sprintf "%d deliveries failed their checks"
            (sum (fun h -> h.h_side.bad)))
    |> check ((not w.tpp) || records = path_hops * received)
         (Printf.sprintf "%d hop records for %d TPP deliveries" records received)
  in
  let per_op v = float_of_int v /. float_of_int (max 1 offered) in
  let execs = sum (fun h -> h.execs) and cycles = sum (fun h -> h.cycles) in
  {
    setup_ns; run_ns; ops = offered; completed = received; minor; promoted;
    fp = mix (mix fp received) (sum (fun h -> h.h_side.qsum));
    failures;
    layer =
      [
        ("switch.hops_per_op", per_op seen);
        ("switch.drops", float_of_int drops);
        ("tcpu.instrs_per_op", per_op (cycles - (execs * Tcpu.cycles_for 0)));
        ("tcpu.compile_misses", float_of_int misses);
        ("pool.created", float_of_int (pool Frame.Pool.created));
        ("pool.reused", float_of_int (pool Frame.Pool.reused));
        ("pool.outstanding", float_of_int outstanding);
      ]
      @ extra;
  }

(* Each rep starts from a compacted heap and an empty compile cache, so
   its allocation counts do not depend on the reps before it. *)
let fresh_rep () =
  Tcpu_compile.clear_cache ();
  Gc.compact ()

let gc_layer s0 s1 ~events ~ops =
  [
    ("engine.events_per_op", float_of_int events /. float_of_int (max 1 ops));
    ("gc.minor_collections", float_of_int (s1.Gc.minor_collections - s0.Gc.minor_collections));
    ("gc.major_collections", float_of_int (s1.Gc.major_collections - s0.Gc.major_collections));
  ]

(* Per-layer span numbers of one rep, over every domain's recorder: mean
   ns per call of each benchmark span, and the run spans' self time. *)
let span_layer (tracers : Spans.t array) =
  if Array.length tracers = 0 then []
  else
    let tot f = Array.fold_left (fun a tr -> a +. f tr) 0.0 tracers in
    let calls kind = tot (fun tr -> float_of_int tr.Spans.count.(kind)) in
    let ns kind = tot (fun tr -> float_of_int tr.Spans.total.(kind)) /. max 1.0 (calls kind) in
    [
      ("frame.pool_udp_frame_ns", ns Spans.pool);
      ("net.host_send_ns", ns Spans.send);
      ("host.receive_ns", ns Spans.recv);
      ("engine.run_self_s", tot (fun tr -> secs (Spans.self_ns tr)));
    ]

let sequential_setup w ~seed ~tracer =
  let t0 = now_ns () in
  let eng = Engine.create () in
  let ft = build w eng in
  let t_topo = now_ns () in
  let side = setup_traffic w ~seed ~tracer ~owns:(fun _ -> true) ft.Topology.f_net in
  (eng, ft, side, t0, t_topo, now_ns ())

let sequential_rep w ~seed ~tracer =
  fresh_rep ();
  let eng, ft, side, t0, t_topo, t1 = sequential_setup w ~seed ~tracer in
  let net = ft.Topology.f_net in
  let s0 = gc_sync () in
  Option.iter Spans.reset_totals tracer;
  let t2 = now_ns () in
  Option.iter (fun tr -> Spans.open_ tr Spans.run t2) tracer;
  Engine.run eng ~until:(horizon w);
  let t3 = now_ns () in
  Option.iter (fun tr -> Spans.close tr Spans.run t2 t3) tracer;
  let s1 = gc_sync () in
  let drained = Engine.next_event_time eng = None in
  let h = harvest ~owns:(fun _ -> true) net side in
  let events = Engine.events_processed eng in
  let spans = span_layer (Option.to_list tracer |> Array.of_list) in
  let r =
    fabric_outputs w [ h ] ~setup_ns:(t1 - t0) ~run_ns:(t3 - t2)
      ~minor:(s1.Gc.minor_words -. s0.Gc.minor_words)
      ~promoted:(s1.Gc.promoted_words -. s0.Gc.promoted_words)
      ~misses:(Tcpu_compile.cache_stats ()).Tcpu_compile.misses
      ~extra:
        ((("topology.fat_tree_s", secs (t_topo - t0)) :: spans)
        @ gc_layer s0 s1 ~events ~ops:(w.frames_per_host * Array.length ft.Topology.f_hosts))
  in
  { r with failures = check drained "events left after the horizon" r.failures }

(* The same traffic through Parsim at [w.parsim_shards] shards, untimed
   except for the parsim.run_s span around the whole call: it checks that
   the sharded simulation reproduces the sequential one and reads the
   Parsim layer's counters. *)
let sharded_rep w ~seed =
  fresh_rep ();
  (* Each slot is written and read only by its own shard's domain. *)
  let sides = Array.make w.parsim_shards None in
  let t0 = now_ns () in
  let stats, parts =
    Parsim.run ~shards:w.parsim_shards ~until:(horizon w)
      ~build:(fun eng -> (build w eng).Topology.f_net)
      ~setup:(fun ~shard ~owns net ->
        sides.(shard) <- Some (setup_traffic w ~seed ~tracer:None ~owns net))
      ~collect:(fun ~shard ~owns net ->
        match sides.(shard) with
        | Some side -> harvest ~owns net side
        | None -> failwith "shard without traffic")
      ()
  in
  let t1 = now_ns () in
  let mean = float_of_int stats.Parsim.events /. float_of_int w.parsim_shards in
  let peak = Array.fold_left max 0 stats.Parsim.shard_events in
  let r =
    fabric_outputs w (Array.to_list parts) ~setup_ns:0 ~run_ns:(t1 - t0) ~minor:0.0
      ~promoted:0.0
      ~misses:(Tcpu_compile.cache_stats ()).Tcpu_compile.misses
      ~extra:
        [
          ("parsim.run_s", secs (t1 - t0));
          ("parsim.rounds", float_of_int stats.Parsim.rounds);
          ("parsim.messages", float_of_int stats.Parsim.messages);
          ("parsim.chunks", float_of_int stats.Parsim.chunks);
          ("parsim.imbalance", float_of_int peak /. mean);
          ("parsim.boundary_outstanding", float_of_int stats.Parsim.boundary_outstanding);
        ]
  in
  {
    r with
    failures =
      check (stats.Parsim.boundary_outstanding = 0)
        (Printf.sprintf "%d boundary frames outstanding" stats.Parsim.boundary_outstanding)
        r.failures;
  }

(* ---- Replays (traced runs only) ----------------------------------------

   The workload's hop sample: each host's first frame, walked hop by hop
   through a fresh replica of the fabric with Switch.handle_ingress and
   drained with Switch.dequeue_or. Each handle_ingress call is timed and
   its minor words counted. Frames are also captured as they enter each
   TCPU (pre-execution contents plus the metadata the lookup filled in),
   so Tcpu.execute can be replayed on two further replicas under the
   compiled and the interpreter backend, which must agree exactly. *)

let copy_meta ~(src : Meta.t) (dst : Meta.t) =
  dst.Meta.in_port <- src.Meta.in_port;
  dst.out_port <- src.out_port;
  dst.queue_id <- src.queue_id;
  dst.matched_entry <- src.matched_entry;
  dst.matched_version <- src.matched_version;
  dst.table_hit <- src.table_hit;
  dst.arrival_ns <- src.arrival_ns;
  dst.hop_count <- src.hop_count

let clone_at_tcpu f =
  let c = Frame.clone f in
  copy_meta ~src:f.Frame.meta c.Frame.meta;
  c

let replica w =
  let ft = build w (Engine.create ()) in
  let net = ft.Topology.f_net in
  let peer = Array.make (Net.node_count net) [||] in
  List.iter
    (fun (id, sw) ->
      let a = Array.make (Switch.num_ports sw) (-1, -1) in
      List.iter (fun (p, node, pp) -> a.(p) <- (node, pp)) (Net.neighbors net id);
      peer.(id) <- a)
    (Net.switches net);
  (ft, peer)

type hop_sample = { node : int; at_tcpu : Frame.t }

let switch_replay w ~seed ~walks =
  let ft, peer = replica w in
  let net = ft.Topology.f_net in
  let hosts = ft.Topology.f_hosts in
  let n = Array.length hosts in
  let _, port_base = draw_inputs w ~seed ~n in
  let template = stats_template w in
  let pool = Frame.Pool.create ~capacity:4 ~frame_bytes:2048 () in
  let payload = Bytes.make w.payload 'x' in
  let none = Frame.placeholder () in
  let calls = ref 0 and ns = ref 0 and bad = ref 0 in
  let words = [| 0.0 |] in
  let sample = ref [] in
  for walk = 0 to walks - 1 do
    for src = 0 to n - 1 do
      let s = hosts.(src) and d = hosts.(partner n src) in
      let tpp = Option.map Prog.copy template in
      let f =
        Frame.Pool.udp_frame pool ~src_mac:s.Net.mac ~dst_mac:d.Net.mac
          ~src_ip:s.Net.ip ~dst_ip:d.Net.ip ~src_port:(port_base + src) ~dst_port:7
          ?tpp ~payload ()
      in
      let pre = ref f in
      let rec hop node in_port =
        if node < Array.length peer && Array.length peer.(node) > 0 then begin
          let sw = Net.switch net node in
          if walk = 0 && w.tpp then pre := Frame.clone f;
          let w0 = Gc.minor_words () in
          let t0 = now_ns () in
          let v = Switch.handle_ingress sw ~now:0 ~in_port f in
          let t1 = now_ns () in
          words.(0) <- words.(0) +. (Gc.minor_words () -. w0);
          ns := !ns + (t1 - t0);
          incr calls;
          if walk = 0 && w.tpp then begin
            copy_meta ~src:f.Frame.meta !pre.Frame.meta;
            sample := { node; at_tcpu = !pre } :: !sample
          end;
          match v with
          | Switch.Queued [ p ] when Switch.dequeue_or sw ~port:p ~default:none == f ->
            let next, next_port = peer.(node).(p) in
            hop next next_port
          | _ -> incr bad
        end
      in
      (match Net.neighbors net s.Net.node_id with
      | [ (_, edge, port) ] -> hop edge port
      | _ -> incr bad);
      Frame.recycle f
    done
  done;
  let per_call v = v /. float_of_int (max 1 !calls) in
  ( [
      ("switch.handle_ingress_ns", per_call (float_of_int !ns));
      ("switch.handle_ingress_words", per_call words.(0));
      ("switch.replayed_hops", float_of_int !calls);
    ],
    (if !bad = 0 then [] else [ Printf.sprintf "%d replayed hops misrouted" !bad ]),
    List.rev !sample )

let tcpu_replay w sample =
  if sample = [] then ([ ("tcpu.execute_ns", 0.0) ], [])
  else begin
    let compiled, _ = replica w and interp, _ = replica w in
    let st ft node = Switch.state (Net.switch ft.Topology.f_net node) in
    let ns = ref 0 and mismatches = ref 0 in
    List.iter
      (fun { node; at_tcpu } ->
        let a = clone_at_tcpu at_tcpu and b = clone_at_tcpu at_tcpu in
        let t0 = now_ns () in
        let ra = Tcpu.execute ~backend:Tcpu.Compiled (st compiled node) ~now:0 ~frame:a in
        ns := !ns + (now_ns () - t0);
        let rb = Tcpu.execute ~backend:Tcpu.Interpreter (st interp node) ~now:0 ~frame:b in
        if ra <> rb || not (Bytes.equal (Frame.serialize a) (Frame.serialize b)) then
          incr mismatches)
      sample;
    List.iter
      (fun (id, _) ->
        let a = st compiled id and b = st interp id in
        if
          a.SS.sram <> b.SS.sram || a.SS.tpp_execs <> b.SS.tpp_execs
          || a.SS.tpp_cycles <> b.SS.tpp_cycles || a.SS.tpp_faults <> b.SS.tpp_faults
        then incr mismatches)
      (Net.switches compiled.Topology.f_net);
    ( [
        ("tcpu.execute_ns", float_of_int !ns /. float_of_int (List.length sample));
        ("tcpu.replayed_execs", float_of_int (List.length sample));
      ],
      if !mismatches = 0 then []
      else [ Printf.sprintf "compiled and interpreted TCPU differ on %d replays" !mismatches ] )
  end

(* BENCH_5's engine-core method: self-rescheduling typed dequeue events,
   one per port of the fabric, with no network behind them. *)
let engine_core ~ports ~events =
  let eng = Engine.create () in
  let budget = ref events in
  let stride node = 1 + ((node * 7919) land 0xFFFF) in
  let rec h =
    {
      Engine.on_deliver = (fun ~node:_ ~port:_ _ -> ());
      on_dequeue =
        (fun ~node ~port ->
          if !budget > 0 then begin
            decr budget;
            Engine.dequeue_at eng (Engine.now eng + stride node) h ~node ~port
          end);
      on_restart = (fun ~node:_ -> ());
    }
  in
  for node = 0 to ports - 1 do
    Engine.dequeue_at eng (stride node) h ~node ~port:0
  done;
  let t0 = now_ns () in
  Engine.run eng ~until:max_int;
  float_of_int (now_ns () - t0) /. float_of_int (Engine.events_processed eng)

let fabric_replays w ~seed =
  let ports = Net.port_count (build w (Engine.create ())).Topology.f_net in
  let core = engine_core ~ports ~events:2_000_000 in
  let sw, sw_fail, sample = switch_replay w ~seed ~walks:20 in
  let tc, tc_fail = tcpu_replay w sample in
  ((("engine.core_ns_per_event", core) :: sw) @ tc, sw_fail @ tc_fail)

(* ---- Transport workload --------------------------------------------------

   Fct.fabric_run runs the five transports back to back on the
   Fct.fabric_default fabric. One rep is [draws] independent flow draws
   (seeds derived from the benchmark seed), each under all five
   transports: a single short draw has too few flows for its counts to
   be representative of the seed's workload family. Set-up happens inside
   fabric_run, so it is timed from outside as the same calls with a
   1 ns run: build, stacks, domain spawn and join, no flows. *)

type transport = { duration : int; draws : int }

let transport_key = function
  | Fct.Rcp_star_t -> "rcp_star"
  | Fct.Tcp_t -> "tcp"
  | Fct.Dctcp_t -> "dctcp"
  | Fct.Ndp_t -> "ndp"
  | Fct.Tpp_lb_t -> "tpp_lb"

let draw_params tw ~seed ~draw ~duration =
  { Fct.fabric_default with Fct.f_duration = duration; f_seed = (seed * tw.draws) + draw }

let transport_setup tw ~seed =
  let t0 = now_ns () in
  for draw = 0 to tw.draws - 1 do
    let p = draw_params tw ~seed ~draw ~duration:1 in
    List.iter (fun t -> ignore (Fct.fabric_run t p)) Fct.all_transports
  done;
  now_ns () - t0

let transport_rep tw ~seed =
  fresh_rep ();
  let setup_ns = transport_setup tw ~seed in
  let draws = List.init tw.draws Fun.id in
  let s_first = gc_sync () in
  let rows =
    List.concat_map
      (fun draw ->
        let p = draw_params tw ~seed ~draw ~duration:tw.duration in
        List.map
          (fun t ->
            let s0 = gc_sync () in
            let t0 = now_ns () in
            let o = Fct.fabric_run t p in
            let t1 = now_ns () in
            let s1 = gc_sync () in
            (o, t1 - t0, s1.Gc.minor_words -. s0.Gc.minor_words,
             s1.Gc.promoted_words -. s0.Gc.promoted_words))
          Fct.all_transports)
      draws
  in
  let s_last = gc_sync () in
  let sum ?(only = fun _ -> true) f =
    List.fold_left (fun a ((o, _, _, _) as r) -> if only o then a + f r else a) 0 rows
  in
  let sumf f = List.fold_left (fun a r -> a +. f r) 0.0 rows in
  let started = sum (fun (o, _, _, _) -> o.Fct.fo_started) in
  let completed = sum (fun (o, _, _, _) -> o.Fct.fo_completed) in
  let failures =
    List.fold_left
      (fun acc (o, _, _, _) ->
        let name = transport_key o.Fct.fo_transport in
        acc
        |> check o.Fct.fo_ok (name ^ ": transport invariants failed")
        |> check (o.Fct.fo_completed <= o.Fct.fo_started)
             (name ^ ": completed more flows than started"))
      [] rows
  in
  let per_transport t =
    let only o = o.Fct.fo_transport = t in
    let count f = float_of_int (sum ~only f) in
    let f name v = (Printf.sprintf "fct.%s.%s" (transport_key t) name, v) in
    [
      f "wall_s" (secs (sum ~only (fun (_, ns, _, _) -> ns)));
      f "events" (count (fun (o, _, _, _) -> o.Fct.fo_events));
      f "completed_frac"
        (count (fun (o, _, _, _) -> o.Fct.fo_completed)
        /. Float.max 1.0 (count (fun (o, _, _, _) -> o.Fct.fo_started)));
      f "drops" (count (fun (o, _, _, _) -> o.Fct.fo_drops));
      f "trims" (count (fun (o, _, _, _) -> o.Fct.fo_trims));
      f "alloc_words"
        (List.fold_left (fun a (o, _, m, _) -> if only o then a +. m else a) 0.0 rows);
    ]
  in
  {
    setup_ns;
    run_ns = sum (fun (_, ns, _, _) -> ns);
    ops = started;
    completed;
    minor = sumf (fun (_, _, m, _) -> m);
    promoted = sumf (fun (_, _, _, p) -> p);
    fp =
      List.fold_left
        (fun a (o, _, _, _) -> List.fold_left mix a (Fct.fingerprint o))
        0 rows;
    failures;
    layer =
      gc_layer s_first s_last ~events:(sum (fun (o, _, _, _) -> o.Fct.fo_events)) ~ops:started
      @ List.concat_map per_transport Fct.all_transports;
  }

(* ---- Workloads, runner and report ----------------------------------------- *)

type workload = Fabric of fabric | Transport of transport

let fabric ~tpp ~parsim_shards =
  Fabric { k = 16; frames_per_host = 200; payload = 1000; gap_ns = 6_000; tpp; parsim_shards }

let workloads =
  [
    ("fabric_udp", fabric ~tpp:false ~parsim_shards:2);
    ("fabric_tpp", fabric ~tpp:true ~parsim_shards:0);
    ("transport_mix", Transport { duration = Time_ns.ms 20; draws = 8 });
  ]

let end_to_end =
  [
    ("wall_s", "s"); ("setup_s", "s"); ("alloc_words_per_op", "words");
    ("promoted_words_per_op", "words"); ("peak_rss_mb", "MiB");
    ("completed_frac", "fraction");
  ]

let transports = [ "rcp_star"; "tcp"; "dctcp"; "ndp"; "tpp_lb" ]

let per_layer =
  [
    ("topology.fat_tree_s", "s"); ("frame.pool_udp_frame_ns", "ns");
    ("net.host_send_ns", "ns"); ("host.receive_ns", "ns");
    ("engine.run_self_s", "s"); ("engine.events_per_op", "count");
    ("gc.minor_collections", "count"); ("gc.major_collections", "count");
    ("engine.core_ns_per_event", "ns"); ("switch.handle_ingress_ns", "ns");
    ("switch.handle_ingress_words", "words"); ("switch.hops_per_op", "count");
    ("switch.drops", "count"); ("tcpu.execute_ns", "ns");
    ("tcpu.instrs_per_op", "count"); ("tcpu.compile_misses", "count");
    ("pool.created", "count"); ("pool.reused", "count");
    ("pool.outstanding", "count"); ("parsim.run_s", "s");
    ("parsim.rounds", "count"); ("parsim.messages", "count");
    ("parsim.chunks", "count"); ("parsim.imbalance", "ratio");
    ("parsim.boundary_outstanding", "count");
  ]
  @ List.concat_map
      (fun t ->
        List.map
          (fun (m, u) -> (Printf.sprintf "fct.%s.%s" t m, u))
          [ ("wall_s", "s"); ("events", "count"); ("completed_frac", "fraction");
            ("drops", "count"); ("trims", "count"); ("alloc_words", "words") ])
      transports
  @ [ ("trace.wall_s", "s"); ("trace.overhead_s", "s") ]

let rep_of wl ~seed ~tracer =
  match wl with
  | Fabric w -> sequential_rep w ~seed ~tracer
  | Transport tw -> transport_rep tw ~seed

(* Runs [f] in a forked child and returns its result. Every rep runs this
   way, so each starts from the same process state: library modules keep
   process-global counters (Rcp_star's and Tpp_lb's controller ids feed
   32-bit probe sequence numbers, which wrap after 4096 controllers in one
   process and change those transports' results), and a rep must be a
   function of its configuration and seed alone. No other domain runs in
   the parent, as Unix.fork requires. *)
let in_child f =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc result [];
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let result = try Marshal.from_channel ic with End_of_file -> Error "child died" in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match result with Ok v -> v | Error e -> failwith ("rep failed: " ^ e))

(* A single set-up takes milliseconds, too short to time steadily once
   per rep, so each rep's setup_ns is the median of its own set-up and
   [setup_trials - 1] more, each in a child of its own, so that every
   one starts from the same process state as the rep. *)
let setup_trials = 5

(* The workload's set-up alone, as a rep starts it. *)
let setup_of wl ~seed =
  fresh_rep ();
  match wl with
  | Fabric w ->
    let _, _, _, t0, _, t1 = sequential_setup w ~seed ~tracer:None in
    t1 - t0
  | Transport tw -> transport_setup tw ~seed

(* One rep in a child: its results, its span recorders (traced) and the
   child's peak resident memory. *)
let child_rep wl ~seed ~traced =
  let r, tracers, rss =
    in_child (fun () ->
        let tracer = if traced then Some (Spans.create ()) else None in
        let r = rep_of wl ~seed ~tracer in
        let tracers = Option.to_list tracer |> Array.of_list in
        (r, tracers, peak_rss_mib ()))
  in
  let others = List.init (setup_trials - 1) (fun _ -> in_child (fun () -> setup_of wl ~seed)) in
  let setup_ns = int_of_float (median (List.map float_of_int (r.setup_ns :: others))) in
  ({ r with setup_ns }, tracers, rss)

(* Reps until the time is used up: rep 0 is a warm-up; a traced run
   alternates untraced and traced reps after it. Every rep must repeat
   rep 0's outputs exactly. *)
let run_reps wl ~seed ~start ~seconds ~trace ~fixed =
  let min_reps = if trace then 5 else 4 in
  let rec loop i last acc =
    let elapsed = now_ns () - start in
    let more =
      match fixed with
      | Some n -> i < n
      | None -> i < min_reps || float_of_int (elapsed + last) <= seconds *. 1e9
    in
    if not more then List.rev acc
    else begin
      let traced = trace && i mod 2 = 1 in
      let t0 = now_ns () in
      let r = child_rep wl ~seed ~traced in
      loop (i + 1) (now_ns () - t0) ((traced, r) :: acc)
    end
  in
  loop 0 0 []

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let provenance ~seed =
  Printf.sprintf
    "{\"commit\": %S, \"ocaml_version\": %S, \"nproc\": %d, \"seed\": %d}"
    (Option.value (Sys.getenv_opt "TPPBENCH_COMMIT") ~default:"unknown")
    Sys.ocaml_version
    (Domain.recommended_domain_count ())
    seed

let write_trace path ~name ~seed ~layer ~extra ~(tracers : Spans.t array) =
  let oc = open_out path in
  let kv l =
    String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_num v)) l)
  in
  Printf.fprintf oc
    "{\"workload\": %S, \"provenance\": %s,\n \"per_layer\": {%s},\n \"extra\": {%s},\n"
    name (provenance ~seed) (kv layer) (kv extra);
  Printf.fprintf oc " \"span_kinds\": [%s],\n \"span_fields\": [\"kind\", \"start_ns\", \"end_ns\", \"parent\"],\n \"spans\": ["
    (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%S") Spans.names)));
  Array.iteri
    (fun d (tr : Spans.t) ->
      Printf.fprintf oc "%s\n  {\"domain\": %d, \"kept\": %d, \"dropped\": %d, \"rows\": ["
        (if d = 0 then "" else ",") d tr.Spans.n tr.Spans.dropped;
      for i = 0 to tr.Spans.n - 1 do
        let o = 4 * i in
        Printf.fprintf oc "%s[%d,%d,%d,%d]" (if i = 0 then "" else ",")
          tr.Spans.buf.{o} tr.Spans.buf.{o + 1} tr.Spans.buf.{o + 2} tr.Spans.buf.{o + 3}
      done;
      output_string oc "]}")
    tracers;
  output_string oc "]}\n";
  close_out oc

let main ~name ~seed ~seconds ~trace ~fixed ~trace_out =
  let start = now_ns () in
  let wl = List.assoc name workloads in
  (* The same traffic through Parsim must reproduce the sequential reps
     exactly. *)
  let sharded =
    match wl with
    | Fabric w when w.parsim_shards > 1 -> Some (in_child (fun () -> sharded_rep w ~seed))
    | _ -> None
  in
  let replay_layer, replay_failures =
    match wl with
    | Fabric w when trace -> in_child (fun () -> fabric_replays w ~seed)
    | _ -> ([], [])
  in
  let parsim_layer =
    match sharded with
    | Some s ->
      List.filter (fun (k, _) -> String.starts_with ~prefix:"parsim." k) s.layer
    | None -> []
  in
  let runs = run_reps wl ~seed ~start ~seconds ~trace ~fixed in
  let reps = List.map (fun (t, (r, _, _)) -> (t, r)) runs in
  let first = snd (List.hd reps) in
  let timed = match runs with _ :: rest when rest <> [] -> rest | all -> all in
  let pick want = List.filter_map (fun (t, x) -> if t = want then Some x else None) timed in
  let untraced = List.map (fun (r, _, _) -> r) (pick false) in
  let traced = List.map (fun (r, _, _) -> r) (pick true) in
  let tracers = match pick true with (_, tr, _) :: _ -> tr | [] -> [||] in
  let failures =
    List.sort_uniq compare (List.concat_map (fun (_, r) -> r.failures) reps)
    @ replay_failures
    @ (if List.for_all (fun (_, r) -> r.fp = first.fp && r.completed = first.completed) reps
       then []
       else [ "reps disagree on their outputs" ])
    @
    match sharded with
    | Some s when s.fp <> first.fp -> [ "sharded run differs from the sequential run" ]
    | Some s -> s.failures
    | None -> []
  in
  let correct = failures = [] in
  let med f l = median (List.map f l) in
  let fastest f l = List.fold_left (fun a r -> Float.min a (f r)) infinity l in
  let per_op v (r : rep) = v r /. float_of_int (max 1 r.ops) in
  let e2e =
    [
      ("wall_s", fastest (fun r -> secs r.run_ns) untraced);
      ("setup_s", fastest (fun r -> secs r.setup_ns) untraced);
      ("alloc_words_per_op", med (per_op (fun r -> r.minor)) untraced);
      ("promoted_words_per_op", med (per_op (fun r -> r.promoted)) untraced);
      ("peak_rss_mb", median (List.map (fun (_, _, rss) -> rss) (pick false)));
      ("completed_frac",
       if correct then float_of_int first.completed /. float_of_int (max 1 first.ops) else 0.0);
    ]
  in
  List.iter
    (fun (m, unit) -> Printf.printf "%s/%s %s %s\n" name m (json_num (List.assoc m e2e)) unit)
    end_to_end;
  let layer_of key =
    match List.assoc_opt key (replay_layer @ parsim_layer) with
    | Some v -> v
    | None -> med (fun r -> Option.value (List.assoc_opt key r.layer) ~default:0.0) traced
  in
  let trace_wall = fastest (fun r -> secs r.run_ns) traced in
  let layer =
    List.map
      (fun (m, _) ->
        ( m,
          match m with
          | "trace.wall_s" -> trace_wall
          | "trace.overhead_s" -> trace_wall -. List.assoc "wall_s" e2e
          | _ -> layer_of m ))
      per_layer
  in
  if trace then begin
    List.iter
      (fun (m, unit) -> Printf.printf "%s/%s %s %s\n" name m (json_num (List.assoc m layer)) unit)
      per_layer;
    let extra =
      List.filter (fun (k, _) -> not (List.mem_assoc k per_layer)) replay_layer
      @ [ ("reps.traced", float_of_int (List.length traced));
          ("reps.untraced", float_of_int (List.length untraced)) ]
    in
    write_trace trace_out ~name ~seed ~layer ~extra ~tracers
  end;
  Printf.printf "%s/reps %d\n%s/fingerprint %d\n" name (List.length reps) name first.fp;
  List.iter (fun f -> Printf.printf "%s/failure %s\n" name f) failures;
  Printf.printf "%s/correct %b\n" name correct;
  let metrics =
    (if trace then List.map (fun (m, u) -> (m, List.assoc m layer, u)) per_layer
     else List.map (fun (m, u) -> (m, List.assoc m e2e, u)) end_to_end)
    |> List.map (fun (m, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m (json_num v) u)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct
    (List.fold_left (fun a (_, r) -> a + r.ops) 0 reps)
    (if correct then 0 else List.fold_left (fun a (_, r) -> a + r.ops) 0 reps)
    (String.concat ", " metrics);
  if not correct then exit 1

let () =
  let name = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let fixed = ref 0 and trace_out = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string name,
       " " ^ String.concat "|" (List.map fst workloads));
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " time budget for the reps");
      ("--trace", Arg.Set_int trace, " 1 = per-layer trace run");
      ("--reps", Arg.Set_int fixed, " run exactly this many reps (ignores --seconds)");
      ("--trace-out", Arg.Set_string trace_out, " where the trace JSON goes");
    ]
  in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem_assoc !name workloads) then begin
    prerr_endline ("unknown workload: " ^ !name);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  main ~name:!name ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    ~fixed:(if !fixed > 0 then Some !fixed else None)
    ~trace_out:(if !trace_out = "" then Printf.sprintf "trace-%s.json" !name else !trace_out)

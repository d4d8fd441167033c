(* Packet-rate benchmark and the dataplane's CI gates, on one harness: every fabric run is
   a [scenario] executed by [run] (see "the harness" below). Each mode composes runs into
   the gates described at its section, prints one line per row and, outside --smoke, writes
   a BENCH_<n>.json through [write_json], so successive changes have a trajectory to beat.
   Run as [dune exec bench/perf.exe -- ARGS]:

     (no mode flag)   sequential packet rate            -> BENCH_1.json
     --shards N       N-shard vs sequential             -> BENCH_2.json
     --smoke          CI: 2-shard (or --shards N) run == sequential
     --tpp-heavy      compiled TCPU == interpreter      -> BENCH_3.json
     --chaos          fault injection: free when empty,
                      chaotic run shard-independent     -> BENCH_4.json
     --engine         allocation-free typed event core  -> BENCH_5.json
     --frames         pooled flat frames == unpooled    -> BENCH_6.json
     --telemetry      postcard pipeline and sketches    -> BENCH_7.json
     --transports     RCP*, TCP, DCTCP, NDP, TPP-LB     -> BENCH_8.json
     --scale          aggregated FIBs, 100k-host build  -> BENCH_9.json
     --k K            fat-tree arity (even, default 8)
     --packets N      packets per host (default 1500)
     --wire-check always|cached|off, --out FILE

   Every mode flag takes --smoke for its quick CI variant (fixed small sizes, bounded
   runtime, no JSON except --transports); at most one mode flag is accepted. Bad arguments
   exit 2 with a one-line "perf:" message; a failed gate exits 1. Allocation is reported as
   minor and promoted words per event, counted exactly on the running domain (per shard and
   summed for sharded runs). *)

open Tpp

(* [Fabric] is BENCH_1, BENCH_2 with --shards N, or the plain --smoke. *)
type mode = Fabric | Tpp_heavy | Chaos | Engine | Frames | Telemetry | Transports | Scale

let mode_flags =
  [ ("--tpp-heavy", Tpp_heavy); ("--chaos", Chaos); ("--engine", Engine);
    ("--frames", Frames); ("--telemetry", Telemetry); ("--transports", Transports);
    ("--scale", Scale) ]

type config = {
  mode : mode;
  k : int;  (* fat-tree arity *)
  packets_per_host : int;
  payload_bytes : int;
  gap_ns : int;  (* inter-departure time per host *)
  wire_check : Net.wire_check;
  shards : int;  (* 0 = plain sequential engine *)
  smoke : bool;
  out : string option;
}

let default =
  { mode = Fabric; k = 8; packets_per_host = 1500; payload_bytes = 1000; gap_ns = 6_000;
    wire_check = `Cached; shards = 0; smoke = false; out = None }

let horizon = Time_ns.sec 10
let hosts cfg = cfg.k * cfg.k * cfg.k / 4
let rate n wall = float_of_int n /. wall
let per_event words events = if events = 0 then 0.0 else words /. float_of_int events
let tag_of cfg name = Printf.sprintf "perf(%s%s)" name (if cfg.smoke then " smoke" else "")
let out_path cfg n = Option.value cfg.out ~default:(Printf.sprintf "BENCH_%d.json" n)

(* Most gates' smoke variant is a k=4 fabric with 200 packets per host, and their identity
   runs use 2 shards on a smoke, else --shards or 4. *)
let smoke_size cfg = if cfg.smoke then { cfg with k = 4; packets_per_host = 200 } else cfg
let gate_shards cfg = if cfg.smoke then 2 else if cfg.shards > 0 then cfg.shards else 4

(* [say] prints one line of a gate's report; [fail] one line on stderr, then exits 1 — a
   fast wrong simulator is not a result. *)
let say tag fmt = Printf.printf ("%s: " ^^ fmt ^^ "\n%!") tag
let fail tag fmt = Printf.ksprintf (fun s -> Printf.eprintf "%s: FAIL — %s\n%!" tag s; exit 1) fmt

(* Allocation provenance, exact and domain-local: Gc.minor_words counts every word the
   calling domain allocated, where Gc.quick_stat moves in whole minor heaps (a small smoke
   read 3.15 or 6.30 w/ev on identical runs) and, in OCaml 5, sums every running domain.
   Words are promoted only at minor collections, so the promoted count is exact too.
   Sharded runs mark and read inside each shard's own domain. *)
let gc_mark () =
  let _, promoted, _ = Gc.counters () in
  (Gc.minor_words (), promoted)

let gc_delta (m0, p0) = let m, p = gc_mark () in (m -. m0, p -. p0)

(* ---- JSON ------------------------------------------------------------- *)

type json = Num of string | Str of string | Obj of (string * json) list | Arr of json list

let int n = Num (string_of_int n)
let bool b = Num (string_of_bool b)

(* Fixed decimals; a non-finite ratio (say, over a zero wall time) is null, not bad JSON. *)
let fixed d x = Num (if Float.is_finite x then Printf.sprintf "%.*f" d x else "null")

(* The one writer. Top-level keys and array elements go one per line, nested objects inline:
   the layout of the committed BENCH files, whose key order bench/report.ml relies on. *)
let write_json out j =
  let b = Buffer.create 4096 in
  let seq o sep c f xs =
    Buffer.add_string b o;
    List.iteri (fun i x -> if i > 0 then Buffer.add_string b sep; f x) xs;
    Buffer.add_string b c
  in
  let rec emit depth = function
    | Num s -> Buffer.add_string b s
    | Str s ->
      let esc = function
        | ('"' | '\\') as c -> Printf.bprintf b "\\%c" c
        | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
        | c -> Buffer.add_char b c
      in
      seq "\"" "" "\"" esc (List.of_seq (String.to_seq s))
    | Obj kvs ->
      let o, sep, c = if depth = 0 then ("{\n  ", ",\n  ", "\n}") else ("{ ", ", ", " }") in
      seq o sep c (fun (k, v) -> emit 1 (Str k); Buffer.add_string b ": "; emit (depth + 1) v) kvs
    | Arr xs -> seq "[\n    " ",\n    " "\n  ]" (emit (depth + 1)) xs
  in
  emit 0 j;
  Buffer.add_char b '\n';
  Out_channel.with_open_bin out (fun oc -> Buffer.output_buffer oc b);
  Printf.printf "perf: wrote %s\n%!" out

let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then "unknown" else line
  with _ -> "unknown"

(* The provenance keys every numbered BENCH file starts with. *)
let header ~bench ~workload =
  [ ("bench", int bench); ("workload", Str workload); ("git_commit", Str (git_commit ()));
    ("ocaml", Str Sys.ocaml_version); ("cores", int (Domain.recommended_domain_count ())) ]

let sharded_json ?(extra = []) ~shards wall =
  Obj ((("shards", int shards) :: ("wall_s", fixed 6 wall) :: extra) @ [ ("identical", bool true) ])

(* ---- workloads --------------------------------------------------------- *)

let collect_program =
  "PUSH [Switch:SwitchID]\n\
   PUSH [Link:QueueSize]\n\
   PUSH [Link:RxUtilization]\n\
   PUSH [Link:CapacityKbps]\n\
   PUSH [Link:Drops]\n"

(* The TPP-heavy workload (BENCH_3): long per-hop programs make the TCPU
   the dominant per-event cost, so the interpreter-vs-compiled
   instruction throughput is visible above the simulator's fixed
   overheads. *)
let heavy_block =
  "LOAD [Switch:PacketsSeen], [Packet:0]\n\
   LOAD [Link:QueueSize], [Packet:4]\n\
   ADD [Packet:0], [Packet:4]\n\
   LOAD [Link:TxBytes], [Packet:8]\n\
   MAX [Packet:8], [Packet:0]\n\
   AND [Packet:0], 0xFFF\n\
   OR [Packet:4], 7\n\
   SUB [Packet:8], [Packet:4]\n\
   ADD [Packet:12], 1\n\
   MIN [Packet:12], 0xFFF\n\
   MOV [Packet:16], [Packet:8]\n\
   ADD [Packet:16], [Packet:0]\n"

let heavy_program =
  (* mask 0 always passes: the CEXEC is here to keep the pool machinery
     on the hot path, not to filter. 8 blocks = 99 instructions, still
     inside the 300-cycle budget (4 + 99 cycles). *)
  "CEXEC [Switch:Version], 0, 0\n"
  ^ String.concat "" (List.init 8 (fun _ -> heavy_block))
  ^ "ADD [Sram:7], 1\n\
     MAX [Sram:8], [Link:QueueSize]\n"

(* Every 16th packet of each host carries this instead: the STORE to a
   read-only register faults at the first hop, exercising the faulted-
   TPP inert path and fault accounting under both backends. *)
let heavy_fault_program =
  "ADD [Sram:9], 1\n\
   STORE [Switch:SwitchID], 1\n\
   ADD [Sram:9], 1\n"

(* What every host sends: [packets_per_host] frames to its partner in the opposite half of
   the fabric, so flows cross edge, aggregation and core layers and exercise ECMP; packet j
   of host src leaves at j * gap + 7 * src + 1 (offset hosts keep departures apart).
   [Tagged] frames carry a TPP — with [faulting], every 16th packet of each host carries
   that program instead, a choice that depends only on (src, j), so any shard layout
   agrees — and all sends are scheduled up front. [Plain] frames are untagged, drawn from
   one pool per sending host when [pooled], and each send schedules the next, so the wheel
   holds one pending send per host rather than hosts x packets parked closures. The two
   schedules stamp the same sends differently (so same-instant ties break differently);
   each keeps the one its BENCH files were recorded with (Tagged: 1, 3, 4; Plain: 2, 5-9). *)
type load =
  | Tagged of { mem_len : int; program : string; faulting : string option }
  | Plain of { pooled : bool }

let tagged = Tagged { mem_len = 64; program = collect_program; faulting = None }
let heavy = Tagged { mem_len = 32; program = heavy_program; faulting = Some heavy_fault_program }
let plain = Plain { pooled = false }
let pooled = Plain { pooled = true }

let wire_checks = [ ("always", `Always); ("cached", `Cached); ("off", `Off) ]

let workload_of cfg load =
  let what =
    match load with
    | Tagged { faulting = None; _ } -> "TPP-tagged UDP packets"
    | Tagged { mem_len; program; _ } ->
      Printf.sprintf "UDP packets, %d-instr TPP per hop (1 in 16 packets faulting)"
        (Array.length (Result.get_ok (Asm.to_tpp ~mem_len program)).Prog.program)
    | Plain _ -> "plain UDP packets"
  in
  Printf.sprintf "fat-tree k=%d (ECMP), %d hosts x %d %s, %dB payload, wire_check=%s"
    cfg.k (hosts cfg) cfg.packets_per_host what cfg.payload_bytes
    (fst (List.find (fun (_, w) -> w = cfg.wire_check) wire_checks))

(* Schedules [load] for the hosts [owns] selects and returns the traffic pools (none unless
   pooled). Pools and TPP templates are created here, in the calling domain — the shard's
   own, for a sharded run — so recycling at delivery is same-domain for intra-shard traffic
   and a safe no-op across a boundary. *)
let schedule_load cfg load ~owns net =
  let hosts = Array.of_list (Net.hosts net) in
  let n = Array.length hosts and eng = Net.engine net in
  let payload = Bytes.create cfg.payload_bytes in
  let tpp =
    match load with
    | Tagged t ->
      let asm src = Result.get_ok (Asm.to_tpp ~mem_len:t.mem_len src) in
      let prog = asm t.program and faulting = Option.map asm t.faulting in
      fun j ->
        Some (Prog.copy (match faulting with Some f when j mod 16 = 0 -> f | _ -> prog))
    | Plain _ -> fun _ -> None
  in
  let pools =
    if load <> pooled then [||]
    else Array.map (fun _ -> Frame.Pool.create ~capacity:64 ~frame_bytes:2048 ()) hosts
  in
  let send src j =
    let s = hosts.(src) and d = hosts.((src + (n / 2)) mod n) in
    let src_mac = s.Net.mac and dst_mac = d.Net.mac and src_ip = s.Net.ip in
    let dst_ip = d.Net.ip and src_port = 1000 + src in
    Net.host_send net s
      (if Array.length pools > 0 then
         Frame.Pool.udp_frame pools.(src) ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port
           ~dst_port:7 ~payload ()
       else
         Frame.udp_frame ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port:7 ?tpp:(tpp j)
           ~payload ())
  in
  let at src j = (j * cfg.gap_ns) + (src * 7) + 1 in
  for src = 0 to n - 1 do
    if owns hosts.(src).Net.node_id then begin
      match load with
      | Tagged _ ->
        for j = 0 to cfg.packets_per_host - 1 do
          Engine.at eng (at src j) (fun () -> send src j)
        done
      | Plain _ ->
        let rec tick j () =
          send src j;
          if j + 1 < cfg.packets_per_host then Engine.at eng (at src (j + 1)) (tick (j + 1))
        in
        if cfg.packets_per_host > 0 then Engine.at eng (at src 0) (tick 0)
    end
  done;
  pools

(* The chaotic fault schedule (BENCH_4): flap, loss, corruption,
   freeze-restart and degradation at once. The faulted cables are host
   access links plus the edge switch above host 1: these carry traffic
   by construction, where an arbitrary core uplink may be starved by
   ECMP hashing. Fault windows scale with the send span so every rule
   fires at any --packets setting. *)
let chaos_seed = 4242

let chaos_schedule cfg net =
  let span = cfg.packets_per_host * cfg.gap_ns in
  let f = Fault.create ~seed:chaos_seed in
  let hosts = Array.of_list (Net.hosts net) in
  let access i = (hosts.(i).Net.node_id, 0) in
  let edge_above i =
    match Net.neighbors net hosts.(i).Net.node_id with
    | (_, peer, _) :: _ -> peer
    | [] -> invalid_arg "chaos_schedule: host has no uplink"
  in
  let period = max 2 (span / 25) in
  Fault.flap f ~from_:(span / 10) ~until_:(span * 4 / 5) ~period
    ~down_for:(max 1 (period * 2 / 5)) (access 0);
  Fault.lossy f ~from_:0 ~until_:span ~drop:0.2 ~corrupt:0.05 (access 5);
  Fault.freeze f ~from_:(span / 5) ~until_:(span * 2 / 5) (edge_above 1);
  Fault.degrade f ~from_:(span / 3) ~until_:(span * 9 / 10) ~rate_factor:0.5
    ~extra_delay:(Time_ns.us 2) (access 9);
  Fault.attach f net;
  f

let fault_keys =
  [ "lost_down"; "dropped"; "corrupt_header"; "corrupt_fcs"; "frozen_arrivals"; "restarts" ]

(* ---- the harness -------------------------------------------------------- *)

(* Counters every fabric run harvests, summed over shards. [execs], [tpp_faults], [cycles]
   and [faults] are architectural; the compile hit/miss split and the pool counts
   legitimately vary with the shard layout. *)
type tally = {
  execs : int; tpp_faults : int; cycles : int;  (* TPP executions *)
  hits : int; misses : int;                      (* compile cache, per switch *)
  created : int; reused : int; outstanding : int;  (* traffic-pool frames *)
  faults : int list;  (* Fault.stats in [fault_keys] order; zeros if none *)
  fib_entries : int; switches : int;
}

let add_tally a b =
  { execs = a.execs + b.execs; tpp_faults = a.tpp_faults + b.tpp_faults;
    cycles = a.cycles + b.cycles; hits = a.hits + b.hits; misses = a.misses + b.misses;
    created = a.created + b.created; reused = a.reused + b.reused;
    outstanding = a.outstanding + b.outstanding; faults = List.map2 ( + ) a.faults b.faults;
    fib_entries = a.fib_entries + b.fib_entries; switches = a.switches + b.switches }

let tally ~owns net pools fault =
  let owned = List.filter (fun (id, _) -> owns id) (Net.switches net) in
  let sw f = List.fold_left (fun a (_, s) -> a + f (Switch.state s)) 0 owned in
  let pool f = Array.fold_left (fun a p -> a + f p) 0 pools in
  Switch_state.
    { execs = sw (fun st -> st.tpp_execs); tpp_faults = sw (fun st -> st.tpp_faults);
      cycles = sw (fun st -> st.tpp_cycles); hits = sw (fun st -> st.tpp_compile_hits);
      misses = sw (fun st -> st.tpp_compile_misses);
      created = pool Frame.Pool.created; reused = pool Frame.Pool.reused;
      outstanding = pool Frame.Pool.outstanding;
      faults =
        Option.fold (Option.map Fault.stats fault) ~none:(List.map (fun _ -> 0) fault_keys)
          ~some:(fun s -> Fault.[ s.lost_down; s.dropped; s.corrupt_header; s.corrupt_fcs;
                                 s.frozen_arrivals; s.restarts ]);
      fib_entries = List.fold_left (fun a (_, s) -> a + Switch.l3_size s) 0 owned;
      switches = List.length owned }

type 'a scenario = {
  build : Engine.t -> Net.t;
      (* the same topology on any engine: Parsim builds once per shard and once to partition *)
  traffic : owns:(int -> bool) -> Net.t -> unit -> 'a;
      (* schedules the owned hosts' workload (a fault schedule first, if any) and returns the
         harvest, which runs after the simulation on the same domain *)
  until : Time_ns.t;
  merge : 'a -> 'a -> 'a;  (* combines per-shard harvests *)
}

type 'a outcome = {
  events : int; delivered : int;
  wall : float;  (* sequential: Engine.run; sharded: the whole Parsim.run *)
  minor_pe : float; promoted_pe : float;  (* words allocated/promoted per event *)
  fp : (int * int list) list;  (* Net.fingerprint, ascending switch id *)
  harvest : 'a;
  par : Parsim.stats option;  (* [Some] for a sharded run *)
}

let build ?addressing ?fib cfg eng =
  (Topology.fat_tree eng ~wire_check:cfg.wire_check ~ecmp:true ?addressing ?fib ~k:cfg.k
     ~bps:10_000_000_000 ~delay:(Time_ns.us 1) ()).Topology.f_net

(* A fabric (the fat-tree unless [topo]) carrying [load], a fault schedule attached first. *)
let fabric cfg ?(topo = build cfg) ?fault load =
  { build = topo; until = horizon; merge = add_tally;
    traffic = (fun ~owns net ->
        let f = Option.map (fun mk -> mk net) fault in
        let pools = schedule_load cfg load ~owns net in
        fun () -> tally ~owns net pools f) }

let outcome ~events ~delivered ~wall (minor, promoted) fp harvest par =
  { events; delivered; wall; minor_pe = per_event minor events;
    promoted_pe = per_event promoted events; fp; harvest; par }

let run ?shards sc =
  match shards with
  | None ->
    let eng = Engine.create () in
    let net = sc.build eng in
    let harvest = sc.traffic ~owns:(fun _ -> true) net in
    let g0 = gc_mark () and t0 = Unix.gettimeofday () in
    Engine.run eng ~until:sc.until;
    let wall = Unix.gettimeofday () -. t0 and gc = gc_delta g0 in
    outcome ~events:(Engine.events_processed eng) ~delivered:(Net.frames_delivered net) ~wall
      gc (Net.fingerprint ~owns:(fun _ -> true) net) (harvest ()) None
  | Some shards ->
    let marks = Array.make shards (0.0, 0.0) and harvests = Array.make shards None in
    let t0 = Unix.gettimeofday () in
    let stats, parts =
      Parsim.run ~shards ~until:sc.until ~build:sc.build
        ~setup:(fun ~shard ~owns net ->
          harvests.(shard) <- Some (sc.traffic ~owns net);
          marks.(shard) <- gc_mark ())
        ~collect:(fun ~shard ~owns net ->
          let gc = gc_delta marks.(shard) in
          (gc, Net.fingerprint ~owns net, Option.get harvests.(shard) ()))
        ()
    in
    let wall = Unix.gettimeofday () -. t0 in
    let gcs, fps, hs = Array.fold_right (fun (g, f, h) (gs, fs, hs) -> (g :: gs, f @ fs, h :: hs))
        parts ([], [], []) in
    let sum f = List.fold_left (fun a g -> a +. f g) 0.0 gcs in
    outcome ~events:stats.Parsim.events ~delivered:stats.Parsim.delivered ~wall
      (sum fst, sum snd) (List.sort (fun (a, _) (b, _) -> compare a b) fps)
      (List.fold_left sc.merge (List.hd hs) (List.tl hs)) (Some stats)

(* Best of two runs, so a scheduler hiccup on a short run can neither fake nor hide a
   regression; the runs are deterministic, so either one's counts serve. *)
let best_of_two f = let a = f () in let b = f () in if b.wall < a.wall then b else a

(* Bit-identity of two fabric runs: event and delivery counts, every switch register, and
   the architectural TPP and fault counters. *)
let same tag label (a : tally outcome) (b : tally outcome) =
  if a.events <> b.events || a.delivered <> b.delivered then
    fail tag "%s diverged (%d vs %d events, %d vs %d delivered)" label a.events b.events
      a.delivered b.delivered;
  if a.fp <> b.fp then fail tag "%s: switch register fingerprints differ" label;
  let arch t = (t.execs, t.tpp_faults, t.cycles) in
  if arch a.harvest <> arch b.harvest then
    fail tag "%s: TPP exec/fault/cycle counts differ" label;
  if a.harvest.faults <> b.harvest.faults then
    fail tag "%s: fault counts differ ([%s] vs [%s])" label
      (String.concat ";" (List.map string_of_int a.harvest.faults))
      (String.concat ";" (List.map string_of_int b.harvest.faults))

let print_row tag name r =
  say tag "fabric %-9s %d events, %d delivered in %.3fs (%.3e ev/s, %.2f minor w/ev)" name
    r.events r.delivered r.wall (rate r.events r.wall) r.minor_pe

(* Runs [sc] sharded and checks it against the sequential [seq]. *)
let sharded tag ~shards what sc seq =
  let par = run ~shards sc in
  same tag (Printf.sprintf "%d-shard %s" shards what) seq par;
  par

(* Sequential (best of two when [best]) and sharded runs of [load] on [cfg]'s fat-tree:
   bit-identical, and every traffic-pool and boundary frame back in its pool at the end. *)
let seq_vs_sharded ?(best = false) tag ~shards cfg load =
  let sc = fabric cfg load in
  let seq = if best then best_of_two (fun () -> run sc) else run sc in
  let par = sharded tag ~shards (Printf.sprintf "k=%d run" cfg.k) sc seq in
  let st = Option.get par.par in
  if par.harvest.outstanding <> 0 || st.Parsim.boundary_outstanding <> 0 then
    fail tag "k=%d: %d traffic-pool and %d boundary frames never returned to their pools" cfg.k
      par.harvest.outstanding st.Parsim.boundary_outstanding;
  (seq, par, st)

(* One run's keys as the BENCH files name them, minus [drop]. *)
let run_keys ?(drop = []) r =
  List.filter (fun (k, _) -> not (List.mem k drop))
    [ ("events", int r.events); ("packets_delivered", int r.delivered); ("wall_s", fixed 6 r.wall);
      ("events_per_sec", fixed 1 (rate r.events r.wall));
      ("minor_words_per_event", fixed 3 r.minor_pe);
      ("promoted_words_per_event", fixed 4 r.promoted_pe) ]

let pool_json t =
  Obj [ ("created", int t.created); ("reused", int t.reused); ("outstanding", int t.outstanding) ]

(* A gate's preamble: smoke sizing (unless [sized]), its tag, and the workload line. *)
let start ?(sized = smoke_size) ?(suffix = "") cfg name load =
  let cfg = sized cfg in
  let tag = tag_of cfg name and workload = workload_of cfg load ^ suffix in
  say tag "%s" workload;
  (cfg, tag, workload)

(* ---- BENCH_1: the sequential packet-rate run ------------------------ *)

let rate_bench cfg =
  let sent = hosts cfg * cfg.packets_per_host in
  let tag = "perf" and workload = workload_of cfg tagged in
  say tag "%s" workload;
  let r = run (fabric cfg tagged) in
  say tag "%d events, %d/%d packets delivered in %.3fs wall" r.events r.delivered sent r.wall;
  say tag "%.3e events/sec, %.3e packets/sec" (rate r.events r.wall) (rate r.delivered r.wall);
  say tag "%.2f minor words/event, %.4f promoted words/event" r.minor_pe r.promoted_pe;
  (* A sequential run: the boundary keys are BENCH_2's, zero here. *)
  write_json (out_path cfg 1)
    (Obj (header ~bench:1 ~workload
          @ [ ("shards", int 0); ("packets_sent", int sent); ("rounds", int 0);
              ("boundary_messages", int 0); ("cut_links", int 0); ("lookahead_ns", int 0);
              ("packets_per_sec", fixed 1 (rate r.delivered r.wall)) ]
          @ run_keys r))

(* ---- --smoke: sequential vs sharded bit-identity --------------------

   A fast cross-check for CI: the sequential engine and an N-shard run
   of a small fabric must agree on every count and every switch
   register. Honors --shards (default 2) so CI can probe the wider merge
   paths cheaply. Bit-identity only — never speed: the speedup gate
   lives in the full --shards bench, behind a core-count probe. *)

let smoke cfg =
  let shards = if cfg.shards > 0 then cfg.shards else 2 in
  let cfg = { cfg with k = 4; packets_per_host = 200 } in
  let tag = "perf(smoke)" in
  say tag "%s, %d shards" (workload_of cfg tagged) shards;
  let s, p, st = seq_vs_sharded tag ~shards cfg tagged in
  say tag
    "sequential %d events / %d delivered (%.3fs), %d-shard %d events / %d delivered (%.3fs, %d \
     rounds, %d boundary frames in %d chunks)"
    s.events s.delivered s.wall shards p.events p.delivered p.wall st.Parsim.rounds
    st.Parsim.messages st.Parsim.chunks;
  say tag "OK — %d-shard run bit-identical to sequential (registers included), boundary pools \
           drained" shards

(* ---- BENCH_3: the TCPU compilation gate -------------------------------

   The heavy workload under the interpreter, the compiled backend, and a
   sharded compiled run. Every architectural observable — events,
   deliveries, faults, execs, cycles, switch registers, SRAM — must be
   bit-identical; the >= 2x instruction-throughput target is reported
   (and written to the JSON) but only warned about. *)

let tpp_heavy cfg =
  let sized cfg = if cfg.smoke then { cfg with k = 4; packets_per_host = 150 } else cfg in
  let cfg, tag, workload = start ~sized cfg "tpp-heavy" heavy in
  let sc = fabric cfg heavy in
  let backend b = Tcpu_compile.clear_cache (); Tcpu.set_default_backend b; run sc in
  let interp = backend Tcpu.Interpreter in
  let comp = backend Tcpu.Compiled in
  let cache = Tcpu_compile.cache_stats () in
  same tag "compiled vs interpreter" interp comp;
  let shards = gate_shards cfg in
  let par = sharded tag ~shards "compiled vs interpreter" sc interp in
  let t = comp.harvest in
  (* Instructions executed: every exec costs 4 fill cycles plus one cycle
     per instruction, so the count falls out of the ASIC's own counters. *)
  let n = t.cycles - (4 * t.execs) and speedup = interp.wall /. comp.wall in
  say tag "%d events, %d delivered, %d TPP execs (%d faulted), %d instructions" comp.events
    comp.delivered t.execs t.tpp_faults n;
  say tag "interpreter %.3fs (%.3e instrs/sec)" interp.wall (rate n interp.wall);
  say tag "compiled    %.3fs (%.3e instrs/sec)  speedup %.2fx" comp.wall (rate n comp.wall) speedup;
  say tag "%d-shard compiled %.3fs — identical registers" shards par.wall;
  say tag "cache %d program(s), %d hits / %d misses; per-switch linked hits %d / misses %d"
    cache.Tcpu_compile.programs cache.Tcpu_compile.hits cache.Tcpu_compile.misses t.hits t.misses;
  say tag "OK — compiled backend matches the interpreter bit-for-bit";
  if not cfg.smoke then begin
    write_json (out_path cfg 3)
      (Obj (header ~bench:3 ~workload @ run_keys ~drop:[ "wall_s"; "events_per_sec" ] comp
            @ [ ("packets_sent", int (hosts cfg * cfg.packets_per_host));
                ("tpp_execs", int t.execs); ("tpp_faults", int t.tpp_faults); ("tpp_instrs", int n);
                ("interpreter_wall_s", fixed 6 interp.wall);
                ("interpreter_instrs_per_sec", fixed 1 (rate n interp.wall));
                ("compiled_wall_s", fixed 6 comp.wall);
                ("compiled_instrs_per_sec", fixed 1 (rate n comp.wall));
                ("speedup", fixed 3 speedup); ("identical_to_interpreter", bool true);
                ("sharded", sharded_json ~shards par.wall);
                ("cache", Tcpu_compile.(Obj [ ("programs", int cache.programs);
                                              ("hits", int cache.hits);
                                              ("misses", int cache.misses) ])) ]));
    if speedup < 2.0 then
      say tag "WARNING — speedup %.2fx below the 2x target on this machine" speedup
  end

(* ---- BENCH_4: the fault-injection gate ------------------------------

   Two properties the Fault subsystem must never lose:

   1. Zero cost when unattached. The dataplane consults the fault hooks
      only when a schedule is installed, and an installed-but-empty
      schedule must not change a single count (and must cost next to
      nothing in wall time).

   2. Determinism under sharding. The chaotic schedule must yield bit-identical counts and
      registers whether the run is sequential or sharded. *)

let chaos_bench cfg =
  let cfg, tag, workload = start cfg "chaos" tagged in
  let base = best_of_two (fun () -> run (fabric cfg tagged)) in
  let empty_schedule net = Fault.(let f = create ~seed:1 in attach f net; f) in
  let empty = best_of_two (fun () -> run (fabric cfg ~fault:empty_schedule tagged)) in
  same tag "empty fault schedule" base empty;
  let overhead = empty.wall /. base.wall in
  say tag "baseline %.3fs, empty schedule attached %.3fs (%.2fx)" base.wall empty.wall overhead;
  if overhead > 1.5 then fail tag "empty fault schedule costs %.2fx (budget 1.5x)" overhead;
  let sc = fabric cfg ~fault:(chaos_schedule cfg) tagged in
  let chaotic = run sc in
  let faults = chaotic.harvest.faults in
  say tag "chaotic run %d events, %d delivered in %.3fs" chaotic.events chaotic.delivered
    chaotic.wall;
  say tag "%s" (String.concat " " (List.map2 (Printf.sprintf "%s=%d") fault_keys faults));
  (match faults with
  | [ down; drop; hdr; fcs; frozen; restarts ] ->
    if down = 0 || drop = 0 || hdr + fcs = 0 || frozen = 0 || restarts <> 1 then
      fail tag "some fault class never fired"
  | _ -> assert false);
  let shards = gate_shards cfg in
  let par = sharded tag ~shards "chaotic run" sc chaotic in
  say tag "OK — empty schedule free, %d-shard chaos identical to sequential (%.3fs)" shards
    par.wall;
  if not cfg.smoke then
    write_json (out_path cfg 4)
      (Obj (header ~bench:4 ~workload
            @ [ ("baseline_wall_s", fixed 6 base.wall);
                ("empty_schedule_wall_s", fixed 6 empty.wall);
                ("empty_schedule_overhead", fixed 4 overhead); ("chaos_events", int chaotic.events);
                ("chaos_delivered", int chaotic.delivered); ("chaos_wall_s", fixed 6 chaotic.wall);
                ("chaos_events_per_sec", fixed 1 (rate chaotic.events chaotic.wall)) ]
            @ run_keys ~drop:[ "events"; "packets_delivered"; "wall_s"; "events_per_sec" ] chaotic
            @ [ ("faults", Obj (List.map2 (fun k v -> (k, int v)) fault_keys faults));
                ("sharded", sharded_json ~shards par.wall) ]))

(* ---- BENCH_5: the event-core gate ------------------------------------

   1. A scheduler microbench — 64 self-rescheduling typed dequeue events, each with its own
      stride, so the wheel always holds 64 pending events at mixed horizons. No network, no
      frames: pure event-core cost, which must stay under 0.5 minor words per event.
   2. The full fabric with plain (untagged) UDP traffic, so the event core rather than the
      TCPU dominates: throughput and allocation.
   3. The chaotic schedule of BENCH_4, sequential vs sharded: identical.

   The wheel's ordering contract is checked against the binary heap by the QCheck
   properties in test/test_util.ml. *)

let engine_core ~events =
  let eng = Engine.create () in
  let budget = ref events in
  let stride node = 1 + ((node * 7919) land 0xFFFF) in
  let rec h =
    { Engine.on_deliver = (fun ~node:_ ~port:_ _ -> ());
      on_restart = (fun ~node:_ -> ());
      on_dequeue = (fun ~node ~port ->
          if !budget > 0 then begin
            decr budget;
            Engine.dequeue_at eng (Engine.now eng + stride node) h ~node ~port
          end) }
  in
  for node = 0 to 63 do Engine.dequeue_at eng (stride node) h ~node ~port:0 done;
  let g0 = gc_mark () and t0 = Unix.gettimeofday () in
  Engine.run eng ~until:max_int;
  let wall = Unix.gettimeofday () -. t0 and minor, promoted = gc_delta g0 in
  let processed = Engine.events_processed eng in
  (processed, wall, per_event minor processed, per_event promoted processed)

let engine_bench cfg =
  let cfg, tag, workload = start cfg "engine" plain in
  let core_events = if cfg.smoke then 200_000 else 2_000_000 in
  let c_ev, c_wall, c_minor, c_prom = engine_core ~events:core_events in
  say tag "core typed+wheel %d events in %.3fs (%.3e ev/s, %.2f minor w/ev, %.4f promoted w/ev)"
    c_ev c_wall (rate c_ev c_wall) c_minor c_prom;
  if c_minor > 0.5 then
    fail tag "typed/wheel core allocates %.2f minor words/event (budget 0.5)" c_minor;
  let tw = best_of_two (fun () -> run (fabric cfg plain)) in
  print_row tag "typed+wheel" tw;
  let sc = fabric cfg ~fault:(chaos_schedule cfg) tagged in
  let shards = gate_shards cfg in
  let par = sharded tag ~shards "chaotic run" sc (run sc) in
  say tag "OK — typed event core allocation-free, chaotic run %d-shard identical to sequential"
    shards;
  if not cfg.smoke then
    write_json (out_path cfg 5)
      (Obj (header ~bench:5 ~workload @ run_keys tw
            @ [ ("core",
                 Obj [ ("events", int core_events);
                       ("typed_wheel",
                        Obj [ ("processed", int c_ev); ("wall_s", fixed 6 c_wall);
                              ("events_per_sec", fixed 1 (rate c_ev c_wall));
                              ("minor_words_per_event", fixed 3 c_minor);
                              ("promoted_words_per_event", fixed 4 c_prom) ]) ]);
                ("sharded_chaos", sharded_json ~shards par.wall); ("identical", bool true) ]))

(* ---- BENCH_6: the zero-copy frame gate -------------------------------

   Pooled flat frames must be (a) allocation-light — the whole simulator,
   not just the event core, inside a minor-words/event budget on the
   plain-traffic workload — and (b) observably identical to the
   unpooled path. The unpooled run allocates a fresh frame per send,
   the lifecycle the record-frame representation had (and the QCheck
   differential suite pins the flat codecs to the record codecs
   byte-for-byte), so it is the oracle: events, deliveries and every
   switch register must match on the plain run, under the BENCH_4
   chaos schedule, and on a sharded run.

   Budgets, in minor words/event. Per-event allocation can ramp with simulated time as
   port queues fill — once departures overlap (path latency ~8us vs the 6us per-host gap)
   frames take the queued dequeue paths — so the full run (k=8, 1500 packets/host; exact
   count 2.7 w/ev) gets the looser budget, and the smoke run (k=4, 200 packets/host; 2.9
   w/ev), which ends before the queues fill, the tighter one. *)

let frames_minor_budget = 10.0
let frames_smoke_minor_budget = 6.0

let frames_bench cfg =
  let cfg, tag, workload = start cfg "frames" plain in
  let oracle = best_of_two (fun () -> run (fabric cfg plain)) in
  let pool_sc = fabric cfg pooled in
  let pld = best_of_two (fun () -> run pool_sc) in
  same tag "pooled plain run" oracle pld;
  print_row tag "unpooled" oracle;
  print_row tag "pooled" pld;
  let p = pld.harvest in
  say tag "pool %d created / %d reused, %d outstanding at end" p.created p.reused p.outstanding;
  let budget = if cfg.smoke then frames_smoke_minor_budget else frames_minor_budget in
  if pld.minor_pe > budget then
    fail tag "pooled run allocates %.2f minor words/event (budget %.1f)" pld.minor_pe budget;
  let chaos load = run (fabric cfg ~fault:(chaos_schedule cfg) load) in
  let chaos_oracle = chaos plain in
  let chaos_pooled = chaos pooled in
  same tag "pooled chaotic run" chaos_oracle chaos_pooled;
  say tag "chaos %d events, %d delivered — pooled identical to unpooled" chaos_pooled.events
    chaos_pooled.delivered;
  (* Cross-shard recycles are no-ops by the pool's domain-ownership rule,
     so the sharded pooled run must still reproduce the oracle. *)
  let shards = gate_shards cfg in
  let par = sharded tag ~shards "pooled run" pool_sc oracle in
  let speedup = oracle.wall /. pld.wall in
  say tag "%d-shard pooled run identical to sequential (%.3fs, %d rounds, %.2f minor w/ev)" shards
    par.wall (Option.get par.par).Parsim.rounds par.minor_pe;
  say tag "pooled speedup over unpooled: %.2fx" speedup;
  say tag "OK — pooled flat frames bit-identical to the unpooled oracle (plain, chaos, %d-shard)"
    shards;
  if not cfg.smoke then begin
    write_json (out_path cfg 6)
      (Obj (header ~bench:6 ~workload @ run_keys pld
            @ [ ("speedup_vs_unpooled", fixed 3 speedup); ("pool", pool_json p);
                ("oracle",
                 Obj (("frames", Str "unpooled")
                      :: run_keys ~drop:[ "packets_delivered"; "promoted_words_per_event" ]
                           oracle));
                ("chaos", Obj [ ("identical", bool true) ]);
                ("sharded", sharded_json ~shards par.wall
                              ~extra:[ ("speedup_vs_sequential", fixed 3 (pld.wall /. par.wall)) ]);
                ("sharded_minor_words_per_event", fixed 3 par.minor_pe);
                ("identical", bool true) ]));
    let eps = rate pld.events pld.wall in
    if eps < 2.4e6 then
      say tag "WARNING — %.3e events/sec below the 2.4e6 target on this machine" eps
  end

(* ---- BENCH_2: the multicore gate --------------------------------------

   The flat-boundary parallel engine measured against the sequential
   engine on the BENCH_6 pooled-frame workload. Three hard gates and one
   conditional:

   1. Bit identity: events, deliveries and every switch register must
      match the sequential run exactly.
   2. Allocation: sharded minor words/event <= 2x sequential — the
      boundary path (chunk blits, in-place inbox merge, receiver-side
      pool materialization) must not reintroduce per-message garbage.
   3. Pool conservation: every traffic-pool frame and every boundary
      frame is back in its pool at the horizon (outstanding = 0) — the
      cross-domain leak stays fixed.
   4. Speedup (conditional): >= 2x events/sec over sequential at 4+
      shards, asserted only when the machine has >= 4 cores; otherwise
      skipped loudly, with the provenance recorded in BENCH_2.json.

   A k=16 row (reduced packet count) rides along to show the bigger-fabric trajectory, its
   identity and pools checked too — a bigger fabric that silently diverged would be worse
   than no row. *)

let speedup_gate_min_cores = 4
let speedup_target = 2.0

let shards_bench cfg =
  let shards = cfg.shards and cores = Domain.recommended_domain_count () in
  let tag = "perf(shards)" in
  let workload = workload_of cfg pooled in
  say tag "%s — %d shards on %d core(s)" workload shards cores;
  let seq, par, st = seq_vs_sharded ~best:true tag ~shards cfg pooled in
  let p = par.harvest in
  say tag "sequential %d events in %.3fs (%.3e ev/s, %.2f minor w/ev)" seq.events seq.wall
    (rate seq.events seq.wall) seq.minor_pe;
  say tag "%d-shard   %d events in %.3fs (%.3e ev/s, %.2f minor w/ev)" shards par.events par.wall
    (rate par.events par.wall) par.minor_pe;
  say tag "%d rounds, %d boundary frames in %d chunks over %d cut links, lookahead %dns"
    st.Parsim.rounds st.Parsim.messages st.Parsim.chunks st.Parsim.cut_links st.Parsim.lookahead;
  say tag "pool %d created / %d reused, %d outstanding, %d boundary outstanding" p.created p.reused
    p.outstanding st.Parsim.boundary_outstanding;
  if par.minor_pe > 2.0 *. seq.minor_pe then
    fail tag "sharded run allocates %.2f minor words/event, over 2x the sequential %.2f"
      par.minor_pe seq.minor_pe;
  let speedup = seq.wall /. par.wall in
  say tag "speedup over sequential: %.2fx" speedup;
  (* A 1-2 core machine cannot speed anything up, so asserting there
     would only test the scheduler's mercy. The skip is loud and lands
     in the JSON. *)
  let gate_enforced = cores >= speedup_gate_min_cores && shards >= 4 in
  let gate_reason =
    if gate_enforced then
      Printf.sprintf "checked: %d cores >= %d, %d shards" cores speedup_gate_min_cores shards
    else if cores < speedup_gate_min_cores then
      Printf.sprintf "skipped: only %d core(s) < %d" cores speedup_gate_min_cores
    else Printf.sprintf "skipped: only %d shard(s) < 4" shards
  in
  if gate_enforced then begin
    if speedup < speedup_target then
      fail tag "speedup %.2fx below the %.1fx target (%d shards, %d cores)" speedup speedup_target
        shards cores;
    say tag "speedup gate passed (%.2fx >= %.1fx)" speedup speedup_target
  end
  else say tag "SKIPPED speedup gate — %s (recorded in BENCH_2.json)" gate_reason;
  let k16_cfg = { cfg with k = 16; packets_per_host = min cfg.packets_per_host 50 } in
  let k16_workload = workload_of k16_cfg pooled in
  say tag "k=16 row — %s" k16_workload;
  let k16_seq, k16_par, k16_st = seq_vs_sharded tag ~shards k16_cfg pooled in
  let k16_speedup = k16_seq.wall /. k16_par.wall in
  say tag "k=16 sequential %.3fs, %d-shard %.3fs (%.2fx, %d rounds) — identical" k16_seq.wall
    shards k16_par.wall k16_speedup k16_st.Parsim.rounds;
  say tag "OK — %d-shard runs bit-identical to sequential, pools drained" shards;
  write_json (out_path cfg 2)
    (Obj (header ~bench:2 ~workload @ run_keys ~drop:[ "promoted_words_per_event" ] par
          @ [ ("shards", int st.Parsim.shards); ("rounds", int st.Parsim.rounds);
              ("boundary_messages", int st.Parsim.messages);
              ("boundary_chunks", int st.Parsim.chunks); ("cut_links", int st.Parsim.cut_links);
              ("lookahead_ns", int st.Parsim.lookahead);
              ("sharded_minor_words_per_event", fixed 3 par.minor_pe);
              ("speedup_vs_sequential", fixed 3 speedup);
              ("sequential",
               Obj (run_keys ~drop:[ "events"; "packets_delivered"; "promoted_words_per_event" ]
                      seq));
              ("pool", pool_json p); ("boundary_outstanding", int st.Parsim.boundary_outstanding);
              ("speedup_gate",
               Obj [ ("target", fixed 1 speedup_target); ("enforced", bool gate_enforced);
                     ("reason", Str gate_reason) ]);
              ("k16", Obj ((("workload", Str k16_workload)
                            :: run_keys ~drop:[ "packets_delivered"; "minor_words_per_event";
                                                "promoted_words_per_event" ] k16_par)
                           @ [ ("sequential_wall_s", fixed 6 k16_seq.wall);
                               ("speedup_vs_sequential", fixed 3 k16_speedup);
                               ("identical", bool true) ]));
              ("identical", bool true) ]))

(* ---- BENCH_7: the streaming-telemetry gate ---------------------------

   Four properties lib/telemetry must hold, each checked against an
   exact oracle or a bit-identity witness:

   1. Ingest throughput. The emit -> chunk -> drain -> collector
      pipeline must sustain >= 1e6 postcards/sec (hard gate) while
      recirculating its fixed chunk pool — no drops, no growth.

   2. Bounded memory. The sink never holds more than
      max_chunks * chunk_bytes even when the producer outruns the
      collector: overflow cannibalises the oldest chunk, and the
      accounting stays exact (drained = emitted - dropped).

   3. Sketch error bounds. CMS point queries never underestimate and
      stay within epsilon * total of an exact hashtable oracle; a
      4-way-split merged CMS is bit-identical to the single-stream
      sketch (merge is elementwise sum). t-digest quantiles stay
      inside the k1 cluster-width rank bound of the exact sorted
      oracle — 2x for a merged digest, whose clusters may coarsen
      once — and the centroid count stays under its cap.

   4. Fabric identity. The plain-traffic fabric with binary switch taps
      and a periodically absorbing collector, run sequentially and
      sharded, must agree on total cards and on the collector's
      order-independent fingerprint bit-for-bit. *)

(* Ingest microbench: synthetic hop cards through a default sink into a
   collector that drains every ~8k cards, i.e. always keeps up. The max
   byte footprint observed across rotations is the bounded-memory
   witness on the fast path. *)
let telemetry_cards_per_chunk = 1024
let telemetry_max_chunks = 64

let telemetry_ingest ~cards =
  let sink =
    Telemetry_sink.create ~cards_per_chunk:telemetry_cards_per_chunk
      ~max_chunks:telemetry_max_chunks ()
  in
  let col = Collector.create () in
  let max_bytes = ref 0 in
  let g0 = gc_mark () and t0 = Unix.gettimeofday () in
  for i = 0 to cards - 1 do
    Telemetry_sink.emit_hop sink ~now:(i * 50) ~switch_id:(i land 63) ~in_port:(i land 3)
      ~out_port:((i lsr 2) land 3) ~queue_bytes:(i land 0xFFFF) ~version:1 ~frame_id:i
      ~flow_hash:(i land 1023) ~wire_bytes:1000 ~entry:1;
    if i land 0x1FFF = 0x1FFF then begin
      max_bytes := max !max_bytes (Telemetry_sink.card_bytes_alive sink);
      Collector.absorb col sink
    end
  done;
  Collector.absorb col sink;
  let wall = Unix.gettimeofday () -. t0 and minor, _ = gc_delta g0 in
  (col, sink, wall, minor /. float_of_int cards, !max_bytes)

let telemetry_quantiles = [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999 ]

(* k1-scale cluster width in q-space at q: a merging digest's cluster
   spans at most dq where k(q+dq) - k(q) = 1, and k'(q) =
   delta / (2 pi sqrt (q (1-q))), so dq <= 2 pi sqrt (q (1-q)) / delta.
   Interpolation across one cluster cannot miss the true rank by more
   than that (plus the 1/n discretisation of the oracle itself). *)
let td_delta = 100.0

let td_rank_bound ~n q =
  (2.0 *. Float.pi /. td_delta *. sqrt (q *. (1.0 -. q))) +. (1.0 /. float_of_int n)

(* Sketches vs exact oracles: gates, prints, and returns the JSON. *)
let telemetry_sketches ~tag ~samples =
  let rng = Rng.create ~seed:chaos_seed in
  (* Count-min vs an exact hashtable. min-of-two-uniforms skews the
     key distribution so the stream has genuine heavy hitters. *)
  let keys = 4096 in
  let cms = Sketch.Cms.create () and shard_cms = Array.init 4 (fun _ -> Sketch.Cms.create ()) in
  let exact = Hashtbl.create keys in
  for i = 0 to samples - 1 do
    let key = min (Rng.int rng keys) (Rng.int rng keys) in
    let w = 64 + Rng.int rng 1400 in
    Sketch.Cms.add cms ~key w;
    Sketch.Cms.add shard_cms.(i land 3) ~key w;
    Hashtbl.replace exact key (w + Option.value ~default:0 (Hashtbl.find_opt exact key))
  done;
  let total = Sketch.Cms.total cms in
  let bound = int_of_float (Float.ceil (Sketch.Cms.epsilon cms *. float_of_int total)) in
  let max_over = ref 0 and under = ref 0 and viol = ref 0 in
  Hashtbl.iter
    (fun key exact_v ->
      let over = Sketch.Cms.estimate cms ~key - exact_v in
      if over < 0 then incr under;
      if over > bound then incr viol;
      max_over := max !max_over over)
    exact;
  let merged = Sketch.Cms.create () in
  Array.iter (fun s -> Sketch.Cms.merge ~into:merged s) shard_cms;
  let merged_equal = Sketch.Cms.equal cms merged in
  (* The heaviest exact key must surface through the candidate API:
     estimates never underestimate, so threshold = its exact count. *)
  let top_key, top_count =
    Hashtbl.fold (fun k v ((_, bv) as best) -> if v > bv then (k, v) else best) exact (-1, min_int)
  in
  let hh = Sketch.Cms.heavy_hitters cms ~candidates:(List.init keys Fun.id) ~threshold:top_count in
  if not (List.mem_assoc top_key hh) then
    fail tag "exact-heaviest key %d missing from heavy_hitters" top_key;
  say tag "cms %d samples, max overestimate %d (bound %d), %d underestimates, merged shards %s"
    samples !max_over bound !under (if merged_equal then "identical" else "DIVERGED");
  if !under > 0 || !viol > 0 || not merged_equal then
    fail tag "cms outside its bound (%d underestimates, %d violations, merged_equal=%b)" !under
      !viol merged_equal;
  (* t-digest vs the exact sorted sample. Rank error: where the
     digest's answer really falls in the data, against the q asked. *)
  let td = Sketch.Tdigest.create ~delta:td_delta () in
  let shard_td = Array.init 4 (fun _ -> Sketch.Tdigest.create ~delta:td_delta ()) in
  let vals = Array.init samples (fun _ -> Rng.exponential rng ~mean:250.0) in
  Array.iteri (fun i v -> Sketch.Tdigest.add td v; Sketch.Tdigest.add shard_td.(i land 3) v) vals;
  let at_most v = Array.fold_left (fun c x -> if x <= v then c + 1 else c) 0 vals in
  let rank_of v = float_of_int (at_most v) /. float_of_int samples in
  let merged_td = Sketch.Tdigest.create ~delta:td_delta () in
  Array.iter (fun s -> Sketch.Tdigest.merge ~into:merged_td s) shard_td;
  (* Max rank error over the probed quantiles, and its ratio to the
     per-quantile bound (2x the bound for the merged digest). *)
  let worst digest slack =
    List.fold_left
      (fun (e, r) q ->
        let err = Float.abs (rank_of (Sketch.Tdigest.quantile digest q) -. q) in
        (Float.max e err, Float.max r (err /. (slack *. td_rank_bound ~n:samples q))))
      (0.0, 0.0) telemetry_quantiles
  in
  let max_err, max_ratio = worst td 1.0 and m_max_err, m_max_ratio = worst merged_td 2.0 in
  let centroids = Sketch.Tdigest.centroids td in
  say tag "t-digest %d centroids, max rank error %.5f (%.2f of bound), merged %.5f (%.2f of 2x \
           bound)" centroids max_err max_ratio m_max_err m_max_ratio;
  if max_ratio > 1.0 || m_max_ratio > 1.0 || centroids > int_of_float (2.0 *. td_delta) + 8 then
    fail tag "t-digest outside the k1 rank bound (or over its centroid cap: %d)" centroids;
  Obj [ ("samples", int samples);
        ("cms", Obj [ ("total", int total); ("bound", int bound);
                      ("max_overestimate", int !max_over); ("underestimates", int !under);
                      ("violations", int !viol); ("merged_identical", bool merged_equal) ]);
        ("tdigest", Obj [ ("delta", fixed 0 td_delta); ("centroids", int centroids);
                          ("max_rank_error", fixed 5 max_err);
                          ("max_error_over_bound", fixed 3 max_ratio);
                          ("merged_max_rank_error", fixed 5 m_max_err) ]) ]

(* The tapped fabric: plain traffic with a binary tap on every switch,
   the collector absorbing every 50us of simulated time — a real
   control-loop cadence, and frequent enough that the default sink never
   drops. The horizon hugs the traffic span so the absorb ticks stop
   when the fabric does. Each shard taps every switch of its own
   topology copy, but only owned switches ever process frames (boundary
   frames are shipped to their owning shard), so each hop cards exactly
   once fabric-wide and merging the shard collectors reproduces the
   sequential stream. *)
let telemetry_absorb_period = Time_ns.us 50

let telemetry_fabric cfg =
  let until = (cfg.packets_per_host * cfg.gap_ns) + Time_ns.ms 10 in
  { build = build cfg; until;
    merge = (fun (a, drops_a) (b, drops_b) -> Collector.merge ~into:a b; (a, drops_a + drops_b));
    traffic = (fun ~owns net ->
        let sink = Telemetry_sink.create () and col = Collector.create () in
        Telemetry_emit.tap_switches sink net;
        ignore (schedule_load cfg plain ~owns net);
        Engine.every (Net.engine net) ~period:telemetry_absorb_period ~until (fun () ->
            Collector.absorb col sink);
        fun () -> Collector.absorb col sink; (col, Telemetry_sink.dropped sink)) }

let telemetry_bench cfg =
  let suffix = ", binary tap on every switch, 50us collector windows" in
  let cfg, tag, workload = start ~suffix cfg "telemetry" plain in
  (* 1. Ingest throughput, best of two so a hiccup cannot fake a miss. *)
  let cards = if cfg.smoke then 1_000_000 else 8_000_000 in
  let icol, isink, iwall, iminor, imax_bytes =
    let ((_, _, wa, _, _) as a) = telemetry_ingest ~cards in
    let ((_, _, wb, _, _) as b) = telemetry_ingest ~cards in
    if wb < wa then b else a
  in
  let sink_cap = telemetry_max_chunks * telemetry_cards_per_chunk * Telemetry_wire.bytes_per_card in
  let ingest_rate = rate cards iwall in
  say tag "ingest %d cards in %.3fs (%.3e cards/s, %.3f minor w/card, sink <= %d bytes)" cards iwall
    ingest_rate iminor imax_bytes;
  if Collector.cards icol <> cards || Telemetry_sink.dropped isink <> 0 then
    fail tag "ingest lost cards (%d collected of %d, %d dropped)" (Collector.cards icol) cards
      (Telemetry_sink.dropped isink);
  if imax_bytes > sink_cap then
    fail tag "sink footprint %d bytes exceeds its %d-byte cap" imax_bytes sink_cap;
  if ingest_rate < 1e6 then fail tag "%.3e cards/sec below the 1e6 sustained target" ingest_rate;
  (* 2. Bounded memory under overload: a small sink fed 10x its capacity with no drain at
     all must stay at its cap, and every offered card be either drained or counted dropped. *)
  let cards_per_chunk = 256 and max_chunks = 8 in
  let sink = Telemetry_sink.create ~cards_per_chunk ~max_chunks () in
  let cap = max_chunks * cards_per_chunk * Telemetry_wire.bytes_per_card in
  let offered = 10 * max_chunks * cards_per_chunk in
  for i = 0 to offered - 1 do
    Telemetry_sink.emit_hop sink ~now:i ~switch_id:0 ~in_port:0 ~out_port:0 ~queue_bytes:0
      ~version:1 ~frame_id:i ~flow_hash:0 ~wire_bytes:64 ~entry:0
  done;
  let held = Telemetry_sink.card_bytes_alive sink and drained = ref 0 in
  Telemetry_sink.drain sink (fun _ ~off:_ -> incr drained);
  let dropped = Telemetry_sink.dropped sink and drained = !drained in
  say tag "overload %d offered into an 8-chunk sink: %d drained + %d dropped, %d bytes held \
           (cap %d)" offered drained dropped held cap;
  if held > cap || dropped = 0 || drained + dropped <> offered then
    fail tag "overloaded sink broke its bound or its accounting";
  (* 3. Sketches vs exact oracles. *)
  let sketch = telemetry_sketches ~tag ~samples:(if cfg.smoke then 50_000 else 200_000) in
  (* 4. Fabric: sequential vs sharded collector identity. *)
  let sc = telemetry_fabric cfg in
  let fab = run sc in
  let col, fab_dropped = fab.harvest in
  let fab_cards = Collector.cards col and fingerprint = Collector.fingerprint col in
  say tag "fabric %d events, %d cards (%d dropped), %d delivered in %.3fs (%.3e cards/s)" fab.events
    fab_cards fab_dropped fab.delivered fab.wall (rate fab_cards fab.wall);
  if fab_dropped <> 0 then
    fail tag "fabric run dropped %d cards (collector fell behind)" fab_dropped;
  let shards = gate_shards cfg in
  let par = run ~shards sc in
  let par_col, par_dropped = par.harvest in
  let par_cards = Collector.cards par_col and par_fp = Collector.fingerprint par_col in
  if par_dropped <> 0 || par_cards <> fab_cards || par.delivered <> fab.delivered
     || par_fp <> fingerprint
  then
    fail tag "%d-shard telemetry diverged from sequential: cards %d vs %d (%d dropped), \
              delivered %d vs %d, fingerprint %d vs %d" shards par_cards fab_cards par_dropped
      par.delivered fab.delivered par_fp fingerprint;
  say tag "%d-shard fabric %.3fs — merged collector identical to sequential (fingerprint %d)"
    shards par.wall fingerprint;
  say tag "OK — 1e6+ cards/s sustained, memory bounded, sketches inside their bounds, %d-shard \
           identical" shards;
  if not cfg.smoke then
    write_json (out_path cfg 7)
      (Obj (header ~bench:7 ~workload
            @ [ ("ingest",
                 Obj [ ("cards", int cards); ("wall_s", fixed 6 iwall);
                       ("cards_per_sec", fixed 1 ingest_rate);
                       ("minor_words_per_card", fixed 3 iminor);
                       ("max_sink_bytes", int imax_bytes); ("sink_cap_bytes", int sink_cap) ]);
                ("sketch", sketch);
                ("fabric",
                 Obj [ ("events", int fab.events); ("cards", int fab_cards);
                       ("cards_dropped", int fab_dropped); ("packets_delivered", int fab.delivered);
                       ("wall_s", fixed 6 fab.wall);
                       ("cards_per_sec", fixed 1 (rate fab_cards fab.wall));
                       ("collector_fingerprint", int fingerprint) ]);
                ("sharded", sharded_json ~shards par.wall) ]))

(* ---- BENCH_8: the five-way FCT gate ----------------------------------

   The same pre-drawn Poisson/Pareto workload crosses a k=4 fat-tree
   under five transports (Fct.fabric_run): RCP* (TPPs), TCP Reno, DCTCP,
   NDP (pull/trim) and TPP-LB (AIMD plus CONGA-style flowlet steering
   from TPP path probes). Four gates:

   1. NDP's 99th-percentile short-flow FCT beats TCP's at the 60%-load
      point — the receiver-driven transport's whole reason to exist.
   2. Every transport produces a bit-identical outcome fingerprint
      sequentially and under the sharded scheduler.
   3. Under a chaotic drop schedule on every access link, NDP still
      completes 100% of started messages with its state-machine
      invariants intact.
   4. The trim-to-header hot path allocates at most 2 minor words per
      frame more than the plain drop path it replaces (the BENCH_6
      flat-frame discipline: trim is an in-place length patch). *)

let transports_gate_load = 0.6
let transports_chaos_drop = 0.01
let transports_trim_budget = 2.0

let transports_params ?(load = transports_gate_load) ?(chaos = false) cfg =
  { Fct.fabric_default with Fct.f_load = load;
    f_duration = (if cfg.smoke then Time_ns.ms 80 else Time_ns.ms 300);
    f_chaos_drop = (if chaos then transports_chaos_drop else 0.0) }

(* Trim-vs-drop allocation micro-gate, engine-free: one switch whose
   data subqueue is too small for any data frame, so every ingress
   takes the overflow branch — trimmed onto the priority queue when
   trimming is on, dropped when off. Pooled frames; the measured delta
   is exactly what the trim branch itself allocates. *)
let trim_microbench ~trim ~iters =
  let dst_ip = Ipv4.Addr.of_host_id 2 in
  let sw = Switch.create ~id:1 ~num_ports:2 () in
  Switch.install_route sw (Ipv4.Prefix.host dst_ip) ~port:1 ~entry_id:1 ~version:1;
  Switch.configure_queues sw ~port:1 ~count:2;
  Switch.set_subqueue_limit sw ~port:1 ~queue:0 ~bytes:512;
  Switch.set_subqueue_limit sw ~port:1 ~queue:1 ~bytes:1_000_000;
  if trim then Switch.set_trim_keep sw ~keep:28;
  let pool = Frame.Pool.create ~capacity:4 () and payload = Bytes.make 1000 'x' in
  (* The unboxed dequeue, as the simulator drives it: with the option
     API the gate would measure its own [Some] box, not the switch. *)
  let none = Frame.placeholder () in
  let one now =
    let f =
      Frame.Pool.udp_frame pool ~src_mac:(Mac.of_host_id 1) ~dst_mac:(Mac.of_host_id 2)
        ~src_ip:(Ipv4.Addr.of_host_id 1) ~dst_ip ~src_port:5 ~dst_port:6 ~payload ()
    in
    match Switch.handle_ingress sw ~now ~in_port:0 f with
    | Switch.Queued _ ->
      let g = Switch.dequeue_or sw ~port:1 ~default:none in
      if g != none then Frame.recycle g
    | Switch.Dropped _ -> Frame.recycle f
  in
  (* Warm the pool and the priority ring before measuring. *)
  for i = 0 to 99 do one i done;
  let g0 = gc_mark () in
  for i = 0 to iters - 1 do one (100 + i) done;
  let minor, _ = gc_delta g0 in
  (Switch.trims sw, minor /. float_of_int iters)

(* Completed/started drain fraction of a fabric run. FCT percentiles
   only cover completed flows, so a transport that drains much less
   than its peers is reporting survivor-biased latency — worth a loud
   flag on every row, not just a number in the JSON. *)
let drain_frac (o : Fct.fabric_outcome) =
  if o.fo_started = 0 then 1.0 else float_of_int o.fo_completed /. float_of_int o.fo_started

let transports_drain_warn_frac = 0.9

let short_summary (o : Fct.fabric_outcome) =
  Fct.summarize (Fct.short_samples o ~threshold:Fct.fabric_default.Fct.f_short_bytes)

let transports_row_json (o : Fct.fabric_outcome) ~load ~wall =
  let long =
    List.filter (fun (size, _) -> size > Fct.fabric_default.Fct.f_short_bytes) o.Fct.fo_samples
  in
  let part (f : Fct.fct_summary) =
    Obj [ ("n", int f.Fct.fs_n); ("mean_ns", fixed 0 f.Fct.fs_mean_ns);
          ("p50_ns", int f.Fct.fs_p50_ns); ("p99_ns", int f.Fct.fs_p99_ns) ]
  in
  Obj [ ("transport", Str (Fct.transport_name o.Fct.fo_transport)); ("load", fixed 2 load);
        ("started", int o.Fct.fo_started); ("completed", int o.Fct.fo_completed);
        ("completed_frac", fixed 3 (drain_frac o)); ("short", part (short_summary o));
        ("long", part (Fct.summarize long)); ("all", part (Fct.summarize o.Fct.fo_samples));
        ("drops", int o.Fct.fo_drops); ("trims", int o.Fct.fo_trims);
        ("events", int o.Fct.fo_events); ("wall_s", fixed 3 wall) ]

let transports_bench cfg =
  let tag = tag_of cfg "transports" and fd = Fct.fabric_default in
  let loads = if cfg.smoke then [ transports_gate_load ] else [ 0.2; 0.4; 0.6; 0.8 ] in
  let shards = if cfg.shards > 0 then cfg.shards else 4 in
  say tag "k=%d fat-tree, loads [%s], %d shards for identity" fd.Fct.fk
    (String.concat "; " (List.map (Printf.sprintf "%.2f") loads)) shards;
  (* Sequential rows: transport x load. *)
  let gate = Hashtbl.create 8 and min_frac = ref 1.0 and drain_warnings = ref 0 in
  let row transport load =
    let t0 = Unix.gettimeofday () in
    let o = Fct.fabric_run transport (transports_params ~load cfg) in
    let wall = Unix.gettimeofday () -. t0 in
    if load = transports_gate_load then Hashtbl.replace gate transport o;
    let s = short_summary o and frac = drain_frac o and name = Fct.transport_name transport in
    say tag "%-8s load %.2f  %d/%d done (%3.0f%%)  short p50 %6.0fus p99 %6.0fus  drops %d trims \
             %d (%.2fs)" name load o.Fct.fo_completed o.Fct.fo_started (100.0 *. frac)
      (float_of_int s.Fct.fs_p50_ns /. 1e3) (float_of_int s.Fct.fs_p99_ns /. 1e3) o.Fct.fo_drops
      o.Fct.fo_trims wall;
    min_frac := Float.min !min_frac frac;
    if frac < transports_drain_warn_frac then begin
      incr drain_warnings;
      say tag "WARNING — %s at load %.2f drained only %d of %d started flows (%.0f%% < %.0f%%): \
               its FCT percentiles cover completed flows only and are survivor-biased" name load
        o.Fct.fo_completed o.Fct.fo_started (100.0 *. frac) (100.0 *. transports_drain_warn_frac)
    end;
    transports_row_json o ~load ~wall
  in
  let rows = List.concat_map (fun t -> List.map (row t) loads) Fct.all_transports in
  (* Gate 1: NDP beats TCP on 99p short-flow FCT at the gate load. *)
  let p99_short t = (short_summary (Hashtbl.find gate t)).Fct.fs_p99_ns in
  let ndp_p99 = p99_short Fct.Ndp_t and tcp_p99 = p99_short Fct.Tcp_t in
  if ndp_p99 <= 0 || ndp_p99 >= tcp_p99 then
    fail tag "NDP 99p short-flow FCT (%dns) does not beat TCP (%dns) at load %.2f" ndp_p99 tcp_p99
      transports_gate_load;
  say tag "NDP 99p short FCT %.0fus beats TCP %.0fus at load %.2f" (float_of_int ndp_p99 /. 1e3)
    (float_of_int tcp_p99 /. 1e3) transports_gate_load;
  (* Gate 2: sequential vs sharded identity, all five transports. *)
  List.iter
    (fun transport ->
      let seq = Hashtbl.find gate transport in
      let par = Fct.fabric_run ~shards transport (transports_params cfg) in
      if Fct.fingerprint seq <> Fct.fingerprint par then
        fail tag "%s diverged under %d shards (seq %d/%d vs par %d/%d completed/started)"
          (Fct.transport_name transport) shards seq.Fct.fo_completed seq.Fct.fo_started
          par.Fct.fo_completed par.Fct.fo_started)
    Fct.all_transports;
  say tag "all five transports bit-identical sequential vs %d shards" shards;
  (* Gate 3: NDP completes everything under the chaotic drop schedule.
     The gate is about loss *recovery*, so the workload is shaped to
     make 100% completion the right criterion: moderate load and a
     flow-size cap, because at peak load an uncapped Pareto tail can
     leave a pair with more backlog at the arrival window's end than
     any transport can drain before the horizon, drops or not. *)
  let chaos_o =
    Fct.fabric_run Fct.Ndp_t
      { (transports_params ~load:0.4 ~chaos:true cfg) with Fct.f_max_bytes = 100_000 }
  in
  let started = chaos_o.Fct.fo_started and completed = chaos_o.Fct.fo_completed in
  let drop_pct = transports_chaos_drop *. 100.0 in
  if started = 0 || completed <> started || not chaos_o.Fct.fo_ok then
    fail tag "NDP under %.0f%% access-link drop completed %d of %d (invariants %s)" drop_pct
      completed started (if chaos_o.Fct.fo_ok then "ok" else "VIOLATED");
  say tag "NDP chaos (%.0f%% drop): %d/%d messages completed, invariants ok, %d trims" drop_pct
    completed started chaos_o.Fct.fo_trims;
  (* Gate 4: the trim hot path is allocation-free (<= budget delta). *)
  let iters = if cfg.smoke then 20_000 else 200_000 in
  let drop_trims, drop_pe = trim_microbench ~trim:false ~iters in
  let trim_trims, trim_pe = trim_microbench ~trim:true ~iters in
  if drop_trims <> 0 || trim_trims < iters then
    fail tag "trim microbench did not exercise the trim path";
  let delta = trim_pe -. drop_pe in
  say tag "trim hot path %.2f minor w/frame vs drop %.2f (delta %.2f, budget %.1f)" trim_pe drop_pe
    delta transports_trim_budget;
  if delta > transports_trim_budget then
    fail tag "trimmed-header path allocates %.2f minor words/frame over the drop path (budget %.1f)"
      delta transports_trim_budget;
  say tag "OK — NDP beats TCP on short flows, identity holds, chaos completes, trim is \
           allocation-free";
  write_json (out_path cfg 8)
    (Obj [ ("bench", Str "transports"); ("smoke", bool cfg.smoke);
           ("git_commit", Str (git_commit ())); ("ocaml_version", Str Sys.ocaml_version);
           ("fabric", Obj [ ("k", int fd.Fct.fk); ("link_bps", int fd.Fct.f_bps);
                            ("delay_ns", int fd.Fct.f_delay_ns);
                            ("mean_flow_bytes", fixed 0 fd.Fct.f_mean_bytes);
                            ("pareto_shape", fixed 2 fd.Fct.f_shape);
                            ("duration_ns", int (transports_params cfg).Fct.f_duration);
                            ("short_threshold_bytes", int fd.Fct.f_short_bytes) ]);
           ("rows", Arr rows);
           ("gates",
            Obj [ ("ndp_vs_tcp_p99_short_ns", Obj [ ("ndp", int ndp_p99); ("tcp", int tcp_p99);
                                                    ("load", fixed 2 transports_gate_load) ]);
                  ("identity_shards", int shards);
                  ("chaos", Obj [ ("drop", fixed 3 transports_chaos_drop);
                                  ("started", int started); ("completed", int completed);
                                  ("trims", int chaos_o.Fct.fo_trims) ]);
                  ("drain", Obj [ ("min_completed_frac", fixed 3 !min_frac);
                                  ("warn_below", fixed 2 transports_drain_warn_frac);
                                  ("warnings", int !drain_warnings) ]);
                  ("trim_minor_words_per_frame",
                   Obj [ ("trim", fixed 3 trim_pe); ("drop", fixed 3 drop_pe);
                         ("delta", fixed 3 delta); ("budget", fixed 1 transports_trim_budget) ])
                ]) ])

(* ---- BENCH_9: the million-host fabric gate ---------------------------

   Three claims behind the million-host work, each measured:

   1. Aggregated FIBs. Under `Pods addressing every switch installs
      O(1) prefix entries — a Connected block route over everything
      below it plus an ECMP default up — instead of O(hosts) /32s. The
      per-host /32 installation stays available as the differential
      oracle: the same pooled traffic must leave every switch register
      (ECMP spraying included) bit-identical to the oracle, both
      sequentially and under the sharded scheduler, while the k=32
      fabric's FIB shrinks >= 50x. The oracle is measured for real
      wherever its trie fits (it is the thing that does NOT scale — the
      k=32 oracle costs ~8192 entries on each of 1280 switches, which
      is exactly why aggregation exists — so the k=32 oracle count is
      the closed form hosts-/32s-per-switch, verified against the
      measured count at every smaller k).

   2. Memory-lean topology. The SoA link state plus flyweight hosts
      must fit a 100k-host leaf-spine in <= 200 bytes per idle host,
      measured as the compacted live-word delta across the build.

   3. No throughput regression: the k=16 aggregated fabric must process
      events at least at the fabric rate recorded in BENCH_6.json. *)

let scale_bytes_budget = 200.0
let scale_fib_reduction_target = 50.0

let fib_per_switch (r : tally outcome) =
  float_of_int r.harvest.fib_entries /. float_of_int (max 1 r.harvest.switches)

(* Build-memory probe: compacted live words before and after building
   on a fresh engine, the result kept alive across the second
   compaction so the delta is the structure's steady-state footprint,
   not its garbage. *)
let scale_build_bytes build =
  Gc.compact ();
  let w0 = (Gc.stat ()).Gc.live_words in
  let keep = Sys.opaque_identity (build (Engine.create ())) in
  Gc.compact ();
  let w1 = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity keep);
  (w1 - w0) * (Sys.word_size / 8)

(* The k=16 row's throughput floor: the pooled fabric rate BENCH_6
   recorded on this machine — its first "events_per_sec", the top-level
   one, which precedes its oracle subobject (bench/report.ml reads it
   the same way). *)
let scale_floor () =
  let path = "BENCH_6.json" and needle = "\"events_per_sec\":" in
  if not (Sys.file_exists path) then None
  else
    let text = In_channel.with_open_bin path In_channel.input_all in
    let nl = String.length needle and tl = String.length text in
    let rec find i =
      if i + nl > tl then None
      else if String.sub text i nl = needle then
        Scanf.sscanf_opt (String.sub text (i + nl) (tl - i - nl)) " %f" Fun.id
      else find (i + 1)
    in
    find 0

(* One fabric size: timed aggregated run, oracle equivalence (the /32 census in closed form
   when [measure_oracle] is off), the FIB reduction gate, sharded identity and build
   footprint. Exits on any failure; returns the run, its FIB reduction and its JSON row. *)
let scale_row cfg ~tag ~shards ~measure_oracle ~timed ~min_reduction =
  let hosts = hosts cfg in
  say tag "k=%d — %s, aggregated FIBs" cfg.k (workload_of cfg plain);
  let sc fib = fabric cfg ~topo:(build ~addressing:`Pods ~fib cfg) pooled in
  let agg_sc = sc `Aggregated in
  let agg = if timed then best_of_two (fun () -> run agg_sc) else run agg_sc in
  let fib = fib_per_switch agg in
  say tag "k=%d aggregated  %d events, %d delivered in %.3fs (%.3e ev/s, %.2f minor w/ev), %.1f \
           FIB entries/switch" cfg.k agg.events agg.delivered agg.wall (rate agg.events agg.wall)
    agg.minor_pe fib;
  let fib_oracle =
    if measure_oracle then begin
      let orc = run (sc `Host32) in
      same tag (Printf.sprintf "k=%d aggregated FIBs vs the /32 oracle" cfg.k) orc agg;
      let orc_fib = fib_per_switch orc in
      say tag "k=%d oracle      identical registers at %.1f FIB entries/switch (%.1fx more)" cfg.k
        orc_fib (orc_fib /. fib);
      orc_fib
    end
    else begin
      say tag "k=%d oracle      counted analytically: %d /32 entries/switch (trie would not fit \
               — the point of aggregation)" cfg.k hosts;
      float_of_int hosts
    end
  in
  let reduction = fib_oracle /. fib in
  if reduction < min_reduction then
    fail tag "k=%d FIB shrank only %.1fx (%.2f vs %.1f entries/switch, target %.0fx)" cfg.k
      reduction fib fib_oracle min_reduction;
  ignore (sharded tag ~shards (Printf.sprintf "k=%d aggregated run" cfg.k) agg_sc agg);
  say tag "k=%d %d-shard     identical to sequential" cfg.k shards;
  let bytes_per_host =
    float_of_int (scale_build_bytes (build ~addressing:`Pods ~fib:`Aggregated cfg))
    /. float_of_int hosts
  in
  say tag "k=%d build       %.1f bytes/host" cfg.k bytes_per_host;
  ( agg, reduction,
    [ ("k", int cfg.k); ("hosts", int hosts); ("switches", int (5 * cfg.k * cfg.k / 4)) ]
    @ run_keys ~drop:[ "promoted_words_per_event" ] agg
    @ [ ("fib_entries_per_switch", fixed 2 fib);
        ("fib_oracle_entries_per_switch", fixed 1 fib_oracle); ("fib_reduction", fixed 1 reduction);
        ("oracle_measured", bool measure_oracle); ("bytes_per_host", fixed 1 bytes_per_host);
        ("shards", int shards); ("identical", bool true) ] )

let leaf_spine ?wire_check ~leaves ~spines ~hosts_per_leaf eng =
  (Topology.leaf_spine eng ?wire_check ~ecmp:true ~leaves ~spines ~hosts_per_leaf
     ~bps:10_000_000_000 ~delay:(Time_ns.us 1) ()).Topology.ls_net

(* Leaf-spine forwarding sanity: a small fabric must deliver every
   pooled frame and agree bit-for-bit with its own sharded run — the
   memory-lean build is only interesting if it still forwards. *)
let scale_leaf_spine_traffic cfg ~tag ~shards =
  let leaves = 8 and spines = 4 and hosts_per_leaf = 10 in
  let sc =
    fabric cfg ~topo:(leaf_spine ~wire_check:cfg.wire_check ~leaves ~spines ~hosts_per_leaf) pooled
  in
  let seq = run sc and sent = leaves * hosts_per_leaf * cfg.packets_per_host in
  if seq.delivered <> sent then
    fail tag "leaf-spine delivered %d of %d pooled frames" seq.delivered sent;
  ignore (sharded tag ~shards "leaf-spine" sc seq);
  say tag "leaf-spine %dx%d (%d hosts) delivered all %d frames, %d-shard identical" leaves spines
    (leaves * hosts_per_leaf) sent shards

let scale_bench cfg =
  let tag = tag_of cfg "scale" and shards = gate_shards cfg in
  if cfg.smoke then begin
    (* CI variant: the k=8 route-equivalence and sharded-identity gates
       plus leaf-spine delivery, all at bounded size. No JSON, no
       machine-dependent perf gates. *)
    let cfg8 = { cfg with k = 8; packets_per_host = 100 } in
    ignore (scale_row cfg8 ~tag ~shards ~measure_oracle:true ~timed:false ~min_reduction:2.0);
    scale_leaf_spine_traffic { cfg8 with packets_per_host = 200 } ~tag ~shards;
    say tag "OK — aggregated FIBs identical to the /32 oracle (sequential and %d-shard), \
             leaf-spine delivers" shards
  end
  else begin
    (* k=16: the timed, gated row — oracle measured for real. k=32: the
       aggregated fabric builds and runs, the oracle census is the closed
       form. *)
    let r16, _, row16 =
      scale_row { cfg with k = 16; packets_per_host = 400 } ~tag ~shards ~measure_oracle:true
        ~timed:true ~min_reduction:0.0
    in
    let _, red32, row32 =
      scale_row { cfg with k = 32; packets_per_host = 80 } ~tag ~shards ~measure_oracle:false
        ~timed:false ~min_reduction:scale_fib_reduction_target
    in
    say tag "k=32 FIB reduction %.0fx (target %.0fx)" red32 scale_fib_reduction_target;
    let floor = scale_floor () and rate16 = rate r16.events r16.wall in
    (match floor with
    | Some f ->
      if rate16 < f then
        fail tag "k=16 runs at %.3e events/sec, below the BENCH_6 fabric rate %.3e" rate16 f;
      say tag "k=16 rate %.3e ev/s holds the BENCH_6 floor %.3e" rate16 f
    | None ->
      say tag "SKIPPED events/sec floor — no BENCH_6.json in the working directory (run --frames \
               first)");
    (* Leaf-spine: forwarding sanity, then the 100k-host build budget. *)
    scale_leaf_spine_traffic { cfg with packets_per_host = 200 } ~tag ~shards;
    let leaves = 400 and spines = 8 and hosts_per_leaf = 250 in
    let ls_hosts = leaves * hosts_per_leaf in
    let ls_bph =
      float_of_int (scale_build_bytes (leaf_spine ~leaves ~spines ~hosts_per_leaf))
      /. float_of_int ls_hosts
    in
    say tag "leaf-spine %dx%d, %d hosts: %.1f bytes/host (budget %.0f)" leaves spines ls_hosts
      ls_bph scale_bytes_budget;
    if ls_bph > scale_bytes_budget then
      fail tag "%d-host leaf-spine costs %.1f bytes/host (budget %.0f)" ls_hosts ls_bph
        scale_bytes_budget;
    say tag "OK — aggregated FIBs oracle-identical (sequential and %d-shard), k=32 FIB %.0fx \
             smaller, %d hosts at %.1f bytes each" shards red32 ls_hosts ls_bph;
    write_json (out_path cfg 9)
      (Obj (header ~bench:9
              ~workload:"aggregated-FIB fat-trees (pooled plain UDP) + leaf-spine build memory"
            @ [ ("hosts", int (hosts { cfg with k = 16 })) ]
            @ run_keys ~drop:[ "packets_delivered"; "promoted_words_per_event" ] r16
            @ List.filter (fun (k, _) ->
                  List.mem k [ "bytes_per_host"; "fib_entries_per_switch"; "fib_reduction" ]) row16
            @ [ ("events_per_sec_floor",
                 Obj [ ("source", Str "BENCH_6.json");
                       ("floor", Option.fold ~none:(Num "null") ~some:(fixed 1) floor);
                       ("enforced", bool (floor <> None)) ]);
                ("rows", Arr [ Obj row16; Obj row32 ]);
                ("leaf_spine",
                 Obj [ ("leaves", int leaves); ("spines", int spines);
                       ("hosts_per_leaf", int hosts_per_leaf); ("hosts", int ls_hosts);
                       ("bytes_per_host", fixed 1 ls_bph);
                       ("budget_bytes_per_host", fixed 0 scale_bytes_budget) ]);
                ("identical", bool true) ]))
  end

(* ---- command line ------------------------------------------------------- *)

let usage_error fmt = Printf.ksprintf (fun s -> Printf.eprintf "perf: %s\n%!" s; exit 2) fmt

let () =
  let count flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> usage_error "%s expects an integer, got %S" flag v
  in
  let rec parse cfg = function
    | [] -> cfg
    | ("--perf" | "--") :: rest -> parse cfg rest
    | "--k" :: v :: rest -> parse { cfg with k = count "--k" v } rest
    | "--packets" :: v :: rest -> parse { cfg with packets_per_host = count "--packets" v } rest
    | "--shards" :: v :: rest -> parse { cfg with shards = count "--shards" v } rest
    | "--smoke" :: rest -> parse { cfg with smoke = true } rest
    | "--out" :: v :: rest -> parse { cfg with out = Some v } rest
    | "--wire-check" :: v :: rest -> (
      match List.assoc_opt v wire_checks with
      | Some wire_check -> parse { cfg with wire_check } rest
      | None -> usage_error "--wire-check expects always|cached|off")
    | flag :: rest when List.mem_assoc flag mode_flags ->
      let mode = List.assoc flag mode_flags in
      if cfg.mode <> Fabric && cfg.mode <> mode then
        usage_error "%s and %s select different benchmarks: pass one"
          (fst (List.find (fun (_, m) -> m = cfg.mode) mode_flags)) flag;
      parse { cfg with mode } rest
    | a :: _ -> usage_error "unknown argument %S" a
  in
  let cfg = parse default (List.tl (Array.to_list Sys.argv)) in
  if cfg.k < 2 || cfg.k mod 2 <> 0 then
    usage_error "--k expects an even fat-tree arity >= 2, got %d" cfg.k;
  if cfg.packets_per_host < 0 then
    usage_error "--packets expects a non-negative count, got %d" cfg.packets_per_host;
  if cfg.shards < 0 then usage_error "--shards expects a non-negative count";
  match cfg.mode with
  | Scale -> scale_bench cfg
  | Transports -> transports_bench cfg
  | Telemetry -> telemetry_bench cfg
  | Frames -> frames_bench cfg
  | Engine -> engine_bench cfg
  | Chaos -> chaos_bench cfg
  | Tpp_heavy -> tpp_heavy cfg
  | Fabric ->
    if cfg.smoke then smoke cfg else if cfg.shards > 0 then shards_bench cfg else rate_bench cfg

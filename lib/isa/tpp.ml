module Buf = Tpp_util.Buf

type addr_mode = Stack | Hop_addressed

type compiled = ..
type compiled += Not_compiled

(* One cell per program "family": every [copy] shares it, so compiling
   any member (or even just computing the identity key) pays for all of
   them. The handle is atomic because frames — and therefore their TPPs
   — migrate between the domains of a sharded run; a stale read only
   costs a cache lookup, never correctness. *)
type exec_cache = {
  mutable key : string option;
  handle : compiled Atomic.t;
  mutable code : bytes option;  (* wire encoding of the program *)
}

(* Packet memory is a window [mem_off, mem_off + mem_len) of [memory]:
   a standalone TPP owns a private buffer at offset 0, while a TPP
   embedded in a flat frame aliases the frame's backing buffer, so a
   TCPU word store patches the wire image in place. [sp], [hop] and
   [faulted] stay authoritative in the record between hops; the frame
   layer flushes them into the serialized section header on export. *)
type t = {
  mutable faulted : bool;
  addr_mode : addr_mode;
  perhop_len : int;
  base : int;
  mutable sp : int;
  mutable hop : int;
  program : Instr.t array;
  mutable memory : bytes;
  mutable mem_off : int;
  mem_len : int;
  mutable inner_ethertype : int;
  cache : exec_cache;
}

let fresh_cache () = { key = None; handle = Atomic.make Not_compiled; code = None }

let header_size = 16

let mem_len t = t.mem_len

let section_size t = header_size + (Instr.size * Array.length t.program) + t.mem_len

let check_u16 what v =
  if v < 0 || v > 0xFFFF then invalid_arg (Printf.sprintf "Tpp.make: %s exceeds 16 bits" what)

let make ?(addr_mode = Stack) ?(perhop_len = 0) ?(pool = Bytes.empty)
    ?(inner_ethertype = 0) ~program ~mem_len () =
  let base = Bytes.length pool in
  if base mod 4 <> 0 then invalid_arg "Tpp.make: pool must be word aligned";
  if mem_len mod 4 <> 0 then invalid_arg "Tpp.make: mem_len must be word aligned";
  if perhop_len mod 4 <> 0 then invalid_arg "Tpp.make: perhop_len must be word aligned";
  if addr_mode = Hop_addressed && perhop_len = 0 then
    invalid_arg "Tpp.make: hop addressing needs perhop_len > 0";
  let total_mem = base + mem_len in
  check_u16 "memory length" total_mem;
  check_u16 "program length" (Instr.size * List.length program);
  check_u16 "perhop_len" perhop_len;
  let memory = Bytes.make total_mem '\000' in
  Bytes.blit pool 0 memory 0 base;
  {
    faulted = false;
    addr_mode;
    perhop_len;
    base;
    sp = base;
    hop = 0;
    program = Array.of_list program;
    memory;
    mem_off = 0;
    mem_len = total_mem;
    inner_ethertype;
    cache = fresh_cache ();
  }

(* Programs are immutable after construction, so copies share the
   instruction array and the compiled-code cell; only the packet memory
   (the mutable per-packet state) is duplicated — always into a private
   standalone buffer, even when the original aliases a frame. *)
let copy t =
  let m = Bytes.create t.mem_len in
  Bytes.blit t.memory t.mem_off m 0 t.mem_len;
  { t with memory = m; mem_off = 0 }

(* Fresh view over a different backing buffer whose bytes already hold
   this TPP's memory image at [mem_off] (frame cloning). Shares the
   program and compiled-code cell, snapshots sp/hop/faulted. *)
let reseat t ~memory ~mem_off = { t with memory; mem_off }

(* Moves this TPP's packet memory into [memory] at [mem_off], carrying
   the current contents along (frame embedding: subsequent mem stores
   land in the frame's backing buffer). *)
let rebase t ~memory ~mem_off =
  if mem_off < 0 || mem_off + t.mem_len > Bytes.length memory then
    invalid_arg "Tpp.rebase: window out of range";
  Bytes.blit t.memory t.mem_off memory mem_off t.mem_len;
  t.memory <- memory;
  t.mem_off <- mem_off

let program_key t =
  match t.cache.key with
  | Some k -> k
  | None ->
    let k =
      (* The canonical identity is the wire encoding of the program.
         Hand-built programs whose operands exceed the encodable 12-bit
         range cannot be encoded; fall back to a structural key. The
         leading tag keeps the two namespaces disjoint. *)
      try
        let w = Buf.Writer.create ~capacity:(4 + (Instr.size * Array.length t.program)) () in
        Array.iter (Instr.write w) t.program;
        "E" ^ Bytes.to_string (Buf.Writer.contents w)
      with Invalid_argument _ -> "M" ^ Marshal.to_string t.program []
    in
    t.cache.key <- Some k;
    k

(* Wire encoding of the instruction array, shared across the family.
   Raises [Invalid_argument] for unencodable hand-built programs, like
   {!write} always has. *)
let program_bytes t =
  match t.cache.code with
  | Some b -> b
  | None ->
    let w = Buf.Writer.create ~capacity:(max 8 (Instr.size * Array.length t.program)) () in
    Array.iter (Instr.write w) t.program;
    let b = Buf.Writer.contents w in
    t.cache.code <- Some b;
    b

let compiled_handle t = Atomic.get t.cache.handle
let set_compiled_handle t c = Atomic.set t.cache.handle c

let oob what = raise (Buf.Out_of_bounds what)

let mem_get t off =
  if off < 0 || off + 4 > t.mem_len then oob "Tpp.mem_get";
  Int32.to_int (Bytes.get_int32_be t.memory (t.mem_off + off)) land 0xFFFF_FFFF

let mem_set t off v =
  if off < 0 || off + 4 > t.mem_len then oob "Tpp.mem_set";
  Bytes.set_int32_be t.memory (t.mem_off + off) (Int32.of_int (v land 0xFFFF_FFFF))

(* The [n] words from [start], consed from the last one back: a
   top-level loop, so a decode allocates only the list itself. *)
let rec words_from t start i acc =
  if i < 0 then acc else words_from t start (i - 1) (mem_get t (start + (4 * i)) :: acc)

let words t = words_from t 0 ((t.mem_len / 4) - 1) []

let stack_values t = words_from t t.base ((t.sp - t.base) / 4 - 1) []

let hop_block t ~hop =
  words_from t (t.base + (hop * t.perhop_len)) ((t.perhop_len / 4) - 1) []

let flags_of t =
  (match t.addr_mode with Stack -> 0 | Hop_addressed -> 1)
  lor (if t.faulted then 2 else 0)

(* The 16-byte section header, written straight into a buffer. The
   frame layer uses this both to build sections and to flush the
   mutable header state (flags/sp/hop) before exporting wire bytes. *)
let write_header_into b ~off t =
  Bytes.set_uint8 b off 1;
  Bytes.set_uint8 b (off + 1) (flags_of t);
  Bytes.set_uint16_be b (off + 2) (Instr.size * Array.length t.program);
  Bytes.set_uint16_be b (off + 4) t.mem_len;
  Bytes.set_uint16_be b (off + 6) t.sp;
  Bytes.set_uint16_be b (off + 8) t.hop;
  Bytes.set_uint16_be b (off + 10) t.perhop_len;
  Bytes.set_uint16_be b (off + 12) t.inner_ethertype;
  Bytes.set_uint16_be b (off + 14) t.base

let write w t =
  Buf.Writer.u8 w 1;
  Buf.Writer.u8 w (flags_of t);
  Buf.Writer.u16 w (Instr.size * Array.length t.program);
  Buf.Writer.u16 w t.mem_len;
  Buf.Writer.u16 w t.sp;
  Buf.Writer.u16 w t.hop;
  Buf.Writer.u16 w t.perhop_len;
  Buf.Writer.u16 w t.inner_ethertype;
  Buf.Writer.u16 w t.base;
  Array.iter (Instr.write w) t.program;
  Buf.Writer.bytes_sub w t.memory ~pos:t.mem_off ~len:t.mem_len

let read r =
  try
    let version = Buf.Reader.u8 r in
    if version <> 1 then Error (Printf.sprintf "unsupported TPP version %d" version)
    else begin
      let flags = Buf.Reader.u8 r in
      let tpp_len = Buf.Reader.u16 r in
      let mem_len = Buf.Reader.u16 r in
      let sp = Buf.Reader.u16 r in
      let hop = Buf.Reader.u16 r in
      let perhop_len = Buf.Reader.u16 r in
      let inner_ethertype = Buf.Reader.u16 r in
      let base = Buf.Reader.u16 r in
      if tpp_len mod Instr.size <> 0 then Error "instruction bytes not word aligned"
      else if mem_len mod 4 <> 0 then Error "memory length not word aligned"
      else if base > mem_len then Error "pool base beyond memory"
      else if sp > mem_len then Error "stack pointer beyond memory"
      else begin
        let n = tpp_len / Instr.size in
        let rec read_program i acc =
          if i = n then Ok (List.rev acc)
          else
            match Instr.read r with
            | Ok instr -> read_program (i + 1) (instr :: acc)
            | Error e -> Error e
        in
        match read_program 0 [] with
        | Error e -> Error e
        | Ok program ->
          let memory = Buf.Reader.bytes r mem_len in
          let addr_mode = if flags land 1 = 1 then Hop_addressed else Stack in
          if addr_mode = Hop_addressed && perhop_len = 0 then
            Error "hop addressing with zero per-hop length"
          else
            Ok
              {
                faulted = flags land 2 <> 0;
                addr_mode;
                perhop_len;
                base;
                sp;
                hop;
                program = Array.of_list program;
                memory;
                mem_off = 0;
                mem_len;
                inner_ethertype;
                cache = fresh_cache ();
              }
      end
    end
  with Buf.Out_of_bounds _ -> Error "truncated TPP section"

let pp fmt t =
  let mode = match t.addr_mode with Stack -> "stack" | Hop_addressed -> "hop" in
  Format.fprintf fmt "@[<v>TPP %s sp=%d hop=%d mem=%dB%s@,%a@]" mode t.sp t.hop
    t.mem_len
    (if t.faulted then " FAULTED" else "")
    (Format.pp_print_list Instr.pp)
    (Array.to_list t.program)

(* Reusable scratch buffers for the block pipelines.

   An arena is a table of numbered slots, each holding one buffer that
   grows monotonically and is never freed: a pipeline stage asks for
   "slot k, at least n bytes" and gets back the same buffer on every
   block, resized (to the next power of two) only when a block outgrows
   it.  Buffer contents beyond what the caller wrote are stale garbage
   from earlier blocks — every consumer must carry explicit lengths.

   Arenas are single-owner and carry no locks.  [with_arena] hands out
   per-domain arenas from a domain-local free list, so each worker of
   the [lib/parallel] pool reuses its own scratch across the blocks it
   claims and two domains never share one; nested [with_arena] calls
   get distinct arenas.

   Retention is bounded by a constant, not by the largest input ever
   seen: a slot keeps no buffer above [retain_max] bytes (a larger
   request gets a fresh buffer the arena does not keep), and a domain's
   free list keeps at most [free_max] arenas.  The cap is low because a
   kept [int array] lives in the major heap, where every major cycle
   marks it field by field: an 8 MiB token slot kept after a 1 MiB
   deflate made each later 1 MiB inflate ~0.4 ms slower. *)

type t = {
  mutable bytes_slots : bytes array;
  mutable int_slots : int array array;
  mutable big_slots : Bigstring.t array;
}

let create () =
  { bytes_slots = [||]; int_slots = [||]; big_slots = [||] }

let retain_max = 2 lsl 20

let free_max = 4

let round_up n =
  let c = ref 16 in
  while !c < n do c := !c * 2 done;
  !c

let ensure_slots arr ~slot ~empty =
  let cur = Array.length arr in
  if slot < cur then arr
  else begin
    let grown = Array.make (max (slot + 1) (2 * max 1 cur)) empty in
    Array.blit arr 0 grown 0 cur;
    grown
  end

let bytes t ~slot len =
  if slot < 0 || len < 0 then invalid_arg "Arena.bytes";
  t.bytes_slots <- ensure_slots t.bytes_slots ~slot ~empty:Bytes.empty;
  let b = t.bytes_slots.(slot) in
  if Bytes.length b >= len then b
  else if round_up len > retain_max then Bytes.create len
  else begin
    let b = Bytes.create (round_up len) in
    t.bytes_slots.(slot) <- b;
    b
  end

let ints t ~slot len =
  if slot < 0 || len < 0 then invalid_arg "Arena.ints";
  t.int_slots <- ensure_slots t.int_slots ~slot ~empty:[||];
  let a = t.int_slots.(slot) in
  if Array.length a >= len then a
  else if round_up len * (Sys.word_size / 8) > retain_max then Array.make len 0
  else begin
    let a = Array.make (round_up len) 0 in
    t.int_slots.(slot) <- a;
    a
  end

let big t ~slot len =
  if slot < 0 || len < 0 then invalid_arg "Arena.big";
  t.big_slots <- ensure_slots t.big_slots ~slot ~empty:(Bigstring.create 0);
  let b = t.big_slots.(slot) in
  if Bigstring.length b >= len then b
  else if round_up len > retain_max then Bigstring.create len
  else begin
    let b = Bigstring.create (round_up len) in
    t.big_slots.(slot) <- b;
    b
  end

let footprint t =
  let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a in
  sum Bytes.length t.bytes_slots
  + sum (fun a -> Array.length a * (Sys.word_size / 8)) t.int_slots
  + sum Bigstring.length t.big_slots

let pool_key : t list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let with_arena f =
  let pool = Domain.DLS.get pool_key in
  let arena =
    match !pool with
    | [] -> create ()
    | a :: rest ->
        pool := rest;
        a
  in
  Fun.protect
    ~finally:(fun () ->
      if List.compare_length_with !pool free_max < 0 then pool := arena :: !pool)
    (fun () -> f arena)

(* Prefix doubling over cyclic rotations: after round k every rotation is
   ranked by its first 2^k characters; ranks are refined until all are
   distinct or the window covers the block.  The comparison count is
   returned because it is data-dependent — repetitive input needs more
   refinement rounds — and the fingerprinting attack observes exactly that
   run-time difference.

   [sort_rotations_work] is the original tuple-keyed [Array.sort]
   version (kept in the test suite as the executable specification of
   both the permutation and the work count) with the (rank, rank+k) key
   pair packed into a single int: the comparator runs the exact same
   comparison sequence over immediate ints instead of boxing two tuples
   per call.  [sort_rotations] — which does not need the work count —
   ranks by counting-sort passes and performs no comparisons at all. *)

(* Ranks stay below n and the initial byte ranks below 256, so a
   (rank, rank') pair packs losslessly into [rank lsl 31 lor rank'] as long
   as both fit in 31 bits; the packed ints order and compare equal exactly
   as the tuples do.  [Intsort.sort_by_key] — the stdlib heapsort with the
   comparator expanded inline — then performs the identical comparison
   sequence — the work counter advances by 2 per comparison (the reference
   evaluates [key] twice per comparison) and by 2 per re-rank step.  The
   final tie-break packs [(rank, index)] the same way with 1 work unit per
   comparison, matching the reference's comparator.

   [sort_rotations_work_sub] is the slice-and-arena entry: it sorts
   [Bytes.sub block off len] without materializing the slice, drawing
   every scratch array (and the returned permutation, whose physical
   length may then exceed [len]) from the arena's slots. *)

module Arena = Zipchannel_buf.Arena
module Intsort = Zipchannel_buf.Intsort

(* Arena int-slot assignments for the whole bzip2 block pipeline live in
   the 0..8 range; see the slot table in DESIGN.md §12.  This module owns
   slots 3 (perm, shared with Block_sort's main sort output) and 4..6;
   [sort_rotations_sub] below also borrows slot 0. *)
let slot_perm = 3
let slot_rank = 4
let slot_tmp = 5
let slot_keys = 6
let slot_last = 0 (* bytes slot: transform output *)

let sort_rotations_work_sub ?arena block ~off ~len =
  let n = len in
  if n = 0 then ([||], 0)
  else if n >= 1 lsl 31 then
    invalid_arg "Bwt.sort_rotations_work_sub: block too long to pack ranks"
  else begin
    let ints slot n =
      match arena with
      | Some a -> Arena.ints a ~slot n
      | None -> Array.make n 0
    in
    let work = ref 0 in
    let rank = ints slot_rank n in
    for i = 0 to n - 1 do
      rank.(i) <- Char.code (Bytes.unsafe_get block (off + i))
    done;
    let perm = ints slot_perm n in
    for i = 0 to n - 1 do
      perm.(i) <- i
    done;
    let tmp = ints slot_tmp n in
    let keys = ints slot_keys n in
    let k = ref 1 in
    let distinct = ref false in
    while (not !distinct) && !k < n do
      for i = 0 to n - 1 do
        let j = i + !k in
        let j = if j >= n then j - n else j in
        Array.unsafe_set keys i
          ((Array.unsafe_get rank i lsl 31) lor Array.unsafe_get rank j)
      done;
      Intsort.sort_by_key perm ~len:n ~keys ~work ~per_cmp:2;
      tmp.(perm.(0)) <- 0;
      let all_distinct = ref true in
      for j = 1 to n - 1 do
        let prev = perm.(j - 1) and cur = perm.(j) in
        work := !work + 2;
        if keys.(prev) = keys.(cur) then begin
          tmp.(cur) <- tmp.(prev);
          all_distinct := false
        end
        else tmp.(cur) <- j
      done;
      Array.blit tmp 0 rank 0 n;
      distinct := !all_distinct;
      k := !k * 2
    done;
    if not !distinct then begin
      (* (rank, index) packs like the rank pairs: index < n < 2^31. *)
      for i = 0 to n - 1 do
        Array.unsafe_set keys i ((Array.unsafe_get rank i lsl 31) lor i)
      done;
      Intsort.sort_by_key perm ~len:n ~keys ~work ~per_cmp:1
    end;
    (perm, !work)
  end

let sort_rotations_work block =
  sort_rotations_work_sub block ~off:0 ~len:(Bytes.length block)

(* Comparison-free rotation sort: Manber–Myers prefix doubling where each
   round re-orders by the k-shifted previous order and a stable counting
   sort on the rank — O(n log n), no comparator, no per-element boxing.
   Produces the same permutation as the reference (ties between identical
   rotations broken by start index).  This is the production block sorter
   of [Bzip2.compress]; with [arena] it runs in int slots 3..6 (perm, rank
   and their next-round copies, as [sort_rotations_work_sub] uses them)
   plus slot 0 for the counting-sort table — [Block_sort]'s ftab, idle
   while this sorter runs. *)
let slot_next_perm = slot_tmp
let slot_next_rank = slot_keys
let slot_count = 0

let sort_rotations_sub ?arena block ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length block then
    invalid_arg "Bwt.sort_rotations_sub";
  let n = len in
  if n = 0 then [||]
  else begin
    let ints slot n =
      match arena with
      | Some a -> Arena.ints a ~slot n
      | None -> Array.make n 0
    in
    let perm = ints slot_perm n in
    let rank = ints slot_rank n in
    let next_perm = ints slot_next_perm n in
    let next_rank = ints slot_next_rank n in
    let count = ints slot_count (max 256 n) in
    let byte i = Bytes.unsafe_get block (off + i) in
    (* Round 0: counting sort by first byte; dense byte classes. *)
    Array.fill count 0 256 0;
    for i = 0 to n - 1 do
      let c = Char.code (byte i) in
      count.(c) <- count.(c) + 1
    done;
    let acc = ref 0 in
    for c = 0 to 255 do
      let v = count.(c) in
      count.(c) <- !acc;
      acc := !acc + v
    done;
    for i = 0 to n - 1 do
      let c = Char.code (byte i) in
      perm.(count.(c)) <- i;
      count.(c) <- count.(c) + 1
    done;
    let classes = ref 1 in
    rank.(perm.(0)) <- 0;
    for i = 1 to n - 1 do
      if byte perm.(i) <> byte perm.(i - 1) then incr classes;
      rank.(perm.(i)) <- !classes - 1
    done;
    let k = ref 1 in
    while !classes < n && !k < n do
      (* Order by the second key of the pair: shifting the current order
         left by k lists rotations sorted by chars [k, 2k). *)
      for i = 0 to n - 1 do
        let v = Array.unsafe_get perm i - !k in
        Array.unsafe_set next_perm i (if v < 0 then v + n else v)
      done;
      (* Stable counting sort by the first key (current rank). *)
      Array.fill count 0 !classes 0;
      for i = 0 to n - 1 do
        let r = Array.unsafe_get rank i in
        Array.unsafe_set count r (Array.unsafe_get count r + 1)
      done;
      let acc = ref 0 in
      for c = 0 to !classes - 1 do
        let v = Array.unsafe_get count c in
        Array.unsafe_set count c !acc;
        acc := !acc + v
      done;
      for i = 0 to n - 1 do
        let v = Array.unsafe_get next_perm i in
        let r = Array.unsafe_get rank v in
        Array.unsafe_set perm (Array.unsafe_get count r) v;
        Array.unsafe_set count r (Array.unsafe_get count r + 1)
      done;
      (* Re-rank by (rank, rank+k) pair equality along the new order. *)
      next_rank.(perm.(0)) <- 0;
      classes := 1;
      for i = 1 to n - 1 do
        let a = Array.unsafe_get perm i and b = Array.unsafe_get perm (i - 1) in
        let a2 = a + !k in
        let a2 = if a2 >= n then a2 - n else a2 in
        let b2 = b + !k in
        let b2 = if b2 >= n then b2 - n else b2 in
        if
          Array.unsafe_get rank a <> Array.unsafe_get rank b
          || Array.unsafe_get rank a2 <> Array.unsafe_get rank b2
        then incr classes;
        Array.unsafe_set next_rank a (!classes - 1)
      done;
      Array.blit next_rank 0 rank 0 n;
      k := !k * 2
    done;
    (* Identical rotations (period divides n): a final stable counting sort
       over ascending start indices orders each class by index. *)
    if !classes < n then begin
      Array.fill count 0 !classes 0;
      for i = 0 to n - 1 do
        count.(rank.(i)) <- count.(rank.(i)) + 1
      done;
      let acc = ref 0 in
      for c = 0 to !classes - 1 do
        let v = count.(c) in
        count.(c) <- !acc;
        acc := !acc + v
      done;
      for i = 0 to n - 1 do
        perm.(count.(rank.(i))) <- i;
        count.(rank.(i)) <- count.(rank.(i)) + 1
      done
    end;
    perm
  end

let sort_rotations block =
  sort_rotations_sub block ~off:0 ~len:(Bytes.length block)

let check_perm n perm =
  if Array.length perm <> n then invalid_arg "Bwt: permutation length";
  let seen = Array.make (max 1 n) false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then invalid_arg "Bwt: not a permutation";
      seen.(i) <- true)
    perm

let transform_with ~perm block =
  let n = Bytes.length block in
  check_perm n perm;
  if n = 0 then (Bytes.create 0, 0)
  else begin
    let last = Bytes.create n in
    let primary = ref (-1) in
    for k = 0 to n - 1 do
      let start = perm.(k) in
      if start = 0 then primary := k;
      Bytes.set last k (Bytes.get block ((start + n - 1) mod n))
    done;
    (last, !primary)
  end

let transform block = transform_with ~perm:(sort_rotations block) block

let transform_with_sub ?arena ~perm block ~off ~len =
  (* Pipeline-internal slice variant: [perm] comes straight from the
     block sorts above (physical length possibly > [len]) and is trusted
     rather than re-validated; the returned last column is the arena's
     bytes slot with logical length [len]. *)
  let n = len in
  if n = 0 then (Bytes.create 0, 0)
  else begin
    let last =
      match arena with
      | Some a -> Arena.bytes a ~slot:slot_last n
      | None -> Bytes.create n
    in
    let primary = ref (-1) in
    for k = 0 to n - 1 do
      let start = Array.unsafe_get perm k in
      if start = 0 then primary := k;
      let p = if start = 0 then n - 1 else start - 1 in
      Bytes.unsafe_set last k (Bytes.get block (off + p))
    done;
    (last, !primary)
  end

let inverse last primary =
  let n = Bytes.length last in
  if n = 0 then Bytes.create 0
  else begin
    if primary < 0 || primary >= n then invalid_arg "Bwt.inverse: index";
    (* LF mapping: T.(i) is the row whose rotation is the left-rotation of
       row i; walking T from the primary row spells the input backwards. *)
    let counts = Array.make 256 0 in
    Bytes.iter (fun c -> counts.(Char.code c) <- counts.(Char.code c) + 1) last;
    let base = Array.make 256 0 in
    let acc = ref 0 in
    for c = 0 to 255 do
      base.(c) <- !acc;
      acc := !acc + counts.(c)
    done;
    let t = Array.make n 0 in
    let seen = Array.make 256 0 in
    for i = 0 to n - 1 do
      let c = Char.code (Bytes.get last i) in
      t.(i) <- base.(c) + seen.(c);
      seen.(c) <- seen.(c) + 1
    done;
    let out = Bytes.create n in
    let idx = ref primary in
    for k = n - 1 downto 0 do
      Bytes.set out k (Bytes.get last !idx);
      idx := t.(!idx)
    done;
    out
  end

let sample_words = 64

(* FNV-style: xor a word in, multiply by an odd constant. Both steps are
   bijections on the accumulator, so two strings whose samples differ in
   any word get different accumulators; the final fold spreads the high
   bits into the low ones that hash-table buckets use. *)
let sampled_hash s =
  let len = String.length s in
  if len < 8 * sample_words then Hashtbl.hash s
  else begin
    let stride = (len - 8) / (sample_words - 1) in
    let h = ref len in
    for i = 0 to sample_words - 1 do
      h := (!h lxor Int64.to_int (String.get_int64_le s (i * stride))) * 0x100000001b3
    done;
    (!h lxor (!h lsr 31)) land max_int
  end

type 'a slot = { hash : int; tag : int; key : string; value : 'a }

(* A FIFO ring: [slots] grows to the capacity, then [next] names the
   oldest slot, which the next insertion overwrites. At 64 entries a
   linear scan over the fingerprints is cheaper than any hashing of the
   key would be. *)
type 'a table = {
  mutable slots : 'a slot array;
  mutable next : int;
  mutable hits : int;
  mutable misses : int;
}

let capacity = 64

type 'a t = 'a table Domain.DLS.key

let new_table () = { slots = [||]; next = 0; hits = 0; misses = 0 }

let clear_table tb =
  tb.slots <- [||];
  tb.next <- 0;
  tb.hits <- 0;
  tb.misses <- 0

(* Every memo, for [clear_all]/[stats_all]; memos are created at module
   initialisation, but a CAS keeps a concurrent [create] safe anyway. *)
type handle = { clear_h : unit -> unit; stats_h : unit -> int * int }

let registry : handle list Atomic.t = Atomic.make []

let rec register h =
  let l = Atomic.get registry in
  if not (Atomic.compare_and_set registry l (h :: l)) then register h

let stats t =
  let tb = Domain.DLS.get t in
  (tb.hits, tb.misses)

let clear t = clear_table (Domain.DLS.get t)
let length t = Array.length (Domain.DLS.get t).slots

let create () =
  let t = Domain.DLS.new_key new_table in
  register { clear_h = (fun () -> clear t); stats_h = (fun () -> stats t) };
  t

let find_or_add t ?(tag = 0) key compute =
  let tb = Domain.DLS.get t in
  let hash = sampled_hash key in
  let slots = tb.slots in
  let rec scan i =
    if i = Array.length slots then -1
    else
      let s = Array.unsafe_get slots i in
      if s.hash = hash && s.tag = tag && String.equal s.key key then i else scan (i + 1)
  in
  match scan 0 with
  | -1 ->
      tb.misses <- tb.misses + 1;
      let value = compute () in
      let s = { hash; tag; key; value } in
      (* re-read: [compute] may have used this memo *)
      if Array.length tb.slots < capacity then tb.slots <- Array.append tb.slots [| s |]
      else begin
        tb.slots.(tb.next) <- s;
        tb.next <- (tb.next + 1) mod capacity
      end;
      value
  | i ->
      tb.hits <- tb.hits + 1;
      slots.(i).value

let stats_all () =
  List.fold_left
    (fun (h, m) r ->
      let h', m' = r.stats_h () in
      (h + h', m + m'))
    (0, 0) (Atomic.get registry)

let clear_all () = List.iter (fun r -> r.clear_h ()) (Atomic.get registry)

(* How fast the host runs right now.

   The benchmark's host is a small VM whose cores are shared with other
   machines: the same integer loop takes anywhere from 40 to 75 ms there,
   in phases of seconds to minutes, and the simulator's own host times
   swing with it. So the benchmark times this fixed slice of work next to
   the program (before and after each build, after each round) and
   reports host times scaled to a host on which one slice takes
   [nominal_s]. The slice is schoolbook multiplication of two 64-limb
   numbers in 26-bit limbs, 400 times: integer multiply-add work like the
   RSA that dominates set-up, with a 2 KB working set and no allocation,
   so neither the program's heap nor its caches change what it measures.
   It lives in the benchmark, not in lib/, so no change to the program
   can speed it up. *)

let nominal_s = 0.005
let a = Array.init 64 (fun i -> (i * 7919) land 0x3ffffff)
let b = Array.init 64 (fun i -> (i * 104729) land 0x3ffffff)
let c = Array.make 128 0

let slice () =
  let t0 = Monotonic_clock.now () in
  for _ = 1 to 400 do
    Array.fill c 0 128 0;
    for i = 0 to 63 do
      let ai = a.(i) in
      for j = 0 to 63 do
        let k = i + j in
        let v = c.(k) + (ai * b.(j)) in
        c.(k) <- v land 0x3ffffff;
        c.(k + 1) <- c.(k + 1) + (v lsr 26)
      done
    done
  done;
  ignore (Sys.opaque_identity c);
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9

let median_slice slices =
  let s = List.sort compare slices in
  List.nth s (List.length s / 2)

(* host seconds -> seconds on the nominal host, given slices timed
   around them *)
let scale ~slices seconds = seconds *. nominal_s /. median_slice slices

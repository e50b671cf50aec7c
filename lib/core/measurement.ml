open Flicker_crypto
module Builder = Flicker_slb.Builder
module Slb_core = Flicker_slb.Slb_core
module Tpm_types = Flicker_tpm.Tpm_types

type digest = Tpm_types.digest

let extend current value = Sha1.digest (current ^ value)
let extend_chain start values = List.fold_left extend start values

(* --- measurement memoization ------------------------------------------

   Patching and hashing the 64 KB window is the host-side hot path: an
   Optimized launch would run the patch + SHA-1 pass once for the
   session's stub extend and again (twice) for every [after_launch] /
   [final] the verifier side computes. All of those are pure functions
   of the image content and the load address, so they are memoized by
   content ({!Memo}): the raw image bytes tagged with [slb_base] for the
   patched artifacts, the window bytes themselves for [window_digest].
   A content key makes the memo identity-preserving by construction (any
   change to the image, the load address, or the in-memory window —
   including the adversary's corruption hook — misses), and invalidation
   is automatic. *)

type entry = {
  e_initialized : string; (* the patched 64 KB window *)
  e_measured : digest; (* H(measured prefix): [of_image] *)
  mutable e_window : digest option; (* H(full window), on first demand *)
}

let images : entry Memo.t = Memo.create ()
let windows : digest Memo.t = Memo.create ()
let cache_stats = Memo.stats_all
let clear_cache = Memo.clear_all

let lookup image ~slb_base =
  Memo.find_or_add images ~tag:slb_base image.Builder.bytes (fun () ->
      let bytes = Builder.initialize image ~slb_base in
      {
        e_initialized = bytes;
        e_measured = Sha1.digest (String.sub bytes 0 image.Builder.measured_length);
        e_window = None;
      })

(* entries are per-domain, so this write never races *)
let entry_window_digest e =
  match e.e_window with
  | Some d -> d
  | None ->
      let d = Sha1.digest e.e_initialized in
      e.e_window <- Some d;
      d

let window_digest window = Memo.find_or_add windows window (fun () -> Sha1.digest window)

let initialized image ~slb_base = (lookup image ~slb_base).e_initialized

let of_image image ~slb_base = (lookup image ~slb_base).e_measured

let window_hash image ~slb_base = entry_window_digest (lookup image ~slb_base)

let after_launch ?acm image ~slb_base =
  let e = lookup image ~slb_base in
  let start =
    match acm with
    | None -> Tpm_types.zero_digest
    | Some acm -> extend Tpm_types.zero_digest (Sha1.digest acm)
  in
  let v = extend start e.e_measured in
  match image.Builder.flavor with
  | Builder.Standard -> v
  | Builder.Optimized -> extend v (entry_window_digest e)

let after_skinit image ~slb_base = after_launch image ~slb_base

let io_extends ~inputs ~outputs ~nonce =
  let base = [ Sha1.digest inputs; Sha1.digest outputs ] in
  match nonce with None -> base | Some n -> base @ [ n ]

let labeled_io_extends ~inputs ~outputs ~nonce =
  let base = [ ("input", Sha1.digest inputs); ("output", Sha1.digest outputs) ] in
  match nonce with None -> base | Some n -> base @ [ ("nonce", n) ]

let final ?acm ?(pal_extends = []) image ~slb_base ~inputs ~outputs ~nonce =
  extend_chain
    (after_launch ?acm image ~slb_base)
    (pal_extends @ io_extends ~inputs ~outputs ~nonce @ [ Slb_core.cap_value ])

open Flicker_crypto

let check = Alcotest.(check string)

(* FIPS 180 / RFC 1321 test vectors *)
let sha1_vectors =
  [
    ("", "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    ("abc", "a9993e364706816aba3e25717850c26c9cd0d89d");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1" );
    ("The quick brown fox jumps over the lazy dog", "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
  ]

let sha256_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
  ]

let sha512_vectors =
  [
    ( "",
      "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
    );
    ( "abc",
      "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
    );
  ]

let md5_vectors =
  [
    ("", "d41d8cd98f00b204e9800998ecf8427e");
    ("a", "0cc175b9c0f1b6a831c399e269772661");
    ("abc", "900150983cd24fb0d6963f7d28e17f72");
    ("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
    ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b");
    ( "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
      "57edf4a22be3c955ac49da2e2107b67a" );
  ]

let test_vectors name hex vectors () =
  List.iter (fun (input, expected) -> check (name ^ " vector") expected (hex input)) vectors

let test_sha1_million () =
  check "million a's" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Sha1.hex (String.make 1_000_000 'a'))

let test_sha256_million () =
  check "million a's" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (String.make 1_000_000 'a'))

let test_incremental_sha1 () =
  (* chunked updates across block boundaries must equal one-shot *)
  let data = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  List.iter
    (fun sizes ->
      let ctx = Sha1.init () in
      let off = ref 0 in
      List.iter
        (fun n ->
          let take = min n (String.length data - !off) in
          Sha1.update ctx (String.sub data !off take);
          off := !off + take)
        sizes;
      Sha1.update ctx (String.sub data !off (String.length data - !off));
      check "incremental" (Util.to_hex (Sha1.digest data)) (Util.to_hex (Sha1.finalize ctx)))
    [ [ 1; 63; 64; 65; 127 ]; [ 512; 488 ]; [ 999 ]; List.init 100 (fun _ -> 10) ]

let test_padding_boundaries () =
  (* lengths around the 55/56/63/64 padding edges *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      (* digest must be stable and 20 bytes; incremental equals one-shot *)
      let ctx = Sha1.init () in
      Sha1.update ctx s;
      check "boundary" (Util.to_hex (Sha1.digest s)) (Util.to_hex (Sha1.finalize ctx));
      Alcotest.(check int) "size" 20 (String.length (Sha1.digest s)))
    [ 54; 55; 56; 57; 63; 64; 65; 119; 120; 128 ]

let test_hash_facade () =
  Alcotest.(check int) "sha1 size" 20 (Hash.digest_size Hash.SHA1);
  Alcotest.(check int) "sha256 size" 32 (Hash.digest_size Hash.SHA256);
  Alcotest.(check int) "sha512 size" 64 (Hash.digest_size Hash.SHA512);
  Alcotest.(check int) "md5 size" 16 (Hash.digest_size Hash.MD5);
  Alcotest.(check int) "sha512 block" 128 (Hash.block_size Hash.SHA512);
  Alcotest.(check int) "sha1 block" 64 (Hash.block_size Hash.SHA1);
  check "facade routes sha1" (Sha1.hex "xyz") (Hash.hex Hash.SHA1 "xyz");
  check "name" "SHA-256" (Hash.name Hash.SHA256)

let test_hmac_rfc2202 () =
  let hex = Util.to_hex in
  check "case 1" "b617318655057264e28bc0b6fb378c8ef146be00"
    (hex (Hmac.sha1 ~key:(String.make 20 '\x0b') "Hi There"));
  check "case 2" "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
    (hex (Hmac.sha1 ~key:"Jefe" "what do ya want for nothing?"));
  check "case 3" "125d7342b9ac11cd91a39af48aa17b4f63f175d3"
    (hex (Hmac.sha1 ~key:(String.make 20 '\xaa') (String.make 50 '\xdd')));
  check "long key" "aa4ae5e15272d00e95705637ce8a3b55ed402112"
    (hex
       (Hmac.sha1 ~key:(String.make 80 '\xaa')
          "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hmac_sha256_rfc4231 () =
  check "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Util.to_hex (Hmac.mac Hash.SHA256 ~key:(String.make 20 '\x0b') "Hi There"))

let test_hmac_verify () =
  let key = "secret" and msg = "message" in
  let tag = Hmac.sha1 ~key msg in
  Alcotest.(check bool) "good" true (Hmac.verify Hash.SHA1 ~key ~msg ~tag);
  Alcotest.(check bool) "bad tag" false
    (Hmac.verify Hash.SHA1 ~key ~msg ~tag:(String.make 20 '\000'));
  Alcotest.(check bool) "bad msg" false (Hmac.verify Hash.SHA1 ~key ~msg:"other" ~tag)

let test_finalize_once () =
  (* reusing a finalized streaming context must raise, not silently hash
     into dead state: the second finalize used to re-pad and return a
     different digest for the "same" data *)
  let expect_invalid name f =
    Alcotest.(check bool) name true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  let ctx = Sha1.init () in
  Sha1.update ctx "abc";
  let d = Sha1.finalize ctx in
  check "first finalize correct" (Sha1.hex "abc") (Util.to_hex d);
  expect_invalid "sha1 double finalize" (fun () -> Sha1.finalize ctx);
  expect_invalid "sha1 update after finalize" (fun () -> Sha1.update ctx "x");
  let ctx = Sha256.init () in
  Sha256.update ctx "abc";
  ignore (Sha256.finalize ctx);
  expect_invalid "sha256 double finalize" (fun () -> Sha256.finalize ctx);
  expect_invalid "sha256 update after finalize" (fun () ->
      Sha256.update ctx "x")

let prop_incremental alg oneshot init update finalize =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s incremental = one-shot" alg)
    ~count:100
    QCheck.(pair (string_of_size Gen.small_nat) (list_of_size (Gen.int_range 0 5) (string_of_size Gen.small_nat)))
    (fun (first, rest) ->
      let all = String.concat "" (first :: rest) in
      let ctx = init () in
      List.iter (update ctx) (first :: rest);
      finalize ctx = oneshot all)

let prop_sha1_avalanche =
  QCheck.Test.make ~name:"sha1: flipping a bit changes the digest" ~count:100
    QCheck.(string_of_size Gen.(int_range 1 200))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
      Sha1.digest s <> Sha1.digest (Bytes.to_string b))

(* --- content memo ------------------------------------------------------ *)

let sha1_memo : string Memo.t = Memo.create ()
let memo_sha1 s = Memo.find_or_add sha1_memo s (fun () -> Sha1.digest s)

let flip s off =
  let b = Bytes.of_string s in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff));
  Bytes.to_string b

(* strings up to 20 KB, so most lengths take the sampled path (>= 512 B)
   and most offsets fall between the sampled words *)
let string_and_offset =
  QCheck.make
    ~print:(fun (s, off) -> Printf.sprintf "len %d, offset %d" (String.length s) off)
    QCheck.Gen.(
      int_range 1 20_000 >>= fun len ->
      string_size ~gen:char (return len) >>= fun s ->
      int_range 0 (len - 1) >|= fun off -> (s, off))

let prop_memo_is_sha1 =
  QCheck.Test.make ~name:"memo: lookups equal Sha1.digest, mutations miss" ~count:200
    string_and_offset (fun (s, off) ->
      let s' = flip s off in
      (* cold, then warm, then the mutant (same length, maybe the same
         fingerprint), then the original again *)
      memo_sha1 s = Sha1.digest s
      && memo_sha1 s = Sha1.digest s
      && memo_sha1 s' = Sha1.digest s'
      && memo_sha1 s = Sha1.digest s)

let test_memo_unsampled_mutation () =
  Memo.clear sha1_memo;
  let s = String.init 4096 (fun i -> Char.chr (i * 7 land 0xff)) in
  (* find an offset the fingerprint does not read *)
  let off =
    let rec go i =
      if Memo.sampled_hash (flip s i) = Memo.sampled_hash s then i else go (i + 1)
    in
    go 0
  in
  let s' = flip s off in
  Alcotest.(check string) "original" (Sha1.digest s) (memo_sha1 s);
  Alcotest.(check string) "fingerprint collides, content does not" (Sha1.digest s')
    (memo_sha1 s');
  Alcotest.(check (pair int int)) "the mutant missed" (0, 2) (Memo.stats sha1_memo);
  Alcotest.(check string) "original still hits" (Sha1.digest s) (memo_sha1 s);
  Alcotest.(check (pair int int)) "one hit" (1, 2) (Memo.stats sha1_memo)

let test_memo_tags_and_clear () =
  let m : int Memo.t = Memo.create () in
  let calls = ref 0 in
  let get tag = Memo.find_or_add m ~tag "key" (fun () -> incr calls; tag * 10) in
  Alcotest.(check (list int)) "tag is part of the key" [ 10; 20; 10; 20 ]
    [ get 1; get 2; get 1; get 2 ];
  Alcotest.(check int) "computed once per tag" 2 !calls;
  Alcotest.(check (pair int int)) "stats" (2, 2) (Memo.stats m);
  let h, miss = Memo.stats_all () in
  Alcotest.(check bool) "stats_all includes this memo" true (h >= 2 && miss >= 2);
  Memo.clear_all ();
  Alcotest.(check (pair int int)) "clear_all zeroes" (0, 0) (Memo.stats m);
  Alcotest.(check int) "clear_all empties" 0 (Memo.length m);
  Alcotest.(check int) "recomputed after clear" 10 (get 1);
  Alcotest.(check int) "calls" 3 !calls

(* random key streams over pools from half to twice the capacity: the
   table never outgrows its bound, evicts exactly as a FIFO model does, every
   lookup returns the key's own value, and hits + misses count every
   lookup *)
let prop_memo_capacity =
  let capacity = Memo.capacity in
  QCheck.Test.make ~name:"memo: capacity bound and FIFO eviction" ~count:100
    QCheck.(
      pair (int_range (capacity / 2) (2 * capacity))
        (list_of_size Gen.(int_range 0 400) (int_range 0 1000)))
    (fun (pool, draws) ->
      let keys = List.map (fun d -> d mod pool) draws in
      let m : string Memo.t = Memo.create () in
      let key i = Printf.sprintf "%d:%s" i (String.make (if i mod 2 = 0 then 600 else 3) 'k') in
      (* reference FIFO model: most recent insertion first *)
      let model = ref [] in
      List.for_all
        (fun i ->
          let k = key i in
          let expect_hit = List.mem k !model in
          let h0, _ = Memo.stats m in
          let v = Memo.find_or_add m k (fun () -> "v" ^ k) in
          let h1, _ = Memo.stats m in
          if not expect_hit then begin
            model := k :: !model;
            if List.length !model > capacity then
              model := List.filteri (fun j _ -> j < capacity) !model
          end;
          v = "v" ^ k
          && (h1 - h0 = 1) = expect_hit
          && Memo.length m = List.length !model
          && Memo.length m <= capacity)
        keys
      &&
      let h, miss = Memo.stats m in
      h + miss = List.length keys)

let () =
  Alcotest.run "hashes"
    [
      ( "vectors",
        [
          Alcotest.test_case "sha1" `Quick (test_vectors "sha1" Sha1.hex sha1_vectors);
          Alcotest.test_case "sha256" `Quick
            (test_vectors "sha256" Sha256.hex sha256_vectors);
          Alcotest.test_case "sha512" `Quick
            (test_vectors "sha512" Sha512.hex sha512_vectors);
          Alcotest.test_case "md5" `Quick (test_vectors "md5" Md5.hex md5_vectors);
          Alcotest.test_case "sha1 million" `Slow test_sha1_million;
          Alcotest.test_case "sha256 million" `Slow test_sha256_million;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "sha1 incremental" `Quick test_incremental_sha1;
          Alcotest.test_case "padding boundaries" `Quick test_padding_boundaries;
          Alcotest.test_case "facade" `Quick test_hash_facade;
          Alcotest.test_case "finalize is terminal" `Quick test_finalize_once;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "rfc2202 sha1" `Quick test_hmac_rfc2202;
          Alcotest.test_case "rfc4231 sha256" `Quick test_hmac_sha256_rfc4231;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_incremental "sha1" Sha1.digest Sha1.init Sha1.update Sha1.finalize;
            prop_incremental "sha256" Sha256.digest Sha256.init Sha256.update
              Sha256.finalize;
            prop_incremental "sha512" Sha512.digest Sha512.init Sha512.update
              Sha512.finalize;
            prop_incremental "md5" Md5.digest Md5.init Md5.update Md5.finalize;
            prop_sha1_avalanche;
          ] );
      ( "memo",
        [
          Alcotest.test_case "unsampled mutation" `Quick test_memo_unsampled_mutation;
          Alcotest.test_case "tags and clear" `Quick test_memo_tags_and_clear;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_memo_is_sha1; prop_memo_capacity ] );
    ]

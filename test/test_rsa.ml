open Flicker_crypto

let rng = Prng.create ~seed:"rsa-tests"

let test_small_primes () =
  Alcotest.(check int) "count below 1000" 168 (List.length Primality.small_primes);
  Alcotest.(check (list int)) "first few" [ 2; 3; 5; 7; 11 ]
    (List.filteri (fun i _ -> i < 5) Primality.small_primes)

let test_is_probably_prime () =
  let prime v = Primality.is_probably_prime rng (Bignum.of_int v) in
  List.iter (fun p -> Alcotest.(check bool) (string_of_int p) true (prime p))
    [ 2; 3; 5; 101; 104729; 999983 ];
  List.iter (fun c -> Alcotest.(check bool) (string_of_int c) false (prime c))
    [ 0; 1; 4; 100; 561 (* Carmichael *); 999982 ];
  (* a known large prime: 2^127 - 1 *)
  Alcotest.(check bool) "mersenne 127" true
    (Primality.is_probably_prime rng
       (Bignum.of_decimal_string "170141183460469231731687303715884105727"));
  Alcotest.(check bool) "mersenne 127 + 2" false
    (Primality.is_probably_prime rng
       (Bignum.of_decimal_string "170141183460469231731687303715884105729"))

let test_generate_prime () =
  List.iter
    (fun bits ->
      let p = Primality.generate_prime rng ~bits in
      Alcotest.(check int) "exact width" bits (Bignum.bit_length p);
      Alcotest.(check bool) "odd" false (Bignum.is_even p);
      Alcotest.(check bool) "probably prime" true (Primality.is_probably_prime rng p))
    [ 16; 64; 128; 256 ]

let test_keygen_structure () =
  let key = Rsa.generate rng ~bits:256 in
  let open Bignum in
  Alcotest.(check int) "modulus width" 256 (bit_length key.Rsa.pub.Rsa.n);
  Alcotest.(check bool) "n = p*q" true (equal key.Rsa.pub.Rsa.n (mul key.Rsa.p key.Rsa.q));
  (* e*d = 1 mod phi *)
  let phi = mul (sub key.Rsa.p one) (sub key.Rsa.q one) in
  Alcotest.(check bool) "ed = 1 (mod phi)" true
    (equal one (rem (mul key.Rsa.pub.Rsa.e key.Rsa.d) phi));
  (* CRT parameters *)
  Alcotest.(check bool) "dp" true (equal key.Rsa.dp (rem key.Rsa.d (sub key.Rsa.p one)));
  Alcotest.(check bool) "qinv" true
    (equal one (rem (mul key.Rsa.qinv key.Rsa.q) key.Rsa.p))

let test_raw_roundtrip () =
  let key = Rsa.generate rng ~bits:256 in
  let m = Bignum.of_decimal_string "123456789012345" in
  let c = Rsa.encrypt_raw key.Rsa.pub m in
  Alcotest.(check bool) "decrypt(encrypt(m)) = m" true
    (Bignum.equal m (Rsa.decrypt_raw key c));
  Alcotest.check_raises "message too large"
    (Invalid_argument "Rsa.encrypt_raw: message too large") (fun () ->
      ignore (Rsa.encrypt_raw key.Rsa.pub key.Rsa.pub.Rsa.n))

let test_crt_against_plain () =
  let key = Rsa.generate rng ~bits:256 in
  let c = Bignum.of_decimal_string "98765432109876543210" in
  let plain = Bignum.mod_pow ~base:c ~exp:key.Rsa.d ~modulus:key.Rsa.pub.Rsa.n in
  Alcotest.(check bool) "CRT matches plain exponentiation" true
    (Bignum.equal plain (Rsa.decrypt_raw key c))

let test_pkcs1_encrypt () =
  let key = Rsa.generate rng ~bits:512 in
  let msg = "attack at dawn" in
  let ct = Pkcs1.encrypt rng key.Rsa.pub msg in
  Alcotest.(check int) "ciphertext = key size" (Rsa.key_bytes key.Rsa.pub)
    (String.length ct);
  (match Pkcs1.decrypt key ct with
  | Ok m -> Alcotest.(check string) "roundtrip" msg m
  | Error e -> Alcotest.fail e);
  (* randomized padding: two encryptions differ *)
  Alcotest.(check bool) "probabilistic" true (ct <> Pkcs1.encrypt rng key.Rsa.pub msg);
  Alcotest.check_raises "too long" (Invalid_argument "Pkcs1.encrypt: message too long")
    (fun () ->
      ignore (Pkcs1.encrypt rng key.Rsa.pub (String.make (Pkcs1.max_message_bytes key.Rsa.pub + 1) 'x')))

let test_pkcs1_decrypt_failures () =
  let key = Rsa.generate rng ~bits:512 in
  Alcotest.(check bool) "wrong length" true
    (Result.is_error (Pkcs1.decrypt key "short"));
  (* a random blob of the right length almost surely has bad padding *)
  let junk = Prng.bytes rng (Rsa.key_bytes key.Rsa.pub - 1) ^ "\x00" in
  Alcotest.(check bool) "junk rejected" true
    (Result.is_error (Pkcs1.decrypt key ("\x00" ^ String.sub junk 0 (String.length junk - 1) ^ "\x00")))

let test_pkcs1_nonmalleability_guard () =
  (* flipping ciphertext bits must not yield the original plaintext *)
  let key = Rsa.generate rng ~bits:512 in
  let msg = "password123" in
  let ct = Bytes.of_string (Pkcs1.encrypt rng key.Rsa.pub msg) in
  Bytes.set ct 10 (Char.chr (Char.code (Bytes.get ct 10) lxor 0x40));
  match Pkcs1.decrypt key (Bytes.to_string ct) with
  | Error _ -> ()
  | Ok m -> Alcotest.(check bool) "differs" true (m <> msg)

let test_sign_verify () =
  let key = Rsa.generate rng ~bits:512 in
  List.iter
    (fun alg ->
      let s = Pkcs1.sign key alg "signed message" in
      Alcotest.(check bool) "verifies" true
        (Pkcs1.verify key.Rsa.pub alg ~msg:"signed message" ~signature:s);
      Alcotest.(check bool) "wrong message" false
        (Pkcs1.verify key.Rsa.pub alg ~msg:"other message" ~signature:s);
      Alcotest.(check bool) "wrong alg" false
        (Pkcs1.verify key.Rsa.pub
           (if alg = Hash.SHA1 then Hash.MD5 else Hash.SHA1)
           ~msg:"signed message" ~signature:s))
    [ Hash.SHA1; Hash.SHA256; Hash.MD5 ];
  let key2 = Rsa.generate rng ~bits:512 in
  let s = Pkcs1.sign key Hash.SHA1 "msg" in
  Alcotest.(check bool) "wrong key" false
    (Pkcs1.verify key2.Rsa.pub Hash.SHA1 ~msg:"msg" ~signature:s);
  Alcotest.(check bool) "wrong length sig" false
    (Pkcs1.verify key.Rsa.pub Hash.SHA1 ~msg:"msg" ~signature:"short")

let test_serialization () =
  let key = Rsa.generate rng ~bits:256 in
  let pub' = Rsa.public_of_string (Rsa.public_to_string key.Rsa.pub) in
  Alcotest.(check bool) "public roundtrip" true
    (Bignum.equal pub'.Rsa.n key.Rsa.pub.Rsa.n && Bignum.equal pub'.Rsa.e key.Rsa.pub.Rsa.e);
  let key' = Rsa.private_of_string (Rsa.private_to_string key) in
  Alcotest.(check bool) "private roundtrip" true
    (Bignum.equal key'.Rsa.d key.Rsa.d && Bignum.equal key'.Rsa.qinv key.Rsa.qinv);
  Alcotest.(check bool) "garbage rejected" true
    (match Rsa.private_of_string "garbage" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_distinct_keys () =
  let k1 = Rsa.generate rng ~bits:256 in
  let k2 = Rsa.generate rng ~bits:256 in
  Alcotest.(check bool) "moduli differ" false (Bignum.equal k1.Rsa.pub.Rsa.n k2.Rsa.pub.Rsa.n)

(* Values captured before Montgomery exponentiation replaced
   square-and-multiply: faster arithmetic must not change a single key.
   The [mod_pow] call count is fixed by the PRNG stream, so it moves if
   the Miller-Rabin round count or any random draw changes. *)
let test_keygen_golden () =
  List.iter
    (fun (bits, calls, modulus) ->
      let before = Bignum.mod_pow_calls () in
      let key = Rsa.generate (Prng.create ~seed:(Printf.sprintf "golden-rsa-%d" bits)) ~bits in
      Alcotest.(check int) (Printf.sprintf "mod_pow calls, %d-bit keygen" bits) calls
        (Bignum.mod_pow_calls () - before);
      Alcotest.(check string) (Printf.sprintf "%d-bit modulus" bits) modulus
        (Bignum.to_hex key.Rsa.pub.Rsa.n))
    [
      ( 512,
        44,
        "aaeba4bd7850e8ef6213cb2cae7d9201aae4ccdc4510ff28e154ec77a27abffa0b4f6e9ed9123be62bd5e1\
         66209b7564751bf85023f12fa66c4c55286cd0daf3" );
      ( 1024,
        80,
        "884047bed8581217b1dac4f70908d11d296f414cda89dd878a219c3881d3d2c167d1d29d145829f5653c1b\
         8e1f9ad8a1c42f03f2bd6ba11a166463e429fb8ddb77b61849fa75d73ec3a45f7d116f67b5c00f9c3b2c32\
         ac9b01f0032230dd39ac4a80ff3ab9753e2a5627a14860336595e4b754f225155eebc2e812df27188ccd" );
    ]

(* A seeded platform's TPM hierarchy, pinned by the SHA-1 of each public
   key. The TPM draws its keys from the platform seed forked as "tpm", so
   regenerating them from that stream also exposes the SRK. *)
let test_platform_keys_golden () =
  let module Keys = Flicker_tpm.Keys in
  let module Tpm = Flicker_tpm.Tpm in
  let p = Flicker_core.Platform.create ~seed:"golden-platform" ~key_bits:512 () in
  let keys = Keys.generate (Prng.fork (Prng.create ~seed:"golden-platform") ~label:"tpm") ~key_bits:512 in
  let sha1 pub = Sha1.hex (Rsa.public_to_string pub) in
  let ek = "b6b7ffc27cea967a5b4295c0a2398aecdae2f733"
  and srk = "1677336a24af534fd689caad5a87851d87a3dbbe"
  and aik = "24db2123f82ff0bd4001a41f1daacaeba8b7e3b1" in
  Alcotest.(check string) "platform EK" ek (sha1 (Tpm.ek_public p.Flicker_core.Platform.tpm));
  Alcotest.(check string) "platform AIK" aik (sha1 (Tpm.aik_public p.Flicker_core.Platform.tpm));
  Alcotest.(check string) "EK" ek (sha1 keys.Keys.ek.Rsa.pub);
  Alcotest.(check string) "SRK" srk (sha1 keys.Keys.srk.Rsa.pub);
  Alcotest.(check string) "AIK" aik (sha1 keys.Keys.aik.Rsa.pub)

let prop_crt_roundtrip =
  let key = Rsa.generate (Prng.create ~seed:"rsa-crt-roundtrip") ~bits:512 in
  let n = key.Rsa.pub.Rsa.n in
  let edge = [ Bignum.zero; Bignum.one; Bignum.sub n Bignum.one ] in
  QCheck.Test.make ~name:"CRT decrypt inverts encrypt" ~count:100
    (QCheck.make ~print:Bignum.to_hex
       QCheck.Gen.(
         frequency
           [
             (1, oneofl edge);
             (9, map (fun s -> Bignum.rem (Bignum.of_bytes_be s) n) (string_size (return 64)));
           ]))
    (fun m -> Bignum.equal m (Rsa.decrypt_raw key (Rsa.encrypt_raw key.Rsa.pub m)))

let prop_pkcs1_roundtrip =
  let key = Rsa.generate rng ~bits:512 in
  QCheck.Test.make ~name:"PKCS#1 encrypt/decrypt roundtrip" ~count:50
    QCheck.(string_of_size Gen.(int_range 0 (Pkcs1.max_message_bytes key.Rsa.pub)))
    (fun msg -> Pkcs1.decrypt key (Pkcs1.encrypt rng key.Rsa.pub msg) = Ok msg)

let prop_sign_all_messages =
  let key = Rsa.generate rng ~bits:512 in
  QCheck.Test.make ~name:"signatures verify for arbitrary messages" ~count:30
    QCheck.(string_of_size Gen.(int_range 0 1000))
    (fun msg ->
      Pkcs1.verify key.Rsa.pub Hash.SHA1 ~msg ~signature:(Pkcs1.sign key Hash.SHA1 msg))

let () =
  Alcotest.run "rsa"
    [
      ( "primality",
        [
          Alcotest.test_case "small primes" `Quick test_small_primes;
          Alcotest.test_case "miller-rabin" `Quick test_is_probably_prime;
          Alcotest.test_case "prime generation" `Slow test_generate_prime;
        ] );
      ( "rsa",
        [
          Alcotest.test_case "keygen structure" `Quick test_keygen_structure;
          Alcotest.test_case "raw roundtrip" `Quick test_raw_roundtrip;
          Alcotest.test_case "CRT correctness" `Quick test_crt_against_plain;
          Alcotest.test_case "distinct keys" `Quick test_distinct_keys;
          Alcotest.test_case "keygen golden" `Quick test_keygen_golden;
          Alcotest.test_case "platform keys golden" `Quick test_platform_keys_golden;
        ] );
      ( "pkcs1",
        [
          Alcotest.test_case "encrypt" `Quick test_pkcs1_encrypt;
          Alcotest.test_case "decrypt failures" `Quick test_pkcs1_decrypt_failures;
          Alcotest.test_case "tampered ciphertext" `Quick test_pkcs1_nonmalleability_guard;
          Alcotest.test_case "sign/verify" `Quick test_sign_verify;
          Alcotest.test_case "serialization" `Quick test_serialization;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_pkcs1_roundtrip; prop_sign_all_messages; prop_crt_roundtrip ]
      );
    ]

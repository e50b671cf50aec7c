(** Arbitrary-precision natural numbers.

    The RSA implementation needs multi-precision arithmetic and no bignum
    library is available in the sealed environment, so this module provides
    one from scratch: little-endian arrays of 26-bit limbs, with schoolbook
    multiplication, Knuth Algorithm D division, and Montgomery
    multiplication for modular exponentiation by an odd modulus. All
    values are non-negative; subtraction of a larger value raises. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** @raise Invalid_argument on negative input. *)

val to_int : t -> int
(** @raise Failure if the value does not fit in an OCaml [int]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val is_even : t -> bool

val add : t -> t -> t
val sub : t -> t -> t
(** @raise Invalid_argument if the result would be negative. *)

val mul : t -> t -> t
val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)]. @raise Division_by_zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val add_int : t -> int -> t
val mul_int : t -> int -> t
val rem_int : t -> int -> int
(** Remainder by a positive int. Divisors below 2{^26} are computed
    without allocating a quotient. @raise Division_by_zero if the divisor
    is not positive. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
val bit_length : t -> int
(** Number of significant bits; [bit_length zero = 0]. *)

val test_bit : t -> int -> bool

val mod_pow : base:t -> exp:t -> modulus:t -> t
(** Modular exponentiation. Odd moduli use Montgomery multiplication with
    a fixed window (1 bit for exponents of at most 64 bits, 4 bits
    otherwise); even moduli use square-and-multiply with a division per
    step. [base] may exceed [modulus].
    @raise Division_by_zero if [modulus] is zero. *)

val mod_pow_calls : unit -> int
(** [mod_pow] calls since process start, over all domains. Host-side
    instrumentation, like {!Sha1.bytes_hashed}: it never touches a
    simulated metric, and for a seeded computation it is a fixed count. *)

val limb_products : unit -> int
(** 26-bit limb multiplications done by [mod_pow]'s Montgomery products
    (odd moduli) since process start. *)

val gcd : t -> t -> t

val mod_inverse : t -> t -> t option
(** [mod_inverse a m] is [Some x] with [a*x = 1 (mod m)] when
    [gcd a m = 1], otherwise [None]. *)

val of_bytes_be : string -> t
(** Interpret a big-endian byte string as a natural number. *)

val to_bytes_be : ?pad_to:int -> t -> string
(** Minimal big-endian encoding, optionally left-padded with zero bytes to
    [pad_to] bytes. The encoding of [zero] without padding is [""]. *)

val of_hex : string -> t
val to_hex : t -> string

val of_decimal_string : string -> t
(** @raise Invalid_argument on non-digit characters or empty input. *)

val to_decimal_string : t -> string

val pp : Format.formatter -> t -> unit
(** Prints the decimal rendering. *)

val random_bits : (int -> string) -> int -> t
(** [random_bits rand nbits] draws a uniformly random value below
    [2^nbits] using [rand n], a source of [n] random bytes. *)

val random_below : (int -> string) -> t -> t
(** [random_below rand n] draws a uniformly random value in [[0, n)] by
    rejection sampling. @raise Invalid_argument if [n] is zero. *)

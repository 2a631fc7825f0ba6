(** Arbitrary-precision signed integers.

    The exact rational arithmetic underlying the ILP solver needs integers
    that cannot overflow; OCaml's native [int] is not enough once simplex
    pivots start multiplying coefficients.  This module is a small,
    dependency-free bignum with a native-int fast path.

    {b Representation invariant.}  A value in [[min_int, max_int]] is
    always held as a native [int]; only a value outside that range is
    held as a sign plus a little-endian magnitude in base 2^30 with no
    leading zero digit.  The form is canonical: equal values are
    structurally equal.  Operations on native values are
    overflow-checked; one that overflows is redone on limbs, so every
    result is exact and canonical whichever path computed it. *)

type t

val zero : t
val one : t
val minus_one : t

val of_int : int -> t

val to_int_opt : t -> int option
(** [to_int_opt x] is [Some n] when [x] fits in a native [int]. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit in a native [int]. *)

val of_string : string -> t
(** Accepts an optional leading ['-'] followed by decimal digits.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r], [0 <= |r| < |b|] and
    [r] carrying the sign of [a] (truncated division, like [Int.div]).
    @raise Division_by_zero when [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val gcd : t -> t -> t
(** Greatest common divisor; always non-negative, [gcd zero zero = zero]. *)

val mul_int : t -> int -> t
val pp : Format.formatter -> t -> unit

(** {2 Overflow-checked native arithmetic}

    The checks behind the fast path, shared with {!Rat}. *)

exception Overflow

val add_ovf : int -> int -> int
(** [add_ovf a b] is [a + b]. @raise Overflow when it does not fit. *)

val mul_ovf : int -> int -> int

val int_gcd : int -> int -> int
(** Non-negative gcd of two native ints.  Exact unless both operands
    lie in [{0, min_int}] (the gcd 2^62 does not fit). *)

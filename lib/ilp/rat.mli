(** Exact rational numbers over {!Bigint}.

    Values are kept normalized: the denominator is strictly positive and
    numerator/denominator are coprime.  Exactness is what lets the simplex
    pivot without accumulating floating-point error, so the branch-and-bound
    integrality tests are decisive.

    {b Representation invariant.}  When the normalized numerator and
    denominator both fit in a native [int], the value is held as two
    native ints and every operation on such operands runs on machine
    integers, overflow-checked.  Only a value whose numerator or
    denominator does not fit is held as {!Bigint}s, and only an
    operation that overflows falls back to them.  The form is canonical
    (equal values are structurally equal), so which path produced a
    value is unobservable: results, comparisons and [to_float] are the
    same bit for bit. *)

type t

val zero : t
val one : t
val minus_one : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den].  @raise Division_by_zero when [den] is zero. *)

val of_int : int -> t
val of_ints : int -> int -> t
(** [of_ints num den].  @raise Division_by_zero when [den] is zero. *)

val of_bigint : Bigint.t -> t
val num : t -> Bigint.t
val den : t -> Bigint.t

val of_float : float -> t
(** Exact conversion of a finite float (binary expansion).
    @raise Invalid_argument on nan/infinity. *)

val to_float : t -> float

val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int

val neg : t -> t
val abs : t -> t
val inv : t -> t
(** @raise Division_by_zero on zero. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero when dividing by zero. *)

val min : t -> t -> t
val max : t -> t -> t

val floor : t -> Bigint.t
(** Largest integer [<=] the value. *)

val ceil : t -> Bigint.t
(** Smallest integer [>=] the value. *)

val frac : t -> t
(** [frac x = x - floor x]; always in [[0, 1)]. *)

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( = ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val to_string : t -> string
val pp : Format.formatter -> t -> unit

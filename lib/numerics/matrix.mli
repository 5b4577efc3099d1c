(** Dense matrices of floats (row-major).

    The representation {!Linear_solver.gauss} and {!Linear_solver.jacobi}
    work on, and the reference form tests build.  NAVEP's own systems
    are not region-local: one system spans every duplicated block copy
    of a program (hundreds of unknowns, a handful of entries per row),
    so NAVEP solves them sparse with {!Linear_solver.sparse_gauss} and
    never builds a matrix. *)

type t

val create : rows:int -> cols:int -> t
(** All-zero matrix. *)

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val add_to : t -> int -> int -> float -> unit
(** [add_to m i j v] is [set m i j (get m i j +. v)]. *)

val of_arrays : float array array -> t
(** @raise Invalid_argument on ragged input. *)

val copy : t -> t
val identity : int -> t
val mul_vec : t -> float array -> float array
(** Matrix-vector product.
    @raise Invalid_argument on dimension mismatch. *)

val swap_rows : t -> int -> int -> unit
val pp : Format.formatter -> t -> unit

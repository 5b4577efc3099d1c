(** Solvers for systems of linear equations [A x = b].

    Replaces the paper's use of the Intel MKL solver (see DESIGN.md §2).
    NAVEP solves one system over every duplicated block copy of a
    program — up to several hundred unknowns, each row holding the
    diagonal and one entry per predecessor — with {!sparse_gauss}.
    {!gauss}, the same elimination over a dense matrix, is the reference
    it is tested against, and {!jacobi} an independent cross-check of
    both. *)

val gauss : Matrix.t -> float array -> (float array, string) result
(** Gaussian elimination with partial pivoting.  The matrix and vector
    are not modified.  [Error] on non-square input, dimension mismatch,
    or a (numerically) singular matrix: a pivot of magnitude below
    [1e-12]. *)

type row = { cols : int array; vals : float array }
(** One row of a sparse matrix: the value [vals.(k)] sits in column
    [cols.(k)].  Columns appear at most once, in any order; a column
    that does not appear holds zero. *)

val sparse_gauss : row array -> float array -> (float array, string) result
(** [gauss (to_matrix rows) b], bit for bit, in time and space that
    follow the nonzeros rather than [n^2].  It performs [gauss]'s
    arithmetic on exactly the entries that are or become nonzero: the
    same pivot (largest magnitude, earliest row on a tie), the same
    [1e-12] singular test, the same factor and update expressions, and
    back-substitution summed in increasing column order.  The equality
    holds for finite inputs without [-0.0]; NAVEP's systems are such.
    [Error] where [gauss] errs, or when a column is out of range or
    repeated in a row. *)

val to_matrix : row array -> Matrix.t
(** The dense square matrix of the rows, for {!gauss} and {!jacobi}. *)

val jacobi :
  ?max_iters:int ->
  ?tolerance:float ->
  Matrix.t ->
  float array ->
  (float array, string) result
(** Jacobi iteration from the zero vector.  Converges for strictly
    diagonally dominant systems; [Error] if a diagonal entry is zero or
    the iteration fails to reach [tolerance] (default [1e-12]) within
    [max_iters] (default [10_000]).  Nothing falls back to it: it is a
    cross-check only. *)

(** Weighted statistics used by the paper's accuracy metrics (§2).

    Every comparison in the paper is a weighted standard deviation of a
    predicted probability from an actual probability:

    {v Sd = sqrt( sum_i (P(i) - A(i))^2 * W(i)  /  sum_i W(i) ) v}

    and every "mismatch rate" is a weighted fraction of samples whose
    predicted and actual values fall in different ranges.  Both read
    running sums, to which a caller {!add}s samples one at a time in
    the order it wants them summed. *)

type sums

val empty : sums

val add :
  sums -> predicted:float -> actual:float -> weight:float -> mismatched:bool ->
  sums
(** [mismatched]: the sample's two values fall in different ranges. *)

val count : sums -> int
(** Samples added. *)

val sd : sums -> float
(** The paper's Sd formula; [0.] on zero total weight. *)

val mismatch_rate : sums -> float
(** Fraction (by weight) of the samples added as mismatched; [0.] on
    zero total weight. *)

val mean : float list -> float option
(** Unweighted mean; [None] on an empty list. *)

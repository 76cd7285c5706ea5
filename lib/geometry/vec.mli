(** Dense vectors in R^d as [float array], with the operations the paper's
    geometry needs: norms and distances (Definition 3.1 works in the
    Euclidean metric), inner products (Lemma 4.9 projects differences onto
    basis vectors), and elementwise arithmetic for means and translations. *)

type t = float array

val dim : t -> int
val zero : int -> t
val copy : t -> t

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t

val norm2 : t -> float
(** Euclidean (L2) norm. *)

val dist : t -> t -> float
(** Euclidean distance, computed without allocating. *)

val dist_sq : t -> t -> float

val ball_r2 : float -> float
(** [ball_r2 r] — the largest float [a] with [sqrt a <= r].  A squared
    distance [acc] satisfies [acc <= ball_r2 r] exactly when
    [sqrt acc <= r] ([sqrt] is correctly rounded, hence monotone), so a
    count against [ball_r2 r] is the count of points whose {!dist} is at
    most [r] — bit for bit, with no ulp ties left to [r *. r]'s rounding.
    Every ball count in the library compares against it.  [infinity] for
    [r = infinity], the largest finite float when [r *. r] overflows, and
    [neg_infinity] (an empty ball) for a negative or NaN [r]. *)

val mean : t array -> t
(** Arithmetic mean.  @raise Invalid_argument on an empty array. *)

val pp : Format.formatter -> t -> unit

(** {1 Flat row views}

    Zero-allocation kernels over a row [st.(off) .. st.(off + dim - 1)] of a
    row-major backing store (see {!Pointset} for who owns such storage).
    Every kernel accumulates in the same index order as its boxed
    counterpart above, so the two paths agree bit-for-bit on identical
    inputs. *)

val of_row : float array -> off:int -> dim:int -> t
(** Copy the row out into a fresh boxed vector. *)

val set_row : float array -> off:int -> t -> unit
(** Blit a boxed vector into the row at [off]. *)

val dist_rows : float array -> int -> float array -> int -> dim:int -> float
val dist_sq_to_row : float array -> off:int -> dim:int -> t -> float
val dist_to_row : float array -> off:int -> dim:int -> t -> float

val dot_row : float array -> off:int -> dim:int -> t -> float
(** Inner product of a row with a boxed vector. *)

val dot_rows : float array -> int -> float array -> int -> dim:int -> float

val axpy_row : float -> float array -> off:int -> dim:int -> t -> unit
(** [axpy_row a st ~off ~dim y] performs [y ← a·row + y] in place. *)

module For_testing : sig
  val axpy : float -> t -> t -> unit
  (** [axpy a x y] performs [y ← a·x + y] in place. *)

  val dot : t -> t -> float

  val equal : ?tol:float -> t -> t -> bool
  (** Coordinatewise comparison with absolute tolerance (default 1e-12). *)

  val get : float array -> off:int -> int -> float
  (** [get st ~off i] — coordinate [i] of the row at [off]. *)

  val norm1 : t -> float
  val norm2_sq : t -> float
  val norm_inf : t -> float

  val normalize : t -> t
  (** Unit vector in the same direction.  @raise Invalid_argument on zero. *)

  val of_list : float list -> t
end

(** Random orthonormal bases of R^d (Lemma 4.9).

    GoodCenter (step 8) draws a random orthonormal basis [Z = (z_1 … z_d)];
    with probability ≥ 1 − β every difference [x − y] of input points
    projects onto every [z_i] with magnitude at most
    [2·√(ln(dn/β)/d)·‖x−y‖₂].  The basis is produced by Gram–Schmidt
    orthonormalization of iid Gaussian vectors, which is distributed by the
    Haar measure on the orthogonal group. *)

type t

val make : Prim.Rng.t -> dim:int -> t

val project : t -> Vec.t -> int -> float
(** [project t v i = ⟨v, z_i⟩]. *)

val project_row : t -> float array -> off:int -> int -> float
(** Same, with the point given as a row of a flat store (allocation-free):
    [project_row t st ~off i = ⟨st.(off..off+d-1), z_i⟩]. *)

val from_coords : t -> Vec.t -> Vec.t
(** Inverse: [Σ c_i · z_i]. *)

val projection_bound : dim:int -> n_points:int -> beta:float -> float
(** The factor [2·√(ln(d·n/β)/d)] of Lemma 4.9: with probability ≥ 1 − β,
    [|⟨x − y, z_i⟩| ≤ bound · ‖x − y‖₂] for all pairs and all axes. *)

module For_testing : sig
  val basis_vector : t -> int -> Vec.t

  val identity : dim:int -> t
  (** The standard basis (deterministic). *)

  val to_coords : t -> Vec.t -> Vec.t
  (** All [d] projections — the coordinates of [v] in the rotated frame. *)
end

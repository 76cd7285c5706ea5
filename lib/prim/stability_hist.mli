(** Stability-based histogram — the "choosing mechanism" of Theorem 2.5
    ([BNS13], [Vadhan 2016]).

    Given a partition [P] of the data universe (presented as a key function),
    privately return a cell containing approximately the maximum number of
    input elements.  Crucially the guarantee does not depend on the number of
    cells [|P|], which may be countably infinite (GoodCenter partitions R^k
    into infinitely many boxes): only non-empty cells are ever materialized,
    and the Laplace + threshold construction keeps [(ε, δ)]-DP because a
    neighboring database can only create/destroy one cell, whose noisy count
    crosses the release threshold with probability ≤ δ.

    Utility (Theorem 2.5): if the max cell holds [T ≥ (2/ε)·log(4n/(βδ))]
    elements then with probability ≥ 1 − β the returned cell holds at least
    [T − (4/ε)·log(2n/β)] elements. *)

type 'k cell = { key : 'k; count : int; noisy_count : float }

val release_threshold : eps:float -> delta:float -> float
(** The smallest noisy count at which a cell may be released:
    [1 + (2/ε)·ln(2/δ)]. *)

val count_by : key:('a -> 'k) -> 'a array -> ('k * int) list
(** Group the data by key; only non-empty cells appear.  Keys are compared
    with structural equality (polymorphic hashing).

    Cells come in first-seen order, the order in which each cell's first
    element appears in [data]; {!select} draws one noise per cell in it. *)

val select :
  Rng.t -> eps:float -> delta:float -> ('k * int) list -> 'k cell option
(** Add Lap(2/ε) to each non-empty cell's count and return the noisy argmax
    if it clears {!release_threshold}, else [None].  [(ε, δ)]-DP. *)

val select_by :
  Rng.t -> eps:float -> delta:float -> key:('a -> 'k) -> 'a array -> 'k cell option
(** [count_by] followed by [select]. *)

val utility_requirement : eps:float -> delta:float -> n:int -> beta:float -> float
(** The [T ≥ (2/ε)·log(4n/(βδ))] bound of Theorem 2.5. *)

val utility_loss : eps:float -> n:int -> beta:float -> float
(** The [(4/ε)·log(2n/β)] loss of Theorem 2.5. *)

(** Sherman–Morrison–Woodbury rank-k re-solve.

    Given a factorisation of [A] (as an opaque [solve] closure) and a
    low-rank perturbation [A' = A + Σᵢ uᵢ·vᵢᵀ], solves [A' x = b]
    without refactorising:

    {v x = y − Z·(I + Vᵀ·Z)⁻¹·(Vᵀ·y),   y = A⁻¹b,  Z = A⁻¹U v}

    Preparation performs [k] solves against the existing factors plus a
    dense [k × k] factorisation; each subsequent {!solve} costs one
    solve against the existing factors plus [O(k·n)].  This is the
    kernel that lets the fault-injection FMEA reuse the golden
    factorisation: a failure mode changes a handful of MNA stamps, which
    is exactly a rank-1 or rank-2 update. *)

type sparse_vec = (int * float) array
(** A sparse column as (index, value) pairs. *)

type t

val prepare :
  n:int ->
  solve:(float array -> float array) ->
  u:sparse_vec array ->
  v:sparse_vec array ->
  t
(** [prepare ~n ~solve ~u ~v] builds the re-solve kernel for
    [A + Σ uᵢvᵢᵀ], where [solve] applies [A⁻¹] (e.g.
    {!Lu.solve_factored} or {!Sparse.solve_factored} partially applied
    to existing factors).  Raises {!Lu.Singular} when the capacitance
    matrix [I + VᵀA⁻¹U] is singular — by the determinant lemma this
    means the updated matrix itself is singular (for nonsingular [A]).
    Raises [Invalid_argument] when [u] and [v] differ in length. *)

val rank : t -> int

val solve : t -> float array -> float array
(** Solve [(A + U·Vᵀ) x = b] reusing the factors of [A] — that is,
    [correct t (s b)], where [s] is the [solve] closure given to
    {!prepare}. *)

val correct : t -> float array -> float array
(** [correct t y], given [y = A⁻¹b], overwrites [y] with the solution
    of [(A + U·Vᵀ) x = b] and returns it — the [O(k·n)] part of
    {!solve}, without the solve against [A]'s factors.  A caller that
    already holds [A⁻¹b] (the golden solution, when a fault leaves the
    right-hand side unchanged) pays only the low-rank correction.  The
    result is bit-identical to {!solve} when [y] is exactly what
    [solve] would return for [b]. *)

val apply_update : t -> float array -> float array
(** [apply_update t x] is [(U·Vᵀ)·x] — the perturbation's contribution
    to a matrix-vector product, used for residual computation in
    iterative refinement. *)

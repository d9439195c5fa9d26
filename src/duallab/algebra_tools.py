"""Finite-dimensional von Neumann algebra solvers.

Commutants, bicommutant dimensions, permutation-invariant (fixed-point)
algebras, and the span-growth verification used to certify that
one-sided multiplication operators generate the full invariant algebra.

Two independent routes compute generated-algebra dimensions: a spectral
block-structure decomposition (eigenspace clustering of a generic
element, then coupling analysis) and a breadth-first span closure under
products.  Both must agree or the caller gets :class:`NumericError`;
nothing here trusts a single numerical method.

The one-sided actions enter the dense solvers as acting factors on
(C^N)^(x m), never as model-space lifts: a lift is a fixed index
permutation of factor x 1, and X -> X x 1 is an injective unital
*-homomorphism, so the generated dimensions agree.  The dense cap
still bounds the model dimension.  Every generator enters at unit
2-norm, so no rank cut depends on its units (see ``RANK_TOL``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations_with_replacement, permutations
from typing import Callable, Sequence

import numpy as np

from .duality_core import haar_unitary
from .legops import (
    CapExceededError,
    DenseOperator,
    ModelSpace,
    NumericError,
    StructuredOperator,
    _check_cap,
    _check_finite,
    _Group,
)

# Cut of every rank decision here: generators and closure multipliers enter at
# unit 2-norm (floored at 0, as scaling a generator leaves its algebra as is),
# so a closure residual or |V* g V| entry at most RANK_TOL is zero.  An SVD's
# rounding floor, n * eps * sigma_max, is under 1e-12 for n <= DENSE_CAP.
RANK_TOL = 1e-8
# Admission cut on Gram eigenvalues.  An eigenvalue of S S^H is a squared
# singular value of S, so 1e-10 * lambda_max is the sigma cut
# 1e-5 * sigma_max.  The eigh noise floor sits near lambda_max * n * eps
# (about 1e-12 * lambda_max for n in the thousands), two decades below;
# a sigma cut at RANK_TOL would square to 1e-16, inside that floor.
GRAM_EIG_TOL = 1e-10
# Largest d that commutant_basis solves: its Gram matrix holds d^4
# entries, 1 MiB at d = 16, 256 MiB at d = 64 and 64 GiB at the next
# model dimension, 256.
COMMUTANT_DIM_CAP = 64
# Round limit of span_closure; a closure still open after it raises.
CLOSURE_ROUNDS = 24

__all__ = [
    "RANK_TOL",
    "COMMUTANT_DIM_CAP",
    "AlgebraBasis",
    "GapReport",
    "SpanGrowthReport",
    "hs_inner",
    "orthonormalize",
    "left_average_generators",
    "commutant_basis",
    "block_structure",
    "span_closure",
    "generated_algebra_dim",
    "fixed_point_basis",
    "fixed_point_dimension",
    "relative_gap",
    "span_growth_check",
]


def hs_inner(x: np.ndarray, y: np.ndarray) -> complex:
    """Normalized trace inner product <x, y> = Tr(y* x) / d."""
    return complex(np.vdot(y, x) / x.shape[0])


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, DenseOperator):
        return op.matrix
    if isinstance(op, StructuredOperator):
        return op.to_dense().matrix
    arr = np.asarray(op, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _unit_norm(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Each matrix over its 2-norm, from one batched norm; a zero one stays zero."""
    norms = np.linalg.norm(np.array(mats), 2, axis=(1, 2))
    return [m / n if n else m for m, n in zip(mats, norms)]


def _gather(generators) -> tuple[list[np.ndarray], int]:
    """The generators as finite d x d matrices at unit 2-norm, and d."""
    mats = [_as_matrix(g) for g in generators]
    if not mats:
        raise ValueError("need at least one generator (or pass the identity)")
    d = mats[0].shape[0]
    if any(m.shape != (d, d) for m in mats):
        raise ValueError("generators must share one dimension")
    _check_cap(d, "acting dimension")
    for m in mats:
        _check_finite(m)
    return _unit_norm(mats), d


def orthonormalize(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal spanning set in the normalized trace inner product.

    Stacks the flattened inputs, takes an SVD, and keeps right singular
    vectors above ``RANK_TOL`` times the largest singular value.  Output
    matrices satisfy <b_i, b_j> = delta_ij under :func:`hs_inner`.
    """
    if not len(mats):
        return []
    d = mats[0].shape[0]
    stack = np.array([m.reshape(-1) for m in mats])
    _, sv, vh = np.linalg.svd(stack, full_matrices=False)
    keep = sv > RANK_TOL * sv[0] if sv.size else np.zeros(0, dtype=bool)
    # rows of vh are Frobenius-orthonormal; sqrt(d) rescales to the
    # normalized trace inner product
    return [vh[i].reshape(d, d) * math.sqrt(d) for i in range(int(keep.sum()))]


@dataclass(eq=False)
class AlgebraBasis:
    """Orthonormal basis of a subspace of M_d, usually a *-algebra.

    ``space`` is the model space when the matrices act there; solvers
    also run on plain matrix spaces (tensor powers of C^N for the
    classical Schur-Weyl check), in which case it is None.  For large
    fixed-point algebras only the dimension is materialized and
    ``elements`` may be empty; ``dimension`` is then authoritative.
    """

    space: ModelSpace | None
    elements: tuple[np.ndarray, ...]
    dimension: int = field(default=-1)

    def __post_init__(self) -> None:
        self.elements = tuple(self.elements)
        if self.dimension < 0:
            self.dimension = len(self.elements)

    @property
    def dim(self) -> int:
        return self.dimension

    def gram_defect(self) -> float:
        """Max deviation of the Gram matrix from the identity."""
        n = len(self.elements)
        if n == 0:
            return 0.0
        flat = np.array(self.elements).reshape(n, -1)
        g = flat @ flat.conj().T / self.elements[0].shape[0]
        return float(np.abs(g - np.eye(n)).max())

    def contains(self, x: np.ndarray) -> bool:
        """True when x lies in the span, to RANK_TOL * max(1, max |x|)."""
        if not self.elements:
            return False
        flat = np.array(self.elements).reshape(len(self.elements), -1)
        xf = np.asarray(x, dtype=np.complex128).reshape(-1)
        resid = xf - (flat.conj() @ xf / self.elements[0].shape[0]) @ flat
        scale = max(1.0, float(np.abs(x).max()))
        return bool(np.abs(resid).max() <= RANK_TOL * scale)


def left_average_generators(p: int, N: int) -> list[np.ndarray]:
    """t_plus(e_ij) on the acting factor (C^N)^(x p), matrix units in
    row-major order: the sum over k of 1^(x k) x e_ij x 1^(x (p-k-1))."""
    eye = np.eye(N)
    mats = []
    for i in range(N):
        for j in range(N):
            e = np.zeros((N, N))
            e[i, j] = 1.0
            mats.append(sum(reduce(np.kron, [eye] * k + [e] + [eye] * (p - k - 1)) for k in range(p)))
    return mats


def _commutant_gram(mats: list[np.ndarray], d: int) -> np.ndarray:
    """Sum of K*K over K = I x h^T - h x I, h = g and g*, which maps the
    row-major vec(X) to vec(X h - h X): in closed form, (g*g + gg*) x I
    - 2 (g* x g^T + g x conj(g)) + I x conj(g*g + gg*) per generator."""
    acts = np.array([h for g in mats for h in (g.conj().T, g)]).reshape(-1, d * d)
    sq = sum(g.conj().T @ g + g @ g.conj().T for g in mats)
    # the cross terms as one rank-2n product, indexed (i, k), (j, l)
    cross = (acts.T @ acts.conj()).reshape(d, d, d, d).transpose(0, 2, 1, 3)
    gram = np.multiply(cross, -2.0, out=np.empty((d, d, d, d), dtype=np.complex128))
    for j in range(d):
        gram[:, j, :, j] += sq
        gram[j, :, j, :] += sq.conj()
    return gram.reshape(d * d, d * d)


def commutant_basis(generators: Sequence) -> AlgebraBasis:
    """Orthonormal basis of the commutant of a generator set.

    The solutions X of X g = g X and X g* = g* X (the adjoints make it
    a *-algebra) are the null space of the d^2 x d^2 Gram matrix of
    those constraints, by ``eigh`` cut at ``GRAM_EIG_TOL`` times the
    larger of the top eigenvalue and 1, the generators' squared 2-norm.
    """
    mats, d = _gather(generators)
    if d > COMMUTANT_DIM_CAP:
        raise CapExceededError(
            f"commutant solve needs d <= {COMMUTANT_DIM_CAP}, got {d}"
        )
    vals, vecs = np.linalg.eigh(_commutant_gram(mats, d))
    # a constraint matrix that is numerically zero (generators commuting
    # with everything) must yield the full null space, not a noise-rank one
    cut = GRAM_EIG_TOL * max(float(vals[-1]), 1.0)
    null = vecs[:, vals <= cut].T
    elements = [row.reshape(d, d) * math.sqrt(d) for row in null]
    space = getattr(generators[0], "space", None)
    return AlgebraBasis(space, tuple(elements))


def _sample_words(mats: list[np.ndarray], rng: np.random.Generator, count: int) -> list[np.ndarray]:
    words = []
    for _ in range(count):
        length = int(rng.integers(2, 4))
        idx = rng.integers(0, len(mats), size=length)
        w = mats[idx[0]]
        for i in idx[1:]:
            w = w @ mats[i]
        words.append(w)
    return words


def block_structure(
    generators: Sequence,
    rng: np.random.Generator | None = None,
) -> tuple[list[tuple[int, int]], int, int]:
    """Wedderburn block data of the unital *-algebra generated by a set.

    Returns (blocks, dim_algebra, dim_commutant) where blocks is a list
    of (k_i, m_i): k_i distinct generic eigenvalue clusters of size m_i
    each, so the algebra is isomorphic to a direct sum of M_{k_i} with
    multiplicity m_i, dim_algebra = sum k_i^2 and dim_commutant =
    sum m_i^2.

    Method: spectral decomposition of a generic Hermitian element of
    the algebra; eigenvalue clusters (runs of the sorted spectrum) are
    the isotypic slices, and two clusters sit in the same block exactly
    when some generator word couples their eigenspaces (a block maximum
    of |V* g V| above ``RANK_TOL``, as the generators enter at unit
    2-norm).  Blocks are listed by first cluster.  A malformed
    clustering (unequal sizes inside one component) triggers a retry
    with a fresh generic element; a third failure raises
    :class:`NumericError`.
    """
    mats, d = _gather(generators)
    rng = np.random.default_rng(0xA15EB) if rng is None else rng
    # |V* g* V| is the transpose of |V* g V| and the coupling graph is
    # symmetrized, so the adjoints enter only the sampled words
    couplers = mats + _sample_words(mats + [g.conj().T for g in mats], rng, min(8, 2 * len(mats)))

    for _ in range(3):
        h = np.zeros((d, d), dtype=np.complex128)
        for g in mats + _sample_words(mats, rng, 4):
            c = rng.standard_normal() + 1j * rng.standard_normal()
            h += c * g + np.conj(c) * g.conj().T
        h = (h + h.conj().T) / 2
        vals, vecs = np.linalg.eigh(h)
        span = max(float(vals[-1] - vals[0]), 1.0)
        # clusters are contiguous: starts[c] is the first index of cluster c
        starts = np.flatnonzero(np.diff(vals, prepend=-np.inf) > RANK_TOL * span)
        sizes = np.diff(starts, append=d)
        nclust = len(starts)
        # reach[u, v]: clusters u and v coupled by some generator word
        reach = np.eye(nclust, dtype=bool)
        for g in couplers:
            gv = np.abs(vecs.conj().T @ g @ vecs)
            blockmax = np.maximum.reduceat(np.maximum.reduceat(gv, starts, axis=0), starts, axis=1)
            reach |= blockmax > RANK_TOL
        reach |= reach.T
        # transitive closure by squaring: reachability within 2^k steps
        while True:
            r = reach.astype(np.float32)
            grown = (r @ r) > 0
            if np.array_equal(grown, reach):
                break
            reach = grown
        # first[c] is the first cluster of c's component, whose size every
        # cluster of the component must share
        first = reach.argmax(axis=1)
        if np.array_equal(sizes, sizes[first]):
            counts = np.bincount(first)
            roots = np.flatnonzero(counts)
            counts = counts[roots]
            blocks = list(zip(counts.tolist(), sizes[roots].tolist()))
            dim_alg = sum(k * k for k, _ in blocks)
            dim_comm = sum(m * m for _, m in blocks)
            return blocks, dim_alg, dim_comm
    raise NumericError("block structure inconsistent after retries")


def _orthonormal_rows(block: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the rows of ``block`` (n x D, n <= D).

    Rank-revealing through the Gram matrix: ``eigh`` of S S^H, keeping
    eigenvalues above ``GRAM_EIG_TOL`` times the largest.
    """
    vals, vecs = np.linalg.eigh(block @ block.conj().T)
    keep = vals > GRAM_EIG_TOL * max(float(vals[-1]), 0.0)
    return (vecs[:, keep].conj().T / np.sqrt(vals[keep])[:, None]) @ block


def _row_norms(block: np.ndarray) -> np.ndarray:
    """2-norms of the rows of a complex block, as one real dot product
    per row of its float64 view (several times faster than
    ``np.linalg.norm(block, axis=1)`` on wide blocks)."""
    flat = np.ascontiguousarray(block).view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


def _project_out(rows: np.ndarray, *blocks: np.ndarray) -> np.ndarray:
    """Subtract from ``rows``, in place, their components along each block
    of orthonormal rows B, as conj(conj(rows) @ B^T) @ B: B is not copied."""
    for b in blocks:
        rows -= (rows.conj() @ b.T).conj() @ b
    return rows


def _closure(
    start: np.ndarray, mults: Sequence[np.ndarray], max_rounds: int, target: int | None = None
) -> tuple[np.ndarray, int]:
    """Breadth-first closure of span{start} (r x d) under right products.

    Returns (basis, rounds): Frobenius-orthonormal rows spanning the
    flattened r x d elements, and the rounds run.  Without a target the
    last round admits nothing.  With one, the closure returns as soon
    as the basis and the round's admitted rows reach ``target`` rows,
    in the round that reaches it, and raises :class:`NumericError` if a
    block would pass it; a closure that ends below it returns as one
    without a target.  The multipliers enter at unit 2-norm; one equal to
    the identity or to an earlier one adds nothing and is skipped.

    Each round admits one multiplier's block frontier * g at a time
    against the basis and the rows the round has admitted (block
    Gram-Schmidt, reorthogonalized), so memory holds one block.
    """
    r, d = start.shape
    distinct: list[np.ndarray] = []
    for g in _unit_norm(mults):
        if not np.array_equal(g, np.eye(d)) and not any(np.array_equal(g, h) for h in distinct):
            distinct.append(g)
    basis = start.reshape(1, -1).astype(np.complex128) / np.linalg.norm(start)
    frontier = basis
    for rounds in range(1, max_rounds + 1):
        f = frontier.shape[0]
        flat = frontier.reshape(f * r, d)
        new = np.empty((0, r * d), dtype=np.complex128)
        for g in distinct:
            # one projection sorts the block: a residual above RANK_TOL
            # carries a new direction, the rest is residue
            cand = _project_out((flat @ g).reshape(f, -1), basis, new)
            live = _row_norms(cand) > RANK_TOL
            if not live.any():
                continue
            # polish only the admitted rows: re-project twice, drop those
            # that fall to the residue level, re-orthonormalize the rest
            rows = _orthonormal_rows(cand[live])
            for _ in range(2):
                _project_out(rows, basis, new)
            rows = rows[_row_norms(rows) > RANK_TOL]
            if len(rows):
                new = np.vstack([new, _orthonormal_rows(rows)])
            if target is not None and len(basis) + len(new) > target:
                raise NumericError(f"span closure passes its target dimension {target}")
            if len(basis) + len(new) == target:
                return np.vstack([basis, new]), rounds
        if not len(new):
            return basis, rounds
        basis = np.vstack([basis, new])
        frontier = new
    raise NumericError(f"span closure open after {max_rounds} rounds")


def span_closure(generators: Sequence) -> tuple[list[np.ndarray], int]:
    """Basis of the unital algebra spanned by words in the generators.

    Breadth-first closure: start from the identity, right-multiply the
    frontier by every distinct generator and adjoint at unit 2-norm, and
    admit the directions whose residual after projection on the current
    basis exceeds ``RANK_TOL``, for at most ``CLOSURE_ROUNDS`` rounds,
    one multiplier's block of candidates at a time.
    Returns (basis, rounds); basis elements are orthonormal under
    :func:`hs_inner`.
    """
    mats, d = _gather(generators)
    basis, rounds = _closure(
        np.eye(d, dtype=np.complex128), mats + [g.conj().T for g in mats], CLOSURE_ROUNDS
    )
    return [row.reshape(d, d) * math.sqrt(d) for row in basis], rounds


def generated_algebra_dim(
    generators: Sequence | Callable[[np.random.Generator], np.ndarray],
    rng: np.random.Generator | None = None,
) -> tuple[int, AlgebraBasis]:
    """Dimension of the generated unital *-algebra, doubly certified.

    ``generators`` is either an explicit matrix list or a sampler
    called with an rng (one Haar draw per call).  For a sampler the
    draws start at 8 and double until the spectral-route dimension is
    unchanged across two successive doublings.  The final dimension must
    agree between the spectral block-structure route and an independent
    span closure of the first 4 generators, else :class:`NumericError`.
    """
    rng = np.random.default_rng(0xD1A1) if rng is None else rng
    if callable(generators):
        samples = [generators(rng) for _ in range(8)]
        dim_prev = None
        stable = 0
        dim_spec = 0
        while True:
            _, dim_spec, _ = block_structure(samples, rng=rng)
            if dim_prev is not None and dim_spec == dim_prev:
                stable += 1
            else:
                stable = 0
            dim_prev = dim_spec
            if stable >= 2 or len(samples) >= 512:
                break
            samples += [generators(rng) for _ in range(len(samples))]
        mats = samples
    else:
        mats = [_as_matrix(g) for g in generators]
        _, dim_spec, _ = block_structure(mats, rng=rng)
    basis, _ = span_closure(mats[:4])
    if len(basis) != dim_spec:
        raise NumericError(
            f"span closure dim {len(basis)} vs spectral dim {dim_spec}"
        )
    space = getattr(generators[0], "space", None) if not callable(generators) else None
    return dim_spec, AlgebraBasis(space, tuple(basis))


def fixed_point_dimension(p: int, N: int) -> int:
    """Multiset count C(N^2 + p - 1, p): invariant dimension on p legs."""
    return math.comb(N * N + p - 1, p)


def fixed_point_basis(p: int, N: int, side: str = "left") -> AlgebraBasis:
    """Basis of leg-permutation-invariant multiplication operators.

    Each element is the model-space lift of a symmetrized matrix-unit
    word: the orbit sum over leg permutations of e_{i1 j1} x ... x
    e_{ip jp}, acting by left (or right) multiplication on each leg,
    built as one group with a term per distinct arrangement of the
    word.  Orbit sums over distinct multisets are orthogonal by
    construction, so orthonormalization is a per-element rescaling.

    Dense elements are materialized only while the model dimension
    stays small; beyond that the basis carries the dimension alone.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    space = ModelSpace(N, p, 0) if side == "left" else ModelSpace(N, 0, p)
    _check_cap(space.dim, "model dimension")
    dim = fixed_point_dimension(p, N)
    if space.dim > 256:
        return AlgebraBasis(space, (), dimension=dim)
    units = np.eye(N * N, dtype=np.complex128).reshape(N * N, N, N)  # e_ij at i * N + j
    legs = tuple(range(p))
    elements = []
    for word in combinations_with_replacement(range(N * N), p):
        factors = units[list(dict.fromkeys(permutations(word)))]  # (T, p, N, N)
        eye = np.broadcast_to(np.eye(N, dtype=np.complex128), factors.shape)
        A, B = (factors, eye) if side == "left" else (eye, factors)
        group = _Group(legs, np.ones(len(factors), dtype=np.complex128), legs, A, B)
        mat = StructuredOperator._from_raw(space, [group]).to_dense().matrix
        nrm = math.sqrt(abs(hs_inner(mat, mat)))
        elements.append(mat / nrm)
    assert len(elements) == dim
    return AlgebraBasis(space, tuple(elements))


@dataclass(eq=False)
class GapReport:
    """Generated vs invariant-product dimensions for mixed leg actions."""

    p: int
    q: int
    N: int
    generated_dim: int
    fixed_dim: int
    relative_gap: float


def _acting_factor(u: np.ndarray, p: int, q: int) -> np.ndarray:
    """u x ... x u x conj(u) x ... x conj(u): p copies of u, q of conj(u)."""
    return reduce(np.kron, [u] * p + [u.conj()] * q)


def relative_gap(
    p: int,
    q: int,
    N: int,
    rng: np.random.Generator | None = None,
) -> GapReport:
    """Dimension gap between the algebra generated by u -> l(u)...r(u*)
    tensor actions and the product of one-sided invariant algebras.

    The generated dimension is certified by :func:`generated_algebra_dim`
    on Haar samples; the reference dimension is the product of multiset
    counts for the left and right sides.  The gap (f - g)/f closing as N
    grows is the finite-size shadow of the limiting statement; at finite
    N the difference is spanned by contraction operators, so g < f for
    mixed actions.

    Samples are the N^(p+q)-square acting factors u x .. x u x conj(u)
    x .. x conj(u), not their model-space lifts.
    """
    space = ModelSpace(N, p, q)
    _check_cap(space.dim, "model dimension")
    rng = np.random.default_rng(0x6A9 + 1000 * N + 10 * p + q) if rng is None else rng

    g, _ = generated_algebra_dim(lambda r: _acting_factor(haar_unitary(N, r), p, q), rng=rng)
    f = fixed_point_dimension(p, N) * fixed_point_dimension(q, N)
    return GapReport(
        p=p,
        q=q,
        N=N,
        generated_dim=g,
        fixed_dim=f,
        relative_gap=(f - g) / f,
    )


@dataclass(eq=False)
class SpanGrowthReport:
    """Cyclic-subspace growth of one-sided multiplication averages."""

    p: int
    N: int
    rounds: int
    cyclic_dim: int
    expected_dim: int
    generated_dim: int
    agree: bool


def span_growth_check(p: int, N: int) -> SpanGrowthReport:
    """Inductive cyclic-vector verification on p left legs.

    Starts from the identity vector, repeatedly applies the averaged
    left-multiplication operators t_plus(b) over a matrix-unit basis b,
    and grows the reached subspace until stable.  The reached dimension
    must equal the invariant-algebra dimension C(N^2 + p - 1, p), and
    the algebra generated by the same operators must have that
    dimension as well.  Both routes run on the acting factor: the
    model-space vector of x is x itself, and t_plus(b) multiplies it on
    the left, so the cyclic subspace of the identity is the algebra.
    """
    space = ModelSpace(N, p, 0)
    _check_cap(space.dim, "model dimension")
    mats = left_average_generators(p, N)
    # x m.T = (m x^T)^T: right products by the transposes reach the
    # transposed words, a subspace of the same dimension
    basis, rounds = _closure(np.eye(N**p), [m.T for m in mats], 4 * p + 9)
    # the closing round admits nothing; the others are growth rounds
    rounds -= 1
    cyclic_dim = basis.shape[0]
    expected = fixed_point_dimension(p, N)
    gen_dim, _ = generated_algebra_dim(mats)
    return SpanGrowthReport(
        p=p,
        N=N,
        rounds=rounds,
        cyclic_dim=cyclic_dim,
        expected_dim=expected,
        generated_dim=gen_dim,
        agree=(cyclic_dim == expected == gen_dim),
    )

"""Crossed product of the full operator algebra by leg permutations.

The group G = S_p x S_q acts on operators over the model space by
conjugation with leg-permutation unitaries.  Elements of the crossed
product are finite sums sum_g Pi(a_g) lambda_g, stored as the block map
g -> a_g; multiplication twists by the action, (Pi(a) lambda_g)(Pi(b)
lambda_h) = Pi(a theta_g(b)) lambda_{gh}.  A dense realization on
l2(G, H) backs every algebraic identity with an independent oracle,
gated by the dimension cap.

At finite N the permutation action is inner, so the crossed product
has nontrivial center; its dimension is the number of conjugacy classes
of G, and center_basis returns the class-sum witnesses, checked central
in block form.  The trace tau_hat reads off the identity block; the
complementary trace on the commutant side is computed through its
delta-at-identity values on the shift unitaries.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import Sequence

import numpy as np

from .algebra_tools import CLOSURE_ROUNDS, RANK_TOL, AlgebraBasis, _closure, _row_norms
from .algebra_tools import block_structure, fixed_point_dimension
from .legops import (
    ModelSpace,
    NumericError,
    _check_cap,
    _invert,
    _row_gather,
    permuted_product_trace,
)
from .symcomb import Partition, cycle_type_of_permutation, dimension, enumerate_partitions

__all__ = [
    "ProductGroupElement",
    "CrossedOperator",
    "group_elements",
    "group_conjugacy_classes",
    "leg_unitary",
    "theta_apply",
    "l2_probes",
    "center_basis",
    "CompressionReport",
    "compression_check",
    "TauPrimeValues",
    "trace_tau_prime",
    "TauPrimeRow",
    "tau_prime_table",
    "equivalence_criterion",
    "TraceInequalityReport",
    "trace_inequality_check",
]


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a[b[k]] for k in range(len(a)))


@dataclass(frozen=True)
class ProductGroupElement:
    """Element (s, t) of S_p x S_q, one-line form, legs indexed from 0."""

    s: tuple[int, ...]
    t: tuple[int, ...]

    def __post_init__(self) -> None:
        for part in (self.s, self.t):
            if sorted(part) != list(range(len(part))):
                raise ValueError(f"{part} is not a permutation")

    @classmethod
    def identity(cls, p: int, q: int) -> "ProductGroupElement":
        return cls(tuple(range(p)), tuple(range(q)))

    @property
    def is_identity(self) -> bool:
        return self.s == tuple(range(len(self.s))) and self.t == tuple(
            range(len(self.t))
        )

    def compose(self, other: "ProductGroupElement") -> "ProductGroupElement":
        return ProductGroupElement(_compose(self.s, other.s), _compose(self.t, other.t))

    def inverse(self) -> "ProductGroupElement":
        return ProductGroupElement(_invert(self.s), _invert(self.t))

    def combined(self) -> tuple[int, ...]:
        """One-line permutation of all p + q legs."""
        p = len(self.s)
        return self.s + tuple(p + v for v in self.t)

    def class_key(self) -> tuple:
        """Conjugacy class label: the pair of cycle types."""
        return (
            cycle_type_of_permutation(self.s).parts,
            cycle_type_of_permutation(self.t).parts,
        )


def group_elements(p: int, q: int) -> list[ProductGroupElement]:
    """All of S_p x S_q in a deterministic order."""
    return [
        ProductGroupElement(s, t)
        for s in permutations(range(p))
        for t in permutations(range(q))
    ]


def group_conjugacy_classes(p: int, q: int) -> list[list[ProductGroupElement]]:
    classes: dict[tuple, list[ProductGroupElement]] = {}
    for g in group_elements(p, q):
        classes.setdefault(g.class_key(), []).append(g)
    return [classes[k] for k in sorted(classes)]


def _leg_gather(space: ModelSpace, g: ProductGroupElement) -> np.ndarray:
    """Row index of U_g: U_g = I[idx], so U_g a U_g* = a[idx][:, idx]."""
    if len(g.s) != space.p or len(g.t) != space.q:
        raise ValueError(f"group shape ({len(g.s)},{len(g.t)}) vs space ({space.p},{space.q})")
    return _row_gather(_invert(g.combined()), space.N)


def leg_unitary(space: ModelSpace, g: ProductGroupElement) -> np.ndarray:
    """Dense unitary implementing the leg permutation of g on the model space."""
    return np.eye(space.dim)[_leg_gather(space, g)]


def theta_apply(space: ModelSpace, g: ProductGroupElement, a: np.ndarray) -> np.ndarray:
    """Action of g on an operator over the model space: U_g a U_g*, as a
    gather of the rows and columns of a."""
    idx = _leg_gather(space, g)
    return a[np.ix_(idx, idx)]


class CrossedOperator:
    """Finite block sum sum_g Pi(a_g) lambda_g over the model space.

    Blocks are keyed by :class:`ProductGroupElement`; the decomposition
    is unique, so two operators are equal exactly when all block
    differences vanish.  All-zero blocks are dropped; a non-finite block
    entry or scale factor raises :class:`NumericError`, also for an overflowed
    product.  Blocks are read-only; the ones operations build are not copied.
    """

    __slots__ = ("space", "blocks")

    def __init__(self, space: ModelSpace, blocks: dict | None = None, *, _copy: bool = True):
        self.space = space
        self.blocks: dict[ProductGroupElement, np.ndarray] = {}
        for g, arr in (blocks or {}).items():
            if _copy:
                if len(g.s) != space.p or len(g.t) != space.q:
                    raise ValueError("block group element does not match the space")
                arr = np.array(arr, dtype=np.complex128)
                if arr.shape != (space.dim, space.dim):
                    raise ValueError(
                        f"block must be {space.dim}x{space.dim}, got {arr.shape}"
                    )
            if not np.isfinite(arr).all():
                raise NumericError(f"non-finite entry in the block of {g}")
            if arr.any():
                arr.flags.writeable = False
                self.blocks[g] = arr

    # -- constructors ---------------------------------------------------

    @classmethod
    def embed(cls, space: ModelSpace, a: np.ndarray) -> "CrossedOperator":
        """Pi(a): the fiberwise copy of an operator a over the model space."""
        e = ProductGroupElement.identity(space.p, space.q)
        return cls(space, {e: a})

    @classmethod
    def shift(cls, space: ModelSpace, g: ProductGroupElement) -> "CrossedOperator":
        """lambda_g: the unitary implementing g in the crossed product."""
        return cls(space, {g: np.eye(space.dim)})

    @classmethod
    def zero(cls, space: ModelSpace) -> "CrossedOperator":
        return cls(space, {})

    # -- linear structure -----------------------------------------------

    def _check(self, other: "CrossedOperator") -> None:
        if self.space != other.space:
            raise ValueError("crossed operators on different spaces")

    def __add__(self, other: "CrossedOperator") -> "CrossedOperator":
        self._check(other)
        out = dict(self.blocks)
        for k, v in other.blocks.items():
            out[k] = out[k] + v if k in out else v
        return CrossedOperator(self.space, out, _copy=False)

    def __sub__(self, other: "CrossedOperator") -> "CrossedOperator":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "CrossedOperator":
        if not cmath.isfinite(c):
            raise NumericError(f"non-finite scale factor {c!r}")
        return CrossedOperator(self.space, {k: c * v for k, v in self.blocks.items()}, _copy=False)

    def __mul__(self, c: complex) -> "CrossedOperator":
        return self.scale(c)

    __rmul__ = __mul__

    # -- algebra ----------------------------------------------------------

    def multiply(self, other: "CrossedOperator") -> "CrossedOperator":
        """Twisted product: c_k = sum over gh = k of a_g theta_g(b_h)."""
        self._check(other)
        space = self.space
        out: dict[ProductGroupElement, np.ndarray] = {}
        for g, a in self.blocks.items():
            for h, b in other.blocks.items():
                k = g.compose(h)
                term = a @ theta_apply(space, g, b)
                out[k] = out[k] + term if k in out else term
        return CrossedOperator(space, out, _copy=False)

    def __matmul__(self, other: "CrossedOperator") -> "CrossedOperator":
        return self.multiply(other)

    def adjoint(self) -> "CrossedOperator":
        """Block adjoint: the g block moves to g^{-1} as theta_{g^{-1}}(a_g*)."""
        out = {}
        for g, a in self.blocks.items():
            ginv = g.inverse()
            out[ginv] = theta_apply(self.space, ginv, a.conj().T)
        return CrossedOperator(self.space, out, _copy=False)

    # -- functionals ------------------------------------------------------

    def tau_hat(self) -> complex:
        """Normalized trace: the normalized trace of the identity block."""
        blk = self.blocks.get(ProductGroupElement.identity(self.space.p, self.space.q))
        if blk is None:
            return 0.0 + 0.0j
        return complex(np.trace(blk) / self.space.dim)

    def max_block_norm(self) -> float:
        """Largest Frobenius norm over blocks; zero iff the operator is zero."""
        if not self.blocks:
            return 0.0
        return max(float(np.linalg.norm(v)) for v in self.blocks.values())

    def max_entry(self) -> float:
        """Largest entry modulus over blocks, and so of :meth:`to_dense_l2`,
        whose blocks are theta (entry permutations) of these."""
        return max((float(np.abs(v).max()) for v in self.blocks.values()), default=0.0)

    # -- dense oracle -----------------------------------------------------

    def to_dense_l2(self) -> np.ndarray:
        """Block matrix on l2(G, H): row g, column g' carries
        theta_{g^{-1}}(a_{g g'^{-1}}).
        """
        space = self.space
        elems = group_elements(space.p, space.q)
        n, d = len(elems), space.dim
        _check_cap(n * d, "l2 dimension")
        index = {g: i for i, g in enumerate(elems)}
        out = np.zeros((n * d, n * d), dtype=np.complex128)
        for l, a in self.blocks.items():
            for g in elems:
                col = g.inverse().compose(l).inverse()  # col = l^{-1} g
                i, j = index[g], index[col]
                out[i * d:(i + 1) * d, j * d:(j + 1) * d] = theta_apply(
                    space, g.inverse(), a
                )
        return out


def _probes(space: ModelSpace, rng: np.random.Generator) -> list[CrossedOperator]:
    """Generators of the crossed product: three random fiber elements
    Pi(z), then every shift lambda_g."""
    d = space.dim
    fibers = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(3)]
    return [CrossedOperator.embed(space, z) for z in fibers] + [
        CrossedOperator.shift(space, g) for g in group_elements(space.p, space.q)]


def l2_probes(space: ModelSpace, rng: np.random.Generator) -> list[np.ndarray]:
    """The generators of :func:`_probes`, dense on l2(G, H)."""
    return [pr.to_dense_l2() for pr in _probes(space, rng)]


def center_basis(space: ModelSpace) -> tuple[AlgebraBasis, list[CrossedOperator]]:
    """Center of the crossed product, dense basis plus block witnesses.

    A central element must commute with every fiberwise Pi(a), forcing
    each block a_g into the scalar multiples of U_{g^{-1}} (the leg
    action is implemented by unitaries, so Pi(a)'s relative commutant
    picks up exactly the inner implementers); commuting with the shifts
    then forces the scalars to be constant on conjugacy classes.  The
    resulting class sums are returned both as crossed operators and as
    an orthonormal dense basis on l2(G, H), whose Gram matrix is read
    off the blocks.  Each witness is checked
    against the generators of :func:`l2_probes` in block form:
    ``to_dense_l2`` is a *-homomorphism, so the commutator's largest
    entry is that of the dense one (see :meth:`CrossedOperator.max_entry`).
    """
    elems = group_elements(space.p, space.q)
    _check_cap(len(elems) * space.dim, "l2 dimension")
    witnesses = []
    for cls in group_conjugacy_classes(space.p, space.q):
        blocks = {g: leg_unitary(space, g.inverse()) for g in cls}
        witnesses.append(CrossedOperator(space, blocks))
    probes = _probes(space, np.random.default_rng(0xCE17E5))
    for w in witnesses:
        scale = max(w.max_entry(), 1.0)
        for pr in probes:
            if (w @ pr - pr @ w).max_entry() > 1e-10 * scale * pr.max_entry():
                raise NumericError("claimed center element fails to commute")
    # to_dense_l2 places n entry-permuted copies of every block
    n = len(elems)
    gram = np.array([[n * sum(np.vdot(v.blocks[g], a) for g, a in w.blocks.items() if g in v.blocks)
                      for v in witnesses] for w in witnesses])
    diag = gram.diagonal().real
    off = np.abs(gram - np.diag(diag))
    if not (diag > 0).all() or (off > 1e-12 * np.sqrt(np.outer(diag, diag))).any():
        raise NumericError("center witnesses are not orthogonal")
    scales = np.sqrt(n * space.dim / diag)
    basis = AlgebraBasis(None, tuple(w.to_dense_l2() * c for w, c in zip(witnesses, scales)))
    return basis, witnesses


@dataclass(eq=False)
class CompressionReport:
    """Defects of the averaging-projection relations on l2(G, H)."""

    p: int
    q: int
    N: int
    projection_defect: float
    shift_defect: float
    average_defect: float
    fixed_dim_span: int
    fixed_dim_commutant: int
    certified_stop: bool  # the closure stopped at the fixed-point dimension

    @property
    def passed(self) -> bool:
        return (
            max(self.projection_defect, self.shift_defect, self.average_defect)
            <= 1e-10
            and self.fixed_dim_span == self.fixed_dim_commutant
        )


def _fixed_closure(
    space: ModelSpace, mats: list[np.ndarray], target: int | None
) -> tuple[np.ndarray, bool]:
    """Basis rows of the unital algebra mats generate, and whether its
    closure stopped at ``target``: then every row must be fixed by every
    theta_g to ``RANK_TOL``, a gather of its flattened entries."""
    d = space.dim
    basis, _ = _closure(np.eye(d), mats + [g.conj().T for g in mats], CLOSURE_ROUNDS, target)
    if len(basis) != target:
        return basis, False
    for g in group_elements(space.p, space.q):
        idx = _leg_gather(space, g)
        moved = basis[:, (idx[:, None] * d + idx).ravel()]
        if _row_norms(np.subtract(moved, basis, out=moved)).max() > RANK_TOL:
            raise NumericError(f"span closure stopped at {target} on a row that {g} moves")
    return basis, True


def compression_check(space: ModelSpace, samples: int = 12, seed: int = 0xC0DA) -> CompressionReport:
    """Averaging projection P = |G|^{-1} sum lambda_g and its relations.

    Verifies that P is an orthogonal projection, that P lambda_g P = P
    for every g (the compressed shifts act as the identity on the range
    of P), and that P Pi(a) P = Pi(abar) P with abar the group average
    of a, each in block form: the largest entry of a block difference is
    that of the dense one on l2(G, H).  The span of averaged samples
    must match the commutant of the leg unitaries, the fixed points of
    the group action, whose dimension :func:`block_structure` gives at
    every d.

    When that dimension equals Burnside's count C(N^4 + p - 1, p)
    C(N^4 + q - 1, q), the closure stops on reaching it, as the span
    lies in the fixed algebra, and ``certified_stop`` is set once every
    basis row is fixed by every theta_g.  Otherwise it runs until a
    round admits nothing.
    """
    elems = group_elements(space.p, space.q)
    n, d = len(elems), space.dim
    # no l2 matrix is built; the cap keeps out (2,4,0)'s 4 GB fixed-point basis
    _check_cap(n * d, "l2 dimension")
    rng = np.random.default_rng(seed)
    proj = CrossedOperator(space, {g: np.eye(d) / n for g in elems})
    projection_defect = max((proj @ proj - proj).max_entry(), (proj.adjoint() - proj).max_entry())
    shift_defect = max((proj @ CrossedOperator.shift(space, g) @ proj - proj).max_entry() for g in elems)
    average_defect = 0.0
    averaged = []
    for _ in range(samples):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        abar = sum(theta_apply(space, g, a) for g in elems) / n
        averaged.append(abar)
        lhs = proj @ CrossedOperator.embed(space, a) @ proj
        average_defect = max(average_defect, (lhs - CrossedOperator.embed(space, abar) @ proj).max_entry())
    legs = [leg_unitary(space, g) for g in elems]
    _, _, fixed_dim = block_structure(legs)
    burnside = fixed_point_dimension(space.p, space.N**2) * fixed_point_dimension(space.q, space.N**2)
    span, certified = _fixed_closure(space, averaged, fixed_dim if fixed_dim == burnside else None)
    return CompressionReport(
        p=space.p,
        q=space.q,
        N=space.N,
        projection_defect=projection_defect,
        shift_defect=shift_defect,
        average_defect=average_defect,
        fixed_dim_span=len(span),
        fixed_dim_commutant=fixed_dim,
        certified_stop=certified,
    )


@dataclass(frozen=True)
class TauPrimeValues:
    """Candidate values of the complementary trace on a central projection.

    ``from_delta_trace`` follows from the delta-at-identity trace on
    the shift basis of the commutant: the central projection attached
    to (lam, mu) has identity coefficient dim(lam)^2 dim(mu)^2 / (p!q!).
    ``dim_linear`` is the dimension-linear normalization dim(lam)
    dim(mu) / (p!q!).  The two agree exactly when both dimensions are
    1 and otherwise differ; downstream equivalence classes coincide
    either way because both are strictly increasing in the product.
    """

    from_delta_trace: Fraction
    dim_linear: Fraction


def trace_tau_prime(lam: Partition, mu: Partition) -> TauPrimeValues:
    p, q = lam.weight, mu.weight
    dl, dm = dimension(lam), dimension(mu)
    order = factorial(p) * factorial(q)
    return TauPrimeValues(
        from_delta_trace=Fraction(dl * dl * dm * dm, order),
        dim_linear=Fraction(dl * dm, order),
    )


@dataclass(frozen=True)
class TauPrimeRow:
    lam: Partition
    mu: Partition
    dim_lam: int
    dim_mu: int
    tau_delta_trace: Fraction
    tau_dim_linear: Fraction
    equiv_class: int


def tau_prime_table(p: int, q: int) -> list[TauPrimeRow]:
    """All (lam, mu) rows for fixed (p, q), with equivalence class ids.

    Class ids index the sorted distinct values of dim(lam) * dim(mu);
    two rows share a class exactly when the unitary-equivalence
    criterion holds for their projections.
    """
    pairs = [(lam, mu) for lam in enumerate_partitions(p) for mu in enumerate_partitions(q)]
    products = sorted({dimension(lam) * dimension(mu) for lam, mu in pairs})
    rows = []
    for lam, mu in pairs:
        dl, dm = dimension(lam), dimension(mu)
        vals = trace_tau_prime(lam, mu)
        rows.append(
            TauPrimeRow(
                lam=lam,
                mu=mu,
                dim_lam=dl,
                dim_mu=dm,
                tau_delta_trace=vals.from_delta_trace,
                tau_dim_linear=vals.dim_linear,
                equiv_class=products.index(dl * dm),
            )
        )
    return rows


def equivalence_criterion(
    lam: Partition, mu: Partition, gamma: Partition, delta: Partition
) -> bool:
    """Unitary equivalence of the (lam, mu) and (gamma, delta) projections.

    Holds exactly when dim(lam) dim(mu) = dim(gamma) dim(delta); the
    weights must match pairwise.
    """
    if lam.weight != gamma.weight or mu.weight != delta.weight:
        raise ValueError("partition weights must match pairwise")
    return dimension(lam) * dimension(mu) == dimension(gamma) * dimension(delta)


@dataclass(eq=False)
class TraceInequalityReport:
    """Permuted-product trace bound over sampled unitary tuples."""

    N: int
    s: ProductGroupElement
    samples: int
    max_abs_trace: float
    bound: float
    equality_attained: bool
    all_within: bool


def trace_inequality_check(
    s: ProductGroupElement,
    unitaries: Sequence[Sequence[np.ndarray]],
    N: int,
) -> TraceInequalityReport:
    """Check |tr(U_s (u_1 x ... x u_m))| <= 1/N over plain tensor legs.

    The trace factors over the cycles of the combined permutation, each
    cycle contributing the plain trace of its unitary product; a
    non-identity permutation always has at most m - 1 cycles, which
    gives the 1/N bound, attained at identity unitaries when s is a
    transposition.
    """
    if s.is_identity:
        raise ValueError("the permutation must be non-trivial")
    sigma = s.combined()
    m = len(sigma)
    bound = 1.0 / N
    worst = 0.0
    for tup in unitaries:
        mats = [np.asarray(u, dtype=np.complex128) for u in tup]
        if len(mats) != m:
            raise ValueError(f"need {m} unitaries per tuple, got {len(mats)}")
        if any(u.shape != (N, N) for u in mats):
            raise ValueError(f"expected {N}x{N} unitaries, got shapes {[u.shape for u in mats]}")
        val = abs(permuted_product_trace(sigma, mats)) / N**m
        worst = max(worst, val)
    return TraceInequalityReport(
        N=N,
        s=s,
        samples=len(unitaries),
        max_abs_trace=worst,
        bound=bound,
        equality_attained=worst >= bound - 1e-12,
        all_within=worst <= bound + 1e-12,
    )

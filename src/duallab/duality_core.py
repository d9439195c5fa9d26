"""Derivation-type operators, Haar averaging, and spectral binning.

This module builds the operators that drive the duality experiments:
the mixed one-sided multiplication sums, Young projections acting on a
chosen side of the legs, exact second-moment Haar averages through the
matrix-unit (Peter-Weyl) formula, seeded Monte Carlo integrators for
cross-checking them, the conditional-expectation tower onto dyadic
block subalgebras, and the epsilon-mesh spectral binning of a Hermitian
matrix.

The exact averages really are exact: they return structured operators
whose coefficients are rational in 1/N, so downstream identities can be
tested at 1e-12 rather than at Monte Carlo resolution.  Each second
moment average is one linear map of the moments of u* (x) u, and one
builder, _moment_kernels, applies it: P = (a x 1) W, W a moment tensor,
and a list of (s, t, side of s, side of t, sign) pairs become legops
kernel groups, one N^2 x N^2 kernel per pair of legs, one N x N per
same-leg pair, so no reader merges or re-splits D^2 terms.  The exact
pair and sigma averages take the P of the block units, _unit_product,
the Monte Carlo twins a times the sampled moments.  Like legops' own builders, t_mixed and Young
projections are built as the raw term-group arrays of legops,
canonicalized at most once, on the first read that needs it.
One generator, _product_pairs, holds the sign-and-side rule of the
product t_mixed(a x) o t_mixed(y): sigma_residual takes its term groups
through _product_blocks, sigma_average_exact its kernels, and
product_average_mc kernels for its mean and term groups for its
standard error.

Monte Carlo comes in two samplers over the same draws.  haar_average_mc
densifies an opaque integrand per sample.  _moment_mc serves
haar_pair_average_mc and product_average_mc, the twins of the exact
pair and product averages, whose integrands are linear in the second
moments u* (x) u: a sample adds its N^4 moment entries to a sum, the
mean is the kernels of their mean, densified once, and the squared
norms of the standard error are the traces of the sampled term groups.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .legops import (
    DenseOperator,
    ModelSpace,
    SpaceMismatchError,
    StructuredOperator,
    _eye,
    _Group,
    _KernelGroup,
    _check_finite,
    _one_leg,
    _pure_groups,
    _sanitize,
    _sq_norm,
)
from .symcomb import Partition, character, cycle_type_of_permutation, dimension

__all__ = [
    "t_mixed",
    "t_plus",
    "t_minus",
    "young_projection",
    "haar_unitary",
    "HaarConfig",
    "MCAverage",
    "haar_average_mc",
    "haar_pair_average_exact",
    "haar_pair_average_mc",
    "product_average_mc",
    "SubfactorTower",
    "conditional_expectation",
    "sigma_residual",
    "sigma_average_exact",
    "product_average_exact",
    "LimitFormulaReport",
    "limit_formula_check",
    "SpectralGrid",
    "spectral_binning",
]


# -- one-sided multiplication sums --------------------------------------


def _mult_sum(space: ModelSpace, a: np.ndarray, left: float, right: float) -> StructuredOperator:
    """``left`` times the left multiplications by ``a`` over the left
    legs plus ``right`` times the right ones over the right legs, as one
    raw group of m terms: term t carries ``a`` on its side of leg t, and
    the terms of a zero coefficient drop when it is canonicalized.  One
    surviving term of an ``a`` neither zero nor the identity is its
    canonical one-leg group (``_one_leg``), scaled."""
    N, p, m = space.N, space.p, space.m
    a = _sanitize(a, N)
    eye = _eye(N)
    legs = tuple(range(m))
    t = np.arange(m)  # term t carries a on leg t
    coeffs = np.where(t < p, left, right).astype(np.complex128)
    live = np.flatnonzero(coeffs)
    if len(live) == 1 and a.any() and not (a == eye).all():
        k = int(live[0])
        return _one_leg(space, k, a, k < p).scale(coeffs[k])
    A = np.empty((m, m, N, N), dtype=np.complex128)
    A[...] = eye
    B = A.copy()
    A[t[:p], t[:p]] = a
    B[t[p:], t[p:]] = a
    return StructuredOperator._from_raw(space, [_Group(legs, coeffs, legs, A, B)])


def t_plus(space: ModelSpace, a: np.ndarray) -> StructuredOperator:
    """Sum of left multiplications by ``a`` over the left legs.

    An empty left side yields the zero operator.
    """
    return _mult_sum(space, a, 1.0, 0.0)


def t_minus(space: ModelSpace, a: np.ndarray) -> StructuredOperator:
    """Sum of right multiplications by ``a`` over the right legs."""
    return _mult_sum(space, a, 0.0, 1.0)


def t_mixed(space: ModelSpace, a: np.ndarray) -> StructuredOperator:
    """Left-multiplication sum minus right-multiplication sum."""
    return _mult_sum(space, a, 1.0, -1.0)


# -- Young projections ---------------------------------------------------


def young_projection(
    space: ModelSpace, lam: Partition, side: str = "left"
) -> StructuredOperator:
    """Central Young projection acting on one side's legs.

    (dim lam / b!) * sum over the symmetric group S_b of
    character(lam, class of s) * P(s), with the permutations embedded on
    the left legs (b = p) or the right legs (b = q), one array to legops'
    ``_pure_groups``, where the zero characters drop.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    block = space.p if side == "left" else space.q
    offset = 0 if side == "left" else space.p
    if lam.weight != block:
        raise ValueError(
            f"partition weight {lam.weight} does not match the {side} side size {block}"
        )
    if block == 0:
        return StructuredOperator.identity(space)
    perms = np.array(list(itertools.permutations(range(block))))
    chis = np.array([character(lam, cycle_type_of_permutation(perm)) for perm in perms.tolist()])
    sigmas = np.tile(np.arange(space.m), (len(perms), 1))
    sigmas[:, offset:offset + block] = offset + perms
    coeffs = (dimension(lam) / math.factorial(block) * chis).astype(np.complex128)
    return StructuredOperator._from_canonical(space, tuple(_pure_groups(sigmas, coeffs)))


# -- Haar sampling and averaging -----------------------------------------


def haar_unitary(N: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed N x N unitary.

    QR of a complex Ginibre matrix with the R-diagonal phases folded
    back in, which makes the distribution exactly Haar rather than
    merely approximately invariant.
    """
    x = rng.standard_normal((2, N, N))  # the real plane, then the imaginary
    z = (x[0] + 1j * x[1]) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# Child seed streams a Monte Carlo average splits its samples over, run
# one after another.  The split is part of the determinism contract,
# not parallelism: another count draws other unitaries.
MC_STREAMS = 4


@dataclass(frozen=True)
class HaarConfig:
    """Monte Carlo budget: sample count, master seed, leg size."""

    samples: int
    seed: int
    N: int

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("need at least one sample")


@dataclass(frozen=True, eq=False)
class MCAverage:
    """Empirical mean of a matrix-valued Haar integral.

    ``stderr`` is the Frobenius-aggregated standard error of the mean:
    the square root of the summed per-entry variances of the mean
    estimator.  Deterministic given the seed.
    """

    mean: DenseOperator
    samples: int
    seed: int
    stderr: float

    def distance(self, exact: np.ndarray) -> float:
        """Frobenius distance of the mean from a matrix of its shape, by :func:`_sq_norm`."""
        if np.shape(exact) != self.mean.matrix.shape:
            raise ValueError(f"exact has shape {np.shape(exact)}, the mean {self.mean.matrix.shape}")
        return math.sqrt(_sq_norm(self.mean.matrix - exact))


def _haar_draws(config: HaarConfig):
    """The unitaries of a Monte Carlo average, in sample order: the
    budget split over ``MC_STREAMS`` child seed streams, run in stream
    order, one ``haar_unitary`` call per sample."""
    streams = np.random.SeedSequence(config.seed).spawn(MC_STREAMS)
    base, extra = divmod(config.samples, MC_STREAMS)
    for w, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        for _ in range(base + (w < extra)):
            yield haar_unitary(config.N, rng)


def _stderr(sumsq: float, meansq: float, n: int) -> float:
    """Frobenius standard error of a mean of n samples, from the sum of
    their squared norms and the squared norm of their mean."""
    if n == 1:
        return float("inf")
    return math.sqrt(max(sumsq - n * meansq, 0.0) / ((n - 1) * n))


def haar_average_mc(f, config: HaarConfig) -> MCAverage:
    """Empirical Haar average of ``f(u)`` densified per sample.

    The samples are the unitaries of ``_haar_draws``; the reduction is
    a sum in sample order, so the result is reproducible for a fixed
    seed.  The sum accumulates in place, with one scalar for the
    squared Frobenius norms, so past the first sample a sample
    allocates only its dense matrix.  A sample on another model space
    than the first raises :class:`SpaceMismatchError`, also when the
    two have one dimension.
    """
    total = None
    sumsq = 0.0
    for u in _haar_draws(config):
        dense = f(u).to_dense()
        if total is None:
            space = dense.space
            total = np.zeros_like(dense.matrix)
        elif dense.space != space:
            raise SpaceMismatchError(f"a sample on {dense.space} after samples on {space}")
        total += dense.matrix
        # BLAS dot: _sq_norm costs 40 us more at d = 256, for no report
        sumsq += np.vdot(dense.matrix, dense.matrix).real
    n = config.samples
    mean = np.divide(total, n, out=total)
    stderr = _stderr(sumsq, _sq_norm(mean), n)
    return MCAverage(DenseOperator(space, mean), n, config.seed, stderr)


def _block_size(N: int, block_dim: int | None) -> int:
    """The block dimension D of an average over the leading D x D
    block of M_N (the full group, D = N, by default)."""
    D = N if block_dim is None else block_dim
    if D < 1 or N % D:
        raise ValueError(f"block_dim {D} is not a positive divisor of N={N}")
    return D


def _check_pair(space: ModelSpace, k: int, j: int, mode: str) -> None:
    space.check_leg(k)
    space.check_leg(j)
    if k == j:
        raise ValueError("pair average needs two distinct legs")
    if mode not in ("ll", "rr", "lr"):
        raise ValueError(f"mode must be 'll', 'rr' or 'lr', got {mode!r}")


def _placed_group(space: ModelSpace, placed, coeffs) -> _Group:
    """The raw group of the terms coeffs[t] times the product over
    (leg, side, at) in ``placed`` of the multiplication by at[t] on that
    side ('l' or 'r') of that leg; the legs are distinct."""
    eye = np.broadcast_to(_eye(space.N), placed[0][2].shape)
    placed = sorted(placed, key=lambda t: t[0])  # a group's carried legs ascend
    legs = tuple(leg for leg, _, _ in placed)
    A = np.stack([e if side == "l" else eye for _, side, e in placed], axis=1)
    B = np.stack([eye if side == "l" else e for _, side, e in placed], axis=1)
    return _Group(tuple(range(space.m)), coeffs, legs, A, B)


def _side_axis(leg: int, side: str) -> int:
    """The half-leg axis a one-sided multiplication acts on: the row of
    the leg for 'l', its column for 'r'."""
    return 2 * leg + (side == "r")


def _unit_product(a: np.ndarray, D: int) -> np.ndarray:
    """P = (a x 1) W for the 0/1 tensor W[a, b, c, d] of the sum over
    r, s of U_rs (x) U_sr, U_rs = e_rs x 1_K in M_N = M_D x M_K (D times
    the average of (u*)_ab u_cd over the unitaries of the leading D x D
    block): a's entries times Kronecker deltas, one einsum, no sum."""
    N = len(a)
    # x, C E, F G, H J: a's row, then the (block, inner) digits of b, c, d
    P = np.einsum("xHE,CF,GJ->xCEFGHJ", a.reshape(N, D, N // D), _eye(D), _eye(N // D))
    return P.reshape((N,) * 4)


def _moment_kernels(space: ModelSpace, P: np.ndarray, pairs, D: int) -> tuple:
    """The kernel groups of the average of :func:`_product_blocks` at
    x = u*, y = u over ``pairs``, given P = (a x 1) W, W[b, c, d, e] D
    times the moments of (u*)_bc u_de.  Pair (s, t) is P with each leg's
    index pair as (output, input) on the left (a row axis) and as
    (input, output) on the right (a column axis), its sign applied; for
    s = t the one-axis kernel of the two factors' product.  Kernels on
    the same axes add in pair order, are divided by D, and drop when
    zero."""
    kernels: dict[tuple, np.ndarray] = {}
    for s, t, side_s, side_t, sign in pairs:
        out_s, in_s = (0, 1) if side_s == "l" else (1, 0)
        out_t, in_t = (2, 3) if side_t == "l" else (3, 2)
        axes = (_side_axis(s, side_s), _side_axis(t, side_t))
        if s == t:
            axes, kernel = axes[:1], sign * np.einsum("ommi->oi", P.transpose(out_s, out_t, in_s, in_t))
        else:
            # one C-ordered copy per pair, with its axes ascending as a group stores them
            order = (out_s, out_t, in_s, in_t) if axes[0] < axes[1] else (out_t, out_s, in_t, in_s)
            axes, kernel = tuple(sorted(axes)), np.multiply(P.transpose(order), sign, order="C")
        if axes in kernels:
            kernels[axes] += kernel
        else:
            kernels[axes] = kernel
    groups = (_KernelGroup(tuple(range(space.m)), axes, np.divide(k, D, out=k), True)
              for axes, k in sorted(kernels.items()))
    return tuple(g for g in groups if g.kernel.any())


def haar_pair_average_exact(
    space: ModelSpace, k: int, j: int, mode: str, block_dim: int | None = None
) -> StructuredOperator:
    """Exact Haar average of a product of two one-leg unitary actions.

    Modes, with the average over u ranging across the unitaries of the
    leading block_dim x block_dim block (the full group by default):

    - ``ll``: integral of (left mult by u* on leg k)(left mult by u on leg j)
    - ``rr``: integral of (right mult by u* on leg k)(right mult by u on leg j)
    - ``lr``: integral of (left mult by u* on leg k)(right mult by u on leg j)

    By the second-moment matrix-unit formula each of these equals
    (1/D) * sum over matrix units e_rs placed at leg k and e_sr at leg
    j, in the mode's left/right positions, D being the block dimension:
    one kernel group, the :func:`_moment_kernels` of the one pair
    (k, j) with a = 1, of the block units of :func:`_unit_product`.
    """
    _check_pair(space, k, j, mode)
    N, D = space.N, _block_size(space.N, block_dim)
    groups = _moment_kernels(space, _unit_product(_eye(N), D), [(k, j, mode[0], mode[1], 1.0)], D)
    return StructuredOperator._from_canonical(space, groups)


def haar_pair_average_mc(
    space: ModelSpace, k: int, j: int, mode: str, config: HaarConfig
) -> MCAverage:
    """Monte Carlo twin of :func:`haar_pair_average_exact` (full group):
    the empirical average of X(u*)_k Y(u)_j over the unitaries that
    :func:`haar_average_mc` draws for ``config``.

    The integrand is the one pair (k, j) with a = 1, sampled by
    :func:`_moment_mc`: the exact kernel with W the sampled moments.
    """
    _check_pair(space, k, j, mode)
    return _moment_mc(space, config, _eye(space.N), [(k, j, mode[0], mode[1], 1.0)])


def _product_pairs(space: ModelSpace, same_leg: bool) -> list[tuple]:
    """The one sign-and-side rule of the product t_mixed(a x) o
    t_mixed(y): per pair (s, t) of t_mixed's terms, s = t only if
    ``same_leg``, a x multiplies leg s and y leg t, each on its leg's
    side, with sign +1 if the sides agree and -1 if not.  Lists (s, t,
    side of s, side of t, sign)."""
    p, m = space.p, space.m
    sides = ["lr"[k >= p] for k in range(m)]
    return [(s, t, sides[s], sides[t], 1.0 if sides[s] == sides[t] else -1.0)
            for s, t in itertools.product(range(m), repeat=2) if s != t or same_leg]


def _product_blocks(space: ModelSpace, a: np.ndarray, x, y, pairs) -> list[_Group]:
    """The raw groups, one per pair (s, t, side_s, side_t, sign), of the
    sum over i of sign times the multiplication by a x_i on side_s of
    leg s after the one by y_i on side_t of leg t, one factor if s = t:
    over :func:`_product_pairs`, of t_mixed(a x_i) o t_mixed(y_i)."""
    ax = a @ x
    blocks = []
    for s, t, side_s, side_t, sign in pairs:
        if s == t:
            # L(ax) L(y) = L(ax y), R(ax) R(y) = R(y ax)
            placed = [(s, side_s, ax @ y if side_s == "l" else y @ ax)]
        else:
            placed = [(s, side_s, ax), (t, side_t, y)]
        blocks.append(_placed_group(space, placed, np.full(len(x), sign, dtype=np.complex128)))
    return blocks


# Samples whose squared norms _moment_mc takes together: the product's
# m^2 term groups hold at most 4 m^2 N^2 entries per sample, 512 KiB
# at N = 4, m = 2.  Fixed, so the standard error sums in one order for a
# given sample count.
_NORM_BATCH = 128


def _paired_traces(g: _Group, h: _Group, N: int, m: int) -> np.ndarray:
    """Tr(T_i* T'_i) of the i-th terms of two groups with the identity
    permutation and equally many terms: a product over the legs of
    <A_i, A'_i> <B_i, B'_i>, the identity on a leg a group lacks."""
    gp, hp = ({k: i for i, k in enumerate(x.legs)} for x in (g, h))
    G = np.ones(len(g.coeffs), dtype=np.complex128)
    for k in range(m):
        i, j = gp.get(k), hp.get(k)
        if i is not None and j is not None:
            # entrywise by einsum: a fixed-order sum, without BLAS
            G *= np.einsum("iab,iab->i", g.A[:, i].conj(), h.A[:, j])
            G *= np.einsum("iab,iab->i", g.B[:, i].conj(), h.B[:, j])
        elif i is not None or j is not None:
            A, B = (g.A[:, i].conj(), g.B[:, i].conj()) if j is None else (h.A[:, j], h.B[:, j])
            G = G * (np.trace(A, axis1=1, axis2=2) * np.trace(B, axis1=1, axis2=2))
        else:
            G = G * (N * N)
    return G


def _moment_mc(space: ModelSpace, config: HaarConfig, a: np.ndarray, pairs) -> MCAverage:
    """Empirical Haar average of :func:`_product_blocks` at x = u*,
    y = u over ``pairs``, linear in the second moments: a sample adds
    its N^4 moments (u*)_bc u_de to W, and the mean is the
    :func:`_moment_kernels` of their mean (D = 1), densified once.  The
    squared norms of the standard error are the paired traces
    (``_paired_traces``) of the sampled groups, a batch at a time.
    """
    N = space.N
    if config.N != N:
        raise ValueError(f"config draws {config.N}x{config.N} unitaries, the space has N={N}")
    n = config.samples
    W = np.zeros((N * N, N * N), dtype=np.complex128)
    v = np.empty_like(W)
    us = np.empty((min(n, _NORM_BATCH), N, N), dtype=np.complex128)
    sumsq = 0.0
    for i, u in enumerate(_haar_draws(config)):
        # (u*)_bc u_de at [bN+c, dN+e] by a one-term GEMM, so each entry
        # is the product to_dense forms
        np.matmul(u.conj().T.reshape(N * N, 1), u.reshape(1, N * N), out=v)
        W += v
        row = i % _NORM_BATCH
        us[row] = u
        if row == _NORM_BATCH - 1 or i == n - 1:
            batch = us[: row + 1]
            groups = _product_blocks(space, a, batch.conj().swapaxes(1, 2), batch, pairs)
            sumsq += sum(np.vdot(g.coeffs, _paired_traces(g, h, N, space.m) * h.coeffs)
                         for g in groups for h in groups).real
    W /= n
    kernels = _moment_kernels(space, (a @ W.reshape(N, -1)).reshape((N,) * 4), pairs, 1)
    mean = StructuredOperator._from_canonical(space, kernels).to_dense()
    return MCAverage(mean, n, config.seed, _stderr(sumsq, _sq_norm(mean.matrix), n))


def product_average_mc(space: ModelSpace, a: np.ndarray, config: HaarConfig) -> MCAverage:
    """Monte Carlo twin of :func:`product_average_exact` (full group):
    the empirical average of t_mixed(a u*) o t_mixed(u) over the
    unitaries that :func:`haar_average_mc` draws for ``config``.

    The integrand is every pair of :func:`_product_pairs`, sampled by
    :func:`_moment_mc`: its mean is m(m - 1)/2 two-axis kernels, one per
    pair of legs, and m one-axis kernels, one per leg.
    """
    a = _sanitize(a, space.N)
    return _moment_mc(space, config, a, _product_pairs(space, True))


# -- conditional expectation tower ---------------------------------------


@dataclass(frozen=True)
class SubfactorTower:
    """Dyadic block tower inside M_N: N = 2^levels * complement."""

    levels: int
    complement: int

    def __post_init__(self) -> None:
        if self.levels < 1 or self.complement < 1:
            raise ValueError("need levels >= 1 and complement >= 1")

    @property
    def N(self) -> int:
        return 2**self.levels * self.complement

    @classmethod
    def for_leg_size(cls, N: int) -> "SubfactorTower":
        """Deepest dyadic tower inside M_N."""
        levels = 0
        rest = N
        while rest % 2 == 0:
            rest //= 2
            levels += 1
        if levels == 0:
            raise ValueError(f"leg size {N} has no dyadic factor")
        return cls(levels, rest)


def conditional_expectation(
    tower: SubfactorTower, level: int, a: np.ndarray
) -> np.ndarray:
    """Trace-preserving expectation onto the commutant of the 2^level block.

    Averages u a u* over unitaries of the leading 2^level x 2^level
    tensor factor, which works out to the normalized partial trace over
    that factor re-tensored with its identity.
    """
    if not 1 <= level <= tower.levels:
        raise ValueError(f"level {level} outside 1..{tower.levels}")
    N = tower.N
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != (N, N):
        raise ValueError(f"expected {N}x{N}, got {a.shape}")
    _check_finite(a)
    return _block_expectation(a, 2**level)


def _block_expectation(a: np.ndarray, block_dim: int | None) -> np.ndarray:
    """Average of u a u* over the unitaries of the leading D x D tensor
    factor of M_N: the normalized partial trace over that factor,
    re-tensored with its identity.  D = N, the default, gives tr(a)/N
    times I."""
    N = a.shape[0]
    D = _block_size(N, block_dim)
    K = N // D
    partial = np.einsum("ijil->jl", a.reshape(D, K, D, K)) / D
    return np.kron(np.eye(D), partial)


# -- the residual of the product identity ---------------------------------


def _check_unitary(u: np.ndarray, N: int) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (N, N):
        raise ValueError(f"expected {N}x{N} unitary, got {u.shape}")
    if np.linalg.norm(u.conj().T @ u - np.eye(N)) > 1e-10 * np.sqrt(N):
        raise ValueError("matrix is not unitary within 1e-10")
    return u


def sigma_residual(space: ModelSpace, a: np.ndarray, u: np.ndarray) -> StructuredOperator:
    """Cross-leg remainder of the product of two mixed multiplication sums.

    The product t_mixed(a u*) o t_mixed(u) splits into same-leg terms,
    which collapse to left mult by a and right mult by u a u*, plus the
    cross-leg terms returned here: the blocks s != t of
    :func:`_product_blocks` with x = u* and y = u.  By its
    sign-and-side rule, left-left and right-right pairs enter
    positively, left-right pairs negatively.
    """
    a = _sanitize(a, space.N)
    u = _check_unitary(u, space.N)
    blocks = _product_blocks(space, a, u.conj().T[None], u[None], _product_pairs(space, False))
    return StructuredOperator._from_raw(space, blocks)


def sigma_average_exact(
    space: ModelSpace, a: np.ndarray, block_dim: int | None = None
) -> StructuredOperator:
    """Exact Haar average of the cross-leg remainder.

    The matrix-unit formula averages u* (x) u to (1/D) times the sum of
    e_rs x 1_K (x) e_sr x 1_K, D the block dimension: so the average is
    the :func:`_moment_kernels` of :func:`sigma_residual`'s pairs s != t
    of :func:`_product_pairs`, of the block units of
    :func:`_unit_product`.  (s, t) and (t, s) act on the same two axes,
    so each pair of legs is one kernel group, its two kernels added with
    their signs in pair order, then divided by D.
    """
    a = _sanitize(a, space.N)
    N, D = space.N, _block_size(space.N, block_dim)
    groups = _moment_kernels(space, _unit_product(a, D), _product_pairs(space, False), D)
    return StructuredOperator._from_canonical(space, groups)


def product_average_exact(
    space: ModelSpace, a: np.ndarray, block_dim: int | None = None
) -> StructuredOperator:
    """Exact Haar average of t_mixed(a u*) o t_mixed(u).

    Assembled termwise from the matrix-unit pair averages: the same-leg
    contributions average to t_plus(a) plus t_minus of the block
    expectation of a, and the cross terms to the averaged remainder.
    """
    a = _sanitize(a, space.N)
    expected = _block_expectation(a, block_dim)
    return StructuredOperator.sum([
        t_plus(space, a),
        t_minus(space, expected),
        sigma_average_exact(space, a, block_dim),
    ])


@dataclass(frozen=True)
class LimitFormulaReport:
    """Measured residuals of the averaged product identity.

    ``residual_*`` measure the averaged product minus the difference
    form t_plus(a) - t_minus(E(a)); ``sigma_average_*`` measure the
    averaged cross-leg remainder alone, i.e. the residual against the
    sum form t_plus(a) + t_minus(E(a)).  ``stated_bound`` is the
    reference figure 2 * |a|^2 * (p+q)^2 / N.  It is no bound in
    general: at p = q = 1 on the full unitary group the residual's
    operator norm is |tau(a)| + sqrt(tau(a^2)), which does not decay
    with N (a = I at N = 8 gives 2 against 1).
    """

    N: int
    p: int
    q: int
    block_dim: int | None
    a_op_norm: float
    residual_op_norm: float
    residual_hs_norm: float
    sigma_average_op_norm: float
    sigma_average_hs_norm: float
    stated_bound: float


def limit_formula_check(
    space: ModelSpace,
    a: np.ndarray,
    tower: SubfactorTower | None = None,
    level: int | None = None,
) -> LimitFormulaReport:
    """Measure how far the averaged product is from the difference form.

    With no tower the average runs over the full unitary group of the
    leg and E(a) is the normalized trace times the identity; with a
    tower and level, over the dyadic block subgroup with E the
    conditional expectation of that level.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != (space.N, space.N):
        raise ValueError(f"expected {space.N}x{space.N}, got {a.shape}")
    block_dim = None
    if tower is not None:
        if level is None:
            raise ValueError("a tower level is required with a tower")
        if tower.N != space.N:
            raise ValueError("tower leg size does not match the space")
        if not 1 <= level <= tower.levels:
            raise ValueError(f"level {level} outside 1..{tower.levels}")
        block_dim = 2**level
    expected = _block_expectation(a, block_dim)
    averaged = product_average_exact(space, a, block_dim)
    stated = t_plus(space, a) - t_minus(space, expected)
    residual = averaged - stated
    sigma_avg = sigma_average_exact(space, a, block_dim)
    a_norm = float(np.linalg.norm(a, 2))
    return LimitFormulaReport(
        N=space.N,
        p=space.p,
        q=space.q,
        block_dim=block_dim,
        a_op_norm=a_norm,
        residual_op_norm=residual.operator_norm(),
        residual_hs_norm=residual.hs_norm(),
        sigma_average_op_norm=sigma_avg.operator_norm(),
        sigma_average_hs_norm=sigma_avg.hs_norm(),
        stated_bound=2.0 * a_norm**2 * space.m**2 / space.N,
    )


# -- spectral binning ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Mesh over the spectrum: cuts a_0 < ... < a_M with representatives.

    Adjacent cuts are strictly closer than the epsilon that produced the
    grid, the first cut is the smallest eigenvalue, and the last cut lies
    strictly above the largest, so every eigenvalue falls inside one bin
    [a_i, a_{i+1}).
    """

    lower: float
    upper: float
    cuts: np.ndarray
    representatives: np.ndarray


def spectral_binning(
    A: np.ndarray, eps: float
) -> tuple[np.ndarray, SpectralGrid, list[np.ndarray]]:
    """Bin the spectrum of a Hermitian matrix to mesh below ``eps``.

    Returns (A_eps, grid, projections): A_eps replaces every eigenvalue
    by its bin representative (the multiplicity-weighted mean of the
    bin's eigenvalues, so single-eigenvalue bins are reproduced
    exactly), the projections are the pairwise orthogonal spectral
    projections of the bins and sum to the identity, and the operator
    norm of A - A_eps is strictly below eps.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, float(np.linalg.norm(A)))
    if np.linalg.norm(A - A.conj().T) > 1e-10 * scale:
        raise ValueError("matrix is not Hermitian within 1e-10")
    eigvals, eigvecs = np.linalg.eigh((A + A.conj().T) / 2)
    lower = float(eigvals[0])
    upper = float(eigvals[-1])
    width = 0.99 * eps
    nbins = int(np.floor((upper - lower) / width)) + 1
    cuts = lower + width * np.arange(nbins + 1)
    bin_of = np.minimum(
        np.floor((eigvals - lower) / width).astype(int), nbins - 1
    )
    # most bins of a fine mesh are empty: they keep the cut midpoint and a
    # zero view of one buffer, and only the occupied bins are visited
    reps = (cuts[:-1] + cuts[1:]) / 2
    n = len(eigvals)
    buffer = np.zeros((nbins, n, n), dtype=np.complex128)
    for i in np.flatnonzero(np.bincount(bin_of)).tolist():
        mask = bin_of == i
        reps[i] = eigvals[mask].mean()
        cols = eigvecs[:, mask]
        buffer[i] = cols @ cols.conj().T
    projections = list(buffer)
    binned_vals = reps[bin_of]
    a_eps = (eigvecs * binned_vals) @ eigvecs.conj().T
    a_eps = (a_eps + a_eps.conj().T) / 2
    grid = SpectralGrid(lower, upper, cuts, reps)
    return a_eps, grid, projections

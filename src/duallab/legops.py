"""Structured operators on tensor powers of a tracial matrix algebra.

The model Hilbert space has m = p + q legs, each a copy of the N x N
matrices with the normalized trace inner product <x, y> = tr(x y*)/N.
Every operator handled here is a finite sum of terms

    coefficient * (leg permutation) o (per-leg sandwich x -> A x B),

the sandwich acting first.  This shape is closed under sums, products,
adjoints and the conjugation J: it covers one-sided multiplication
operators, leg permutations, Young projections, Haar pair averages and
all their products, while never materializing an N^(2m) x N^(2m) matrix
unless explicitly asked to.

Storage.  A :class:`StructuredOperator` keeps its terms in groups of
three kinds.  A permutation group holds every pure term c P(sigma) of
the operator: the permutations as the rows of one (G, m) integer array,
in sigma order, and their (G,) coefficients, so a sum of leg
permutations is two arrays, whatever G is.  A term group holds the
terms of one permutation that carry a factor: its T coefficients as a
(T,) array and, for the L legs on which some term is not the identity,
the sandwich factors as (T, L, N, N) arrays A and B.  A leg on which
every term of the group is the identity appears in no array: its
absence is the identity flag.  A kernel group holds one permutation
and one N^k x N^k kernel on k named half-leg axes (the row axis 2j of leg j,
where an A acts, and its column axis 2j + 1, where a B^T acts): the
matrix-unit sum sum_oi K[o, i] e_oi, so the exact Haar averages, whose
D^2 terms would sum back to that kernel in every reader, are built as
it.  A kernel group sits next to the term group of its permutation; two
on one (permutation, axes) add entrywise.  An operator keeps its
groups as built until the first read of its canonical form, which
merges them once; compose and to_dense, which are linear in the terms,
read an operator of at most FEW_TERMS terms as built, so a product of
two such operators, densified, merges nothing.  :class:`OperatorTerm`
and :class:`LegFactor` are the input format and the read-only view
``StructuredOperator.terms``; the algebra itself runs on the arrays.

Cost model, for groups of T terms with L carried legs:

- merging a group keys each term by its factor bytes in a dict and
  sorts the distinct keys, O(T L N^2 + T log T); the float twins among
  the distinct terms come from entrywise comparisons of only the terms
  whose fixed 1-D projections lie within the merge tolerance of each
  other;
- compose is one batched matmul per carried leg and pair of term
  groups of which one carries a leg, O(T_x T_y L N^3); the product of
  two permutation groups of G and G' rows is one gather of G G' m
  integers; a pair with a kernel group contracts the two kernels (a
  term group's summed on its active axes) over their shared axes, one
  GEMM when they act on the same axes, into a kernel on the union of
  their axes, capped at DENSE_CAP;
- a permutation group's sums go through one kernel, _pure_groups: one
  sort of integer codes and a few numpy calls, O(T log T); scale,
  adjoint and j_conjugate run on its two arrays.  The readers that sum
  term by term (a product with a term or kernel group, to_dense, apply
  and the traces) visit its rows one by one, in sigma order among the
  other groups, so each sum runs in one order however the pure terms
  are held;
- apply splits each group's terms into classes by their active
  half-legs, the row and column axes whose factor is not the identity.
  A class of T terms on k axes acts through one N^k x N^k kernel, a
  tensordot of N^k flops per entry of x, when that costs no more than
  its terms one by one, O(T k N^(2m+1)), which it otherwise runs; every
  class adds into the output through one axis permutation, and no
  array holds a term index and a copy of x together.  A kernel group
  is its own one class, at no cost.  operator_norm builds the classes
  and kernels of X and X* once per call.  to_dense is one batched
  matmul per term group, O(T N^(4m)), written into the output through
  a row-permuted view: one d x d allocation for one group, one more per
  later group; a kernel group adds into a diagonal view of it;
- normalized_trace and hs_norm contract the classes of apply, read as
  matrices on the 2m half-leg axes: the trace joins a class's outputs
  to its inputs, the 2-norm two classes' outputs and inputs, once per
  unordered pair, so X* X is never formed; kernels on k and k' axes
  take N^(k + k') steps; classes on no axis pair by cycle counts.  The
  trace builds no kernel: a term class contracts its factors over one
  term label.

Operator norms come from Lanczos on the matrix-free apply.  Dense
materialization is capped; the cap guards the commutant solvers.
"""

from __future__ import annotations

import bisect
import cmath
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .symcomb import permutation_cycles

# Smallest coefficient magnitude a canonical term keeps.  A sum that
# cancels exactly leaves a remainder of a few ulps of its O(1) inputs,
# about 1e-16; the coefficients the package builds are rational in 1/N
# (pair weights 1/D, Young weights dim/b!), many orders above 1e-14.
MERGE_TOL = 1e-14
# Two terms of one permutation merge when, on every leg, their A and B
# factors agree entrywise within FACTOR_MERGE_TOL * (1 + max |entry|)
# of the later term's factor.  Products such as (a u*) u come back to a
# only up to the rounding of the matmuls, about N * 1e-16 relative;
# 1e-12 absorbs that with a wide margin, while factors that differ by
# 1e-6 stay apart.
FACTOR_MERGE_TOL = 1e-12
# Most terms of a not yet canonical operator that compose and to_dense
# read as built: merging so few rarely combines a term, and the bound
# keeps a product of two operands at 64 terms before its own merge, so
# chains of products do not grow.
FEW_TERMS = 8
# Largest model dimension N^(2m) that to_dense and the dense solvers in
# algebra_tools and crossed materialize: one 4096 x 4096 complex matrix
# takes 256 MiB, so the few such matrices a solver holds at once still
# fit in the memory of a laptop-class machine.
DENSE_CAP = 4096
# Lanczos steps operator_norm may take; the package's operators need a
# few dozen.  Full, the Krylov basis is 300 MiB at N = 16, p = q = 1.
LANCZOS_STEPS = 300

__all__ = [
    "MERGE_TOL",
    "FACTOR_MERGE_TOL",
    "DENSE_CAP",
    "ModelSpace",
    "LegFactor",
    "OperatorTerm",
    "StructuredOperator",
    "DenseOperator",
    "SpaceMismatchError",
    "CapExceededError",
    "NumericError",
    "identity_factor",
    "left_mult",
    "right_mult",
    "permutation_op",
    "permuted_product_trace",
    "save_dense",
    "load_dense",
]


class SpaceMismatchError(ValueError):
    """Operands live on different model spaces."""


class CapExceededError(RuntimeError):
    """A dense materialization would exceed the configured cap."""


def _check_cap(dim: int, what: str) -> None:
    """Raise :class:`CapExceededError` if ``dim`` exceeds ``DENSE_CAP``."""
    if dim > DENSE_CAP:
        raise CapExceededError(f"{what} {dim} exceeds cap {DENSE_CAP}")


class NumericError(RuntimeError):
    """A numerical routine could not certify its result."""


@dataclass(frozen=True)
class ModelSpace:
    """Shape of the model space: leg size N, p left legs, q right legs."""

    N: int
    p: int
    q: int

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError("leg size N must be at least 2")
        if self.p < 0 or self.q < 0 or self.p + self.q < 1:
            raise ValueError("need p, q >= 0 and at least one leg")

    @property
    def m(self) -> int:
        return self.p + self.q

    @property
    def leg_dim(self) -> int:
        return self.N * self.N

    @property
    def dim(self) -> int:
        return self.leg_dim**self.m

    def check_leg(self, k: int) -> None:
        if not 0 <= k < self.m:
            raise ValueError(f"leg {k} out of range for m={self.m}")


def _check_finite(arr: np.ndarray) -> None:
    """Raise :class:`NumericError` naming the first non-finite entry."""
    if not np.isfinite(arr).all():
        at = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
        raise NumericError(f"non-finite matrix entry {complex(arr[at])!r} at {at}")


def _sanitize(a: np.ndarray, N: int) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(a, dtype=np.complex128)) + 0j
    if arr.shape != (N, N):
        raise ValueError(f"expected a {N}x{N} matrix, got shape {arr.shape}")
    _check_finite(arr)
    arr.setflags(write=False)
    return arr


def _sq_norm(x: np.ndarray) -> float:
    """Squared Frobenius norm by einsum on the float64 view: one fixed
    order, where BLAS dot splits long sums by the thread count."""
    flat = np.ascontiguousarray(x).reshape(-1).view(np.float64)
    return float(np.einsum("i,i->", flat, flat))


@lru_cache(maxsize=32)
def _eye(N: int) -> np.ndarray:
    """Shared read-only N x N complex identity."""
    eye = np.eye(N, dtype=np.complex128)
    eye.setflags(write=False)
    return eye


@lru_cache(maxsize=32)
def _eye_pair(N: int) -> np.ndarray:
    """The identity sandwich flattened: the entries of A = 1 then B = 1."""
    pair = np.concatenate((_eye(N).reshape(-1), _eye(N).reshape(-1)))
    pair.setflags(write=False)
    return pair


@lru_cache(maxsize=32)
def identity_factor(N: int) -> "LegFactor":
    """Shared identity sandwich for leg size N."""
    return LegFactor(np.eye(N), np.eye(N))


@dataclass(frozen=True, eq=False)
class LegFactor:
    """One-leg sandwich map x -> A x B."""

    A: np.ndarray
    B: np.ndarray
    is_identity: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        N = np.asarray(self.A).shape[0]
        object.__setattr__(self, "A", _sanitize(self.A, N))
        object.__setattr__(self, "B", _sanitize(self.B, N))
        eye = _eye(N)
        object.__setattr__(
            self,
            "is_identity",
            bool(np.array_equal(self.A, eye) and np.array_equal(self.B, eye)),
        )

    def signature(self) -> bytes:
        if self.is_identity:
            return b"I"
        return self.A.tobytes() + self.B.tobytes()


def _invert(sigma: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s] = i
    return tuple(inv)


@dataclass(frozen=True, eq=False)
class OperatorTerm:
    """coefficient * P(sigma) o (per-leg sandwiches), sandwiches first.

    ``sigma`` is a permutation of 0..m-1 in one-line form: the content
    of leg k is moved to leg sigma(k) after the sandwiches act, so the
    output at leg k is factors[sigma^-1(k)] applied to input leg
    sigma^-1(k).
    """

    coefficient: complex
    factors: tuple[LegFactor, ...]
    sigma: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.sigma) != list(range(len(self.factors))):
            raise ValueError(f"sigma {self.sigma} is not a permutation")

    def signature(self) -> tuple:
        return (self.sigma, tuple(f.signature() for f in self.factors))


# -- grouped term storage ------------------------------------------------


class _PermGroup(NamedTuple):
    """Pure terms c P(sigma): the permutations as the rows of a (G, m)
    array, the coefficients as a (G,) array.  A ``merged`` group, the
    one ``_pure_groups`` makes, has distinct read-only rows in sigma
    order and no coefficient below MERGE_TOL."""

    sigmas: np.ndarray
    coeffs: np.ndarray
    merged: bool = False


class _Group(NamedTuple):
    """Terms sharing one permutation; legs absent from ``legs`` are the
    identity in every term.  Merging a canonical group again changes
    nothing, so a ``merged`` group that is alone with its permutation in
    a sum passes through."""

    sigma: tuple[int, ...]
    coeffs: np.ndarray  # (T,) complex
    legs: tuple[int, ...]  # carried legs, ascending
    A: np.ndarray  # (T, len(legs), N, N)
    B: np.ndarray  # (T, len(legs), N, N)
    merged: bool = False


class _KernelGroup(NamedTuple):
    """P(sigma) o (one kernel on the active half-leg ``axes``, the
    identity on every other axis).  Axis 2k is the row of leg k, where
    the kernel acts as an A factor does, and 2k + 1 its column, where it
    acts as a B^T; ``kernel`` has shape (N,) * 2k, its output axes then
    its input axes, both in ``axes`` order.  Its entries are the
    coefficients of its matrix-unit terms; a ``merged`` kernel group is
    canonical."""

    sigma: tuple[int, ...]
    axes: tuple[int, ...]  # ascending, at least one
    kernel: np.ndarray
    merged: bool = False


def _size(g) -> int:
    """Terms of a term or permutation group; entries of a kernel group,
    which bound the count of its matrix-unit terms."""
    return g.kernel.size if isinstance(g, _KernelGroup) else len(g.coeffs)


def _half_perm(sigma: tuple[int, ...]) -> tuple[int, ...]:
    """P(sigma) on the 2m half-leg axes: output axis j reads axis perm[j]."""
    inv = _invert(sigma)
    return tuple(2 * inv[k] + e for k in range(len(sigma)) for e in (0, 1))


def _visit(groups, canonical: bool, N: int):
    """The groups in the order the readers that sum term by term visit
    them: each row of a permutation group as a legless term group, in
    place, and canonical groups in sigma order, the term group of a
    permutation before its kernel groups."""
    if not any(isinstance(g, _PermGroup) for g in groups):
        return groups
    out, empty = [], np.empty((1, 0, N, N), dtype=np.complex128)
    for g in groups:
        if isinstance(g, _PermGroup):
            rows = zip(g.sigmas.tolist(), g.coeffs.reshape(-1, 1))
            out += [_Group(tuple(sigma), c, (), empty, empty, g.merged) for sigma, c in rows]
        else:
            out.append(g)
    return sorted(out, key=lambda g: g.sigma) if canonical else out


def _groups_from_terms(space: ModelSpace, terms) -> list[_Group]:
    N, m = space.N, space.m
    by_sigma: dict[tuple, list[OperatorTerm]] = {}
    for t in terms:
        if len(t.factors) != m:
            raise SpaceMismatchError(f"term has {len(t.factors)} legs, space has {m}")
        if any(f.A.shape[0] != N for f in t.factors):
            raise SpaceMismatchError("leg size mismatch")
        by_sigma.setdefault(tuple(int(s) for s in t.sigma), []).append(t)
    raw = []
    for sigma, ts in by_sigma.items():
        legs = tuple(k for k in range(m) if not all(t.factors[k].is_identity for t in ts))
        shape = (len(ts), len(legs), N, N)
        A = np.array([[t.factors[k].A for k in legs] for t in ts], np.complex128).reshape(shape)
        B = np.array([[t.factors[k].B for k in legs] for t in ts], np.complex128).reshape(shape)
        coeffs = np.array([t.coefficient for t in ts], dtype=np.complex128)
        if not np.isfinite(coeffs).all():
            raise NumericError(f"non-finite coefficient among {coeffs.tolist()}")
        raw.append(_Group(sigma, coeffs, legs, A, B) if legs else
                   _PermGroup(np.array([sigma] * len(ts)), coeffs))
    return raw


def _concat(parts: list[_Group], N: int) -> _Group:
    """One group from raw groups of one permutation, in the given order."""
    if len(parts) == 1:
        return parts[0]
    legs = tuple(sorted(set().union(*(p.legs for p in parts))))
    T = sum(len(p.coeffs) for p in parts)
    A = np.empty((T, len(legs), N, N), dtype=np.complex128)
    B = np.empty_like(A)
    A[...] = B[...] = _eye(N)
    off = 0
    for p in parts:
        n = len(p.coeffs)
        cols = [legs.index(k) for k in p.legs]
        if cols:
            if cols[-1] - cols[0] == len(cols) - 1:
                cols = slice(cols[0], cols[-1] + 1)  # a slice assigns in half the time of a list
            A[off:off + n, cols] = p.A
            B[off:off + n, cols] = p.B
        off += n
    return _Group(parts[0].sigma, np.concatenate([p.coeffs for p in parts]), legs, A, B)


def _exact_merge(c: np.ndarray, x: np.ndarray, ident: np.ndarray):
    """Merge terms of equal signature: returns (c, x, ident) with one
    term per distinct signature, in signature order.

    A leg's key is b"I" for an identity factor, else its A then B
    bytes, and signatures compare as Python tuples of bytes.  Each sum
    runs in term order from zero; a term keeps the factors of the first
    term of its signature.
    """
    leg_bytes = x.view(np.dtype((np.void, x.shape[2] * x.itemsize)))[..., 0].tolist()
    first: dict[tuple, int] = {}
    sums: dict[tuple, complex] = {}
    for t, (coeff, flags, row) in enumerate(zip(c.tolist(), ident.tolist(), leg_bytes)):
        key = tuple(b"I" if i else f for i, f in zip(flags, row))
        if key in first:
            sums[key] += coeff
        else:
            first[key] = t
            sums[key] = 0j + coeff
    keys = sorted(first)
    rows = [first[k] for k in keys]
    return np.array([sums[k] for k in keys], dtype=np.complex128), x[rows], ident[rows]


@lru_cache(maxsize=64)
def _projection_weights(n: int) -> np.ndarray:
    # fixed, pairwise distinct weights in [1, 2): matrix units project apart
    return 1.0 + (np.arange(n) * 0.6180339887498949) % 1.0


def _fuzzy_merge(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Fold float twins onto the first close term before them, in place.

    The terms are in sorted-signature order.  Each term t merges into
    the first earlier surviving term r whose factors are all within
    FACTOR_MERGE_TOL * (1 + max |entry of t's factor|) of t's, leg by
    leg; ``c[r]`` absorbs ``c[t]``.  Candidates come from a fixed 1-D
    projection p of the factor entries: a close r has |p_t - p_r| below
    t's window, so only terms with a neighbour inside the widest window
    are visited, and each visits only the survivors inside its own.
    Returns the mask of surviving terms.
    """
    T, L = x.shape[:2]
    alive = np.ones(T, dtype=bool)
    tol = FACTOR_MERGE_TOL * (1.0 + np.abs(x).max(axis=2))  # (T, L)
    xf = x.view(np.float64)
    w = _projection_weights(xf.shape[2])
    proj = (xf @ w).sum(axis=1)
    mag = (np.abs(xf) @ w).sum(axis=1)
    # |p_t - p_r| <= sum over legs of tol * sum(w), plus the rounding of both sums
    slack = 2.0 * L * xf.shape[2] * np.finfo(float).eps * (mag + mag.max())
    win = tol.sum(axis=1) * w.sum() + slack
    ps = np.sort(proj)
    reach = win.max()
    crowded = np.searchsorted(ps, proj + reach, "right") - np.searchsorted(ps, proj - reach, "left") > 1
    if not crowded.any():
        return alive
    rep_p: list[float] = []
    rep_i: list[int] = []
    plist, wlist = proj.tolist(), win.tolist()
    for t in np.flatnonzero(crowded).tolist():
        lo = bisect.bisect_left(rep_p, plist[t] - wlist[t])
        hi = bisect.bisect_right(rep_p, plist[t] + wlist[t])
        if lo < hi:
            cand = np.sort(rep_i[lo:hi])
            close = (np.abs(x[cand] - x[t]).max(axis=2) <= tol[t]).all(axis=1)
            if close.any():
                c[cand[close.argmax()]] += c[t]
                alive[t] = False
                continue
        at = bisect.bisect_left(rep_p, plist[t])
        rep_p.insert(at, plist[t])
        rep_i.insert(at, t)
    return alive


def _merge(g: _Group, N: int) -> _Group | None:
    """Canonical form of one permutation's raw terms, or None if empty.

    Drops terms with an exactly zero factor, merges equal signatures
    (summing in term order), sorts by signature, folds float twins,
    drops coefficients below MERGE_TOL and flags the legs that are the
    identity in every remaining term.  Every group takes the one exact
    merge, and every group it leaves with two or more terms the one twin
    search, ``_fuzzy_merge``.
    """
    T, L, n2 = len(g.coeffs), len(g.legs), N * N
    # the A then the B entries of each leg; + 0j turns -0.0 into 0.0, as
    # LegFactor does, so equal factors have equal bytes
    x = np.concatenate((g.A.reshape(T, L, n2), g.B.reshape(T, L, n2)), axis=2)
    x += 0j
    c = g.coeffs
    live = x.reshape(T, 2 * L, n2).any(axis=2).all(axis=1).tolist()
    if not all(live):
        if not any(live):
            return None
        c, x = c[live], x[live]
    ident = (x == _eye_pair(N)).all(axis=2)  # (T, L)
    if len(c) > 1:
        c, x, ident = _exact_merge(c, x, ident)
    if len(c) > 1:  # the exact merge may have left one term
        alive = _fuzzy_merge(c, x)
        keep = (alive & (np.abs(c) >= MERGE_TOL)).tolist()
    else:
        keep = (np.abs(c) >= MERGE_TOL).tolist()
    if not all(keep):
        if not any(keep):
            return None
        c, x, ident = c[keep], x[keep], ident[keep]
    carried = (~ident.all(axis=0)).tolist()
    if not all(carried):
        x = x[:, carried]
    legs = tuple(k for k, flag in zip(g.legs, carried) if flag)
    x = x.reshape(len(c), len(legs), 2, N, N)
    return _Group(g.sigma, c, legs, x[:, :, 0], x[:, :, 1], merged=True)


def _pure_groups(sigmas: np.ndarray, coeffs: np.ndarray) -> list[_PermGroup]:
    """The canonical permutation group of the pure permutations
    sigmas[t] (a (T, m) array) with coefficients coeffs[t], in a list,
    empty when every sum drops.  Each permutation's sum runs in the
    given order, one add at a time as np.add.accumulate does, the runs
    of one length as one block: O(T) memory, at most sqrt(2 T) blocks."""
    T, m = sigmas.shape
    # digits in base m, or ranks where m^m overflows; uint16 sorts by radix
    if m < 16:
        codes, bound = sigmas @ m ** np.arange(m - 1, -1, -1), m**m
    else:
        codes, bound = np.unique(sigmas, axis=0, return_inverse=True)[1].reshape(-1), T
    order = np.argsort(codes.astype(np.uint16) if bound <= 1 << 16 else codes, kind="stable")
    starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
    vals, lengths = coeffs[order], np.diff(starts, append=T)
    sums = np.empty(len(starts), dtype=np.complex128)
    for n in set(lengths.tolist()):
        at = np.flatnonzero(lengths == n)
        sums[at] = np.add.accumulate(vals[starts[at, None] + np.arange(n)], axis=1)[:, -1]
    keep = np.flatnonzero(np.abs(sums) >= MERGE_TOL)
    if not len(keep):
        return []
    rows = sigmas[order[starts[keep]]]
    rows.setflags(write=False)
    return [_PermGroup(rows, sums[keep], True)]


def _kernel_sum(parts: list[_KernelGroup]) -> _KernelGroup | None:
    """Canonical form of raw kernel groups on one (permutation, axes):
    their kernels added in raw order, entries below MERGE_TOL dropped as
    the coefficients of their terms are; None if nothing is left.  A
    merged group alone passes through."""
    if len(parts) == 1 and parts[0].merged:
        return parts[0]
    total = parts[0].kernel.copy()
    for g in parts[1:]:
        total += g.kernel
    total[np.abs(total) < MERGE_TOL] = 0.0
    return parts[0]._replace(kernel=total, merged=True) if total.any() else None


def _canonical(space: ModelSpace, raw: list | tuple) -> tuple:
    """Canonical groups: the permutation group, then the term groups in
    sigma order, each kernel group after the term group of its
    permutation, by axes.  A merged term group alone with its
    permutation passes through, the others go to ``_merge`` in raw
    order, with the pure rows on their permutation (``_visit``); the
    other pure rows go to ``_pure_groups`` in raw order.  Kernel groups
    go to ``_kernel_sum`` per (permutation, axes)."""
    N = space.N
    carried = {g.sigma for g in raw if isinstance(g, _Group)}
    by_sigma: dict[tuple, list[_Group]] = {}
    kernels: dict[tuple, list[_KernelGroup]] = {}
    pure = []  # (rows, coefficients)
    for g in _visit(raw, False, N) if carried else raw:
        if isinstance(g, _KernelGroup):
            kernels.setdefault((g.sigma, g.axes), []).append(g)
        elif isinstance(g, _PermGroup) or g.sigma not in carried:
            pure.append((g.sigmas if isinstance(g, _PermGroup) else [g.sigma], g.coeffs))
        else:
            by_sigma.setdefault(g.sigma, []).append(g)
    out = []
    for sigma in sorted(by_sigma):
        parts = by_sigma[sigma]
        g = parts[0] if len(parts) == 1 and parts[0].merged else _merge(_concat(parts, N), N)
        if g is not None and g.legs:
            out.append(g)
        elif g is not None:  # no factor left: its term joins the pure rows
            pure.append(([sigma], g.coeffs))
    out += [g for key in sorted(kernels) if (g := _kernel_sum(kernels[key])) is not None]
    out.sort(key=lambda g: g.sigma)  # stable: the term group of a permutation first
    if pure:
        out[:0] = _pure_groups(*(np.concatenate(part) for part in zip(*pure)))
    return tuple(out)


# -- dense and matrix-free action ------------------------------------------


def _kernel(coeffs: np.ndarray, mats: np.ndarray, N: int) -> np.ndarray:
    """sum_t c_t (x)_j mats[t, j], output axes then input axes, for at
    least one factor.  The term index is contracted by one GEMM on the
    last factor, so the workspace is T N^(2k-2) + N^(2k) entries."""
    T, k = mats.shape[:2]
    P = coeffs.reshape(T, 1)
    for j in range(k - 1):
        P = (P[:, :, None] * mats[:, j].reshape(T, 1, N * N)).reshape(T, -1)
    K = (P.T @ mats[:, -1].reshape(T, N * N)).reshape((N, N) * k)
    return np.ascontiguousarray(K.transpose([*range(0, 2 * k, 2), *range(1, 2 * k, 2)]))


def _axis_mats(g: _Group, N: int) -> np.ndarray:
    """A term group's factors on its carried half-leg axes, (T, 2L, N, N):
    A on the row axis of each carried leg, B^T on its column axis."""
    T, L = len(g.coeffs), len(g.legs)
    return np.stack((g.A, g.B.swapaxes(2, 3)), axis=2).reshape(T, 2 * L, N, N)


def _classes(g, N: int, m: int, kernels: bool = True) -> list[tuple]:
    """Split a group's terms by their active axes: the row axis of leg k
    (axis 2k) when the term's A factor there is not the identity, the
    column axis (2k+1) when its B factor is not.  On a row axis a term
    acts by A, on a column axis by B^T.  A class of T terms on k axes
    takes its kernel, if ``kernels``, when that costs no more than the
    terms one by one: N^k against k T N flops per entry of x, and
    N^(2k) entries against the T d of all terms at once.  A kernel group
    is its own one class.

    Returns (axes, kernel, factors, perm) per class: the kernel (the
    sum of the coefficients on no axis), or else the (T, k, N, N)
    factors with the coefficient on the first; output axis j of the
    class reads its sandwiched axis perm[j], by the group's permutation.
    """
    perm = _half_perm(g.sigma)
    if isinstance(g, _KernelGroup):
        return [(g.axes, g.kernel, None, perm)]
    if not g.legs:
        return [((), np.array(g.coeffs.sum()), None, perm)]
    L, d = len(g.legs), N ** (2 * m)
    mats = _axis_mats(g, N)
    active = (mats != _eye(N)).any(axis=(2, 3))
    all_axes = [2 * k + e for k in g.legs for e in (0, 1)]
    # flag rows as integers, first axis highest (ranks past 62 bits); a stable sort keeps term order
    codes = (active @ (1 << np.arange(2 * L - 1, -1, -1)) if 2 * L < 63
             else np.unique(active, axis=0, return_inverse=True)[1].reshape(-1))
    order = np.argsort(codes, kind="stable")
    out = []
    for terms in np.split(order, np.flatnonzero(np.diff(codes[order])) + 1):
        row = active[terms[0]]
        axes = tuple(a for a, f in zip(all_axes, row) if f)
        k, n = len(axes), len(terms)
        coeffs, class_mats = g.coeffs[terms], mats[terms][:, row]
        if not k:
            out.append((axes, np.array(coeffs.sum()), None, perm))
        elif kernels and N ** (k - 1) <= k * n and N ** (2 * k) <= n * d:
            out.append((axes, _kernel(coeffs, class_mats, N), None, perm))
        else:
            class_mats[:, 0] *= coeffs[:, None, None]
            out.append((axes, None, class_mats, perm))
    return out


def _apply_classes(classes: list[tuple], v: np.ndarray, N: int, m: int) -> np.ndarray:
    """The sum of the classes' actions on the vector v of length N^(2m)."""
    x = np.asarray(v, dtype=np.complex128).reshape((N,) * (2 * m))
    out = np.zeros_like(x)
    for axes, kernel, factors, perm in classes:
        if kernel is not None:
            k = len(axes)
            # tensordot puts the active axes first, moveaxis back in place
            y = np.moveaxis(np.tensordot(kernel, x, (range(k, 2 * k), axes)), range(k), axes)
            out += y.transpose(perm)
            continue
        for mats in factors:
            y = x
            for ax, mat in zip(axes, mats):
                y = np.moveaxis(np.tensordot(mat, y, (1, ax)), 0, ax)
            out += y.transpose(perm)
    return out.reshape(-1)


@lru_cache(maxsize=256)
def _row_gather(inv: tuple[int, ...], N: int) -> np.ndarray:
    """Row index of P(sigma): output leg k reads input leg inv[k]."""
    m = len(inv)
    axes = [a for k in range(m) for a in (2 * inv[k], 2 * inv[k] + 1)]
    idx = np.arange(N ** (2 * m)).reshape((N,) * (2 * m)).transpose(axes).reshape(-1)
    idx.setflags(write=False)
    return idx


def _kron_legs(g: _Group, legs, N: int, start: np.ndarray) -> np.ndarray:
    """start_t times the Kronecker product over ``legs`` of kron(A_tk,
    B_tk^T), the identity on a leg no term carries: (rows, cols, T),
    rows and columns each flattened over ``legs`` in order."""
    n2 = N * N
    pos = {k: i for i, k in enumerate(g.legs)}
    out = start.reshape(1, 1, -1)
    for k in legs:
        # kron(A, B^T)[(a, c), (b, d)] = A[a, b] B[d, c]
        F = (np.einsum("tab,tdc->acbdt", g.A[:, pos[k]], g.B[:, pos[k]]).reshape(n2, n2, -1)
             if k in pos else np.eye(n2)[:, :, None])
        out = (out[:, None, :, None] * F[None, :, None]).reshape(out.shape[0] * n2, -1, len(start))
    return out


def _add_kernel(mat: np.ndarray, g: _KernelGroup, N: int, m: int) -> None:
    """mat += the d x d matrix of a kernel group, through a view of mat
    on its rows permuted by sigma and, off the active axes, the diagonal
    of each row axis with its column axis: one add of N^(2m + k)
    entries."""
    axes = g.axes
    rows = [2 * g.sigma[a // 2] + a % 2 for a in range(2 * m)]  # sandwiched axis a lands on row axis rows[a]
    view = mat.reshape((N,) * (4 * m)).transpose(rows + list(range(2 * m, 4 * m)))
    # labels: row axis a is a, column axis a is 2m + a off the active
    # axes, a on them
    cols = [2 * m + a if a in axes else a for a in range(2 * m)]
    rest = [a for a in range(2 * m) if a not in axes]
    diag = np.einsum(view, list(range(2 * m)) + cols, [*axes, *(2 * m + a for a in axes), *rest])
    diag += g.kernel.reshape(g.kernel.shape + (1,) * len(rest))


def _conj_moved(g: _KernelGroup, axes: list[int], swap: bool) -> _KernelGroup:
    """g with its kernel conjugated, the kernel's j-th axis renamed
    axes[j] and put back in ascending order; ``swap`` also exchanges its
    outputs and inputs.  One new array, C-ordered for the GEMM of apply."""
    k = len(axes)
    order = sorted(range(k), key=axes.__getitem__)
    first = k if swap else 0
    view = g.kernel.transpose([first + j for j in order] + [k - first + j for j in order])
    kernel = np.empty(view.shape, dtype=np.complex128)
    np.conjugate(view, out=kernel)
    return g._replace(axes=tuple(sorted(axes)), kernel=kernel)


def _expand(g: _KernelGroup, N: int) -> _Group:
    """The term group of a kernel group: one matrix-unit term per
    nonzero entry, in entry order, carrying e_oi on a row axis as A and
    e_io on a column axis as B."""
    k = len(g.axes)
    at = np.argwhere(g.kernel)  # (T, 2k): output then input indices
    T = len(at)
    legs = tuple(sorted({a // 2 for a in g.axes}))
    A = np.empty((T, len(legs), N, N), dtype=np.complex128)
    B = np.empty_like(A)
    A[...] = B[...] = _eye(N)
    t = np.arange(T)
    for j, a in enumerate(g.axes):
        li, o, i = legs.index(a // 2), at[:, j], at[:, k + j]
        F, (r, c) = (B, (i, o)) if a % 2 else (A, (o, i))
        F[:, li] = 0.0
        F[t, li, r, c] = 1.0
    return _Group(g.sigma, g.kernel[tuple(at.T)], legs, A, B)


def _as_kernel(g, N: int) -> tuple[tuple[int, ...], np.ndarray]:
    """(axes, kernel) of a group: a kernel group's own; for a term group
    the sum of its terms' kernels on every axis one of them is active
    on, a 0-d sum of its coefficients on none."""
    if isinstance(g, _KernelGroup):
        return g.axes, g.kernel
    mats = _axis_mats(g, N)
    active = (mats != _eye(N)).any(axis=(0, 2, 3))
    axes = tuple(2 * k + e for k in g.legs for e in (0, 1))
    axes = tuple(a for a, f in zip(axes, active) if f)
    return axes, (_kernel(g.coeffs, mats[:, active], N) if axes else np.array(g.coeffs.sum()))


def _kernel_product(gx, gy, N: int) -> _KernelGroup:
    """The raw kernel group of gx o gy (gy acts first), of which one is a
    kernel group.  gx reads axis perm_y[a] of gy's output where it acts
    on axis a, so its kernel moves there; the two kernels then contract
    over the axes they share, on the union of their axes, guarded by
    ``DENSE_CAP``."""
    ax, kx = _as_kernel(gx, N)
    ay, ky = _as_kernel(gy, N)
    perm_y = _half_perm(gy.sigma)
    ax = [perm_y[a] for a in ax]
    union = sorted(set(ax) | set(ay))
    _check_cap(N ** len(union), "kernel dimension")
    # per axis a of the union: output label a, input label u + a, and
    # 2u + a between the two kernels where both act, u the union's size
    label = {a: i for i, a in enumerate(union)}
    u = len(union)
    x_in = [2 * u + label[a] if a in ay else u + label[a] for a in ax]
    y_out = [2 * u + label[a] if a in ax else label[a] for a in ay]
    kernel = np.einsum(kx, [label[a] for a in ax] + x_in, ky, y_out + [u + label[a] for a in ay],
                       list(range(2 * u)), optimize=True)
    return _KernelGroup(tuple(gx.sigma[s] for s in gy.sigma), tuple(union), kernel)


# -- traces --------------------------------------------------------------


def _class_matrix(cls: tuple, m: int, tag: int):
    """A class of ``_classes`` as einsum operands: ((array, labels)
    pairs, output labels, input labels), every label tagged by ``tag``.
    Input half-leg a carries (tag, a), the sandwiched content of an
    active axis a fresh label.  A kernel carries those, then its input
    labels; a term-by-term class gives each active axis its (T, N, N)
    factors, joined by one term label."""
    axes, kernel, factors, perm = cls
    ins = [(tag, a) for a in range(2 * m)]
    mid = [(tag, a, "mid") if a in axes else (tag, a) for a in range(2 * m)]
    if kernel is not None:
        ops = [(kernel, [mid[a] for a in axes] + [ins[a] for a in axes])]
    else:
        ops = [(factors[:, j], [(tag,), mid[a], ins[a]]) for j, a in enumerate(axes)]
    return ops, [mid[a] for a in perm], ins


def _no_axis(classes: list[tuple], m: int) -> tuple[np.ndarray, np.ndarray]:
    """The classes c P(pi) on no active axis: (K,) c, (K, m) inverse maps."""
    pure = [c for c in classes if not c[0]]
    return (np.array([c[1] for c in pure], dtype=np.complex128),
            np.array([c[3][0::2] for c in pure], dtype=np.intp).reshape(len(pure), m) // 2)


def _perm_trace(rho: np.ndarray, N: int) -> np.ndarray:
    """Trace N^(2 cycles) on the 2m half-legs of each leg permutation
    along the last axis of ``rho``, orbit minima found by doubling."""
    m = rho.shape[-1]
    low = np.broadcast_to(np.arange(m), rho.shape)
    for _ in range((m - 1).bit_length()):
        low = np.minimum(low, np.take_along_axis(low, rho, axis=-1))
        rho = np.take_along_axis(rho, rho, axis=-1)
    return float(N) ** (2 * (low == np.arange(m)).sum(axis=-1))


def _contract(ops: list, joins: list, N: int) -> complex:
    """Full contraction of (array, labels) operands after joining the
    label pairs in ``joins``; a joined index no operand carries gives a
    factor N.  Two kernels on k and k' axes take einsum's own loop, in
    one fixed order and N^(k + k') steps (each index joins two operand
    labels); term-by-term factors its optimized pairwise path.  Raises
    :class:`NumericError` past the 52 indices np.einsum names."""
    root: dict = {}

    def find(a):
        while root.get(a, a) != a:
            a = root[a]
        return a

    for a, b in joins:
        root[find(a)] = find(b)
    index: dict = {}
    args = []
    for arr, labels in ops:
        args += [arr, [index.setdefault(find(label), len(index)) for label in labels]]
    if len(index) > 52:
        raise NumericError(f"a contraction over {len(index)} indices exceeds the 52 np.einsum takes")
    free = len({find(a) for pair in joins for a in pair} - index.keys())
    return complex(np.einsum(*args, [], optimize=len(ops) > 2)) * N**free


class StructuredOperator:
    """Canonical sum of :class:`OperatorTerm` on a fixed model space.

    Instances are immutable.  The canonical form is made once, on the
    first read of ``_groups``; compose and to_dense read an operator of
    at most FEW_TERMS terms as built.  Terms with equal (sigma, factor)
    signatures merge; after the exact pass, terms sharing a permutation
    whose factors agree entrywise within ``FACTOR_MERGE_TOL`` also
    merge, so products like (a u*) u collapse back onto a instead of
    surviving as float twins.  Terms with coefficient magnitude below
    ``MERGE_TOL`` or with an exactly zero factor are dropped.  The terms
    live in per-permutation arrays or kernels (see the module
    docstring); kernel groups on one (permutation, axes) add entrywise.
    ``terms`` builds the :class:`OperatorTerm` view on first use.
    """

    __slots__ = ("space", "_state", "_terms")

    def __init__(self, space: ModelSpace, terms: list[OperatorTerm] | tuple = ()):
        self.space = space
        # (groups, canonical?) in one attribute, so that no read pairs
        # raw groups with the flag of canonical ones
        self._state = (tuple(_groups_from_terms(space, terms)), False)
        self._terms = None

    @classmethod
    def _from_raw(cls, space: ModelSpace, raw: Iterable[_Group]) -> "StructuredOperator":
        """The operator of raw groups, canonicalized on the first read of ``_groups``."""
        op = cls.__new__(cls)
        op.space = space
        op._state = (tuple(g for g in raw if _size(g)), False)
        op._terms = None
        return op

    @classmethod
    def _from_canonical(cls, space: ModelSpace, groups: tuple[_Group, ...]) -> "StructuredOperator":
        op = cls._from_raw(space, ())
        op._state = (groups, True)
        return op

    @property
    def _groups(self) -> tuple[_Group, ...]:
        """The canonical groups, made from the raw ones on the first read."""
        groups, canonical = self._state
        if not canonical:
            groups = _canonical(self.space, groups)
            self._state = (groups, True)
        return groups

    def _operand(self) -> tuple[tuple, bool]:
        """The groups compose and to_dense read, and if they are canonical:
        as built while the operator is not yet canonical and holds at most
        FEW_TERMS terms (a kernel group counting its entries), since both
        are linear in the terms; else the canonical groups."""
        groups, canonical = self._state
        if canonical or sum(_size(g) for g in groups) > FEW_TERMS:
            return self._groups, True
        return groups, False

    @property
    def terms(self) -> tuple[OperatorTerm, ...]:
        """The canonical terms: by permutation, then by factor signature;
        a kernel group gives the matrix-unit terms of its nonzero entries
        (``_expand``), after the term group of its permutation."""
        if self._terms is None:
            N = self.space.N
            ident = identity_factor(N)
            out = []
            for g in _visit(self._groups, True, N):
                if isinstance(g, _KernelGroup):
                    g = _expand(g, N)
                for t in range(len(g.coeffs)):
                    factors = [ident] * self.space.m
                    for li, k in enumerate(g.legs):
                        f = LegFactor(g.A[t, li], g.B[t, li])
                        factors[k] = ident if f.is_identity else f
                    out.append(OperatorTerm(complex(g.coeffs[t]), tuple(factors), g.sigma))
            self._terms = tuple(out)
        return self._terms

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, space: ModelSpace) -> "StructuredOperator":
        return cls._from_raw(space, ())

    @classmethod
    def identity(cls, space: ModelSpace) -> "StructuredOperator":
        return permutation_op(space, tuple(range(space.m)))

    @classmethod
    def sum(
        cls, ops: Iterable["StructuredOperator"], space: ModelSpace | None = None
    ) -> "StructuredOperator":
        """Sum of operators, canonicalized once; ``space`` is needed only
        when ``ops`` may be empty."""
        ops = list(ops)
        if space is None:
            if not ops:
                raise ValueError("the sum of no operators needs a space")
            space = ops[0].space
        for op in ops:
            if op.space != space:
                raise SpaceMismatchError(f"{space} vs {op.space}")
        if len(ops) == 1:
            return ops[0]
        return cls._from_raw(space, [g for op in ops for g in op._groups])

    # -- linear structure ---------------------------------------------

    def _check_space(self, other: "StructuredOperator") -> None:
        if self.space != other.space:
            raise SpaceMismatchError(f"{self.space} vs {other.space}")

    def __add__(self, other: "StructuredOperator") -> "StructuredOperator":
        self._check_space(other)
        return StructuredOperator._from_raw(self.space, self._groups + other._groups)

    def __sub__(self, other: "StructuredOperator") -> "StructuredOperator":
        return self + (-other)

    def __neg__(self) -> "StructuredOperator":
        return self.scale(-1.0)

    def scale(self, c: complex) -> "StructuredOperator":
        """c times the operator; a non-finite c raises :class:`NumericError`
        instead of vanishing in the merge."""
        if not cmath.isfinite(c):
            raise NumericError(f"non-finite scale factor {c!r}")
        raw = []
        # a group stays canonical unless a coefficient or a nonzero kernel
        # entry falls below MERGE_TOL; a permutation group keeps its rows
        for g in self._groups:
            if isinstance(g, _KernelGroup):
                x = c * g.kernel
                raw.append(g._replace(kernel=x, merged=not ((np.abs(x) < MERGE_TOL) & (x != 0)).any()))
            else:
                x = c * g.coeffs
                raw.append(g._replace(coeffs=x, merged=bool((np.abs(x) >= MERGE_TOL).all())))
        if all(g.merged for g in raw):
            return StructuredOperator._from_canonical(self.space, tuple(raw))
        return StructuredOperator._from_raw(self.space, raw)

    def __mul__(self, c: complex) -> "StructuredOperator":
        return self.scale(c)

    __rmul__ = __mul__

    # -- algebra -------------------------------------------------------

    def compose(self, other: "StructuredOperator") -> "StructuredOperator":
        """Operator product self o other (other acts first).

        Term x after term y has permutation sigma_x o sigma_y and, at
        leg k, the sandwich of y at k followed by that of x at
        sigma_y(k).  The pure products are one gather of the rows of the
        two permutation groups, in pair order: the product's permutation
        group, canonical at once if no other group is involved, else one
        raw group ahead of the others, so that its rows on the
        permutation of a carried product merge with it in pair order.
        The other pairs run over the visited groups (``_visit``); a pair
        with a kernel group is one kernel group (``_kernel_product``).
        """
        self._check_space(other)
        N, m = self.space.N, self.space.m
        (X, x_canonical), (Y, y_canonical) = self._operand(), other._operand()
        px, py = ([(g.sigmas, g.coeffs) for g in ops if isinstance(g, _PermGroup)] for ops in (X, Y))
        mixed = len(px) + len(py) < len(X) + len(Y)
        X, Y = (_visit(X, x_canonical, N), _visit(Y, y_canonical, N)) if mixed else ((), ())
        kernels = []
        if any(isinstance(g, _KernelGroup) for g in (*X, *Y)):
            kernels = [_kernel_product(gx, gy, N) for gx in X for gy in Y
                       if isinstance(gx, _KernelGroup) or isinstance(gy, _KernelGroup)]
            X = [g for g in X if isinstance(g, _Group)]
            Y = [g for g in Y if isinstance(g, _Group)]
        raw = []
        ycarry = [g for g in Y if g.legs]
        for gx in X:
            xpos = {k: i for i, k in enumerate(gx.legs)}
            for gy in Y if gx.legs else ycarry:
                ypos = {k: i for i, k in enumerate(gy.legs)}
                Tx, Ty = len(gx.coeffs), len(gy.coeffs)
                legs = tuple(k for k in range(m) if k in ypos or gy.sigma[k] in xpos)
                A = np.empty((Tx, Ty, len(legs), N, N), dtype=np.complex128)
                B = np.empty_like(A)
                for li, k in enumerate(legs):
                    i, j = xpos.get(gy.sigma[k]), ypos.get(k)
                    if j is None:
                        A[:, :, li] = gx.A[:, i, None]
                        B[:, :, li] = gx.B[:, i, None]
                    elif i is None:
                        A[:, :, li] = gy.A[None, :, j]
                        B[:, :, li] = gy.B[None, :, j]
                    else:
                        A[:, :, li] = gx.A[:, i, None] @ gy.A[None, :, j]
                        B[:, :, li] = gy.B[None, :, j] @ gx.B[:, i, None]
                shape = (Tx * Ty, len(legs), N, N)
                raw.append(_Group(
                    tuple(gx.sigma[s] for s in gy.sigma),
                    np.multiply.outer(gx.coeffs, gy.coeffs).reshape(-1),
                    legs,
                    A.reshape(shape),
                    B.reshape(shape),
                ))
        if px and py:
            (sx, cx), (sy, cy) = ((np.concatenate(part) for part in zip(*p)) for p in (px, py))
            sigmas = np.take(sx, sy, axis=1).reshape(-1, m)  # sigma_x[sigma_y[k]]
            coeffs = np.multiply.outer(cx, cy).reshape(-1)
            if not raw and not kernels:
                return StructuredOperator._from_canonical(self.space, tuple(_pure_groups(sigmas, coeffs)))
            raw.insert(0, _PermGroup(sigmas, coeffs))
        return StructuredOperator._from_raw(self.space, raw + kernels)

    def __matmul__(self, other: "StructuredOperator") -> "StructuredOperator":
        return self.compose(other)

    def adjoint(self) -> "StructuredOperator":
        """Adjoint in the trace inner product.

        A term's adjoint has permutation sigma^-1 and, at leg sigma(k),
        the adjoint sandwich (A*, B*) of leg k; a kernel's is its
        conjugate transpose, moved from axis a of leg k to that axis of
        leg sigma(k).
        """
        raw = []
        for g in self._groups:
            if isinstance(g, _PermGroup):
                raw.append(_PermGroup(np.argsort(g.sigmas, axis=1), g.coeffs.conj()))
                continue
            if isinstance(g, _KernelGroup):
                moved = [2 * g.sigma[a // 2] + a % 2 for a in g.axes]
                raw.append(_conj_moved(g._replace(sigma=_invert(g.sigma)), moved, True))
                continue
            legs = tuple(sorted(g.sigma[k] for k in g.legs))
            inv = _invert(g.sigma)
            cols = [g.legs.index(inv[j]) for j in legs]
            raw.append(_Group(
                inv,
                g.coeffs.conj(),
                legs,
                g.A[:, cols].conj().swapaxes(2, 3),
                g.B[:, cols].conj().swapaxes(2, 3),
            ))
        return StructuredOperator._from_raw(self.space, raw)

    def j_conjugate(self) -> "StructuredOperator":
        """Conjugation by the leg-wise antiunitary eta -> eta*.

        Swaps every sandwich (A, B) to (B*, A*) and conjugates the
        coefficient; the permutation part is unchanged.  A kernel moves
        from the row to the column axis of each leg and back, conjugated.
        """
        raw = [
            _conj_moved(g, [a ^ 1 for a in g.axes], False)
            if isinstance(g, _KernelGroup) else
            g._replace(coeffs=g.coeffs.conj())  # its rows and their order stay
            if isinstance(g, _PermGroup) else
            g._replace(
                coeffs=g.coeffs.conj(),
                A=g.B.conj().swapaxes(2, 3),
                B=g.A.conj().swapaxes(2, 3),
                merged=False,
            )
            for g in self._groups
        ]
        return StructuredOperator._from_raw(self.space, raw)

    # -- analysis ------------------------------------------------------

    def normalized_trace(self) -> complex:
        """Normalized trace: the traces of the classes of ``apply``, each
        one contraction with the class's outputs joined to its inputs,
        summed and divided by N^(2m); a class c P(pi) on no active axis
        has trace c N^(2 cycles of pi).  A kernel group's trace reads
        its diagonal; the classes of a term group keep their factors,
        joined by one term label, and build no kernel."""
        N, m = self.space.N, self.space.m
        classes = self._split(kernels=False)
        total = 0.0 + 0.0j
        for ops, outs, ins in (_class_matrix(c, m, 0) for c in classes if c[0]):
            total += _contract(ops, list(zip(outs, ins)), N)
        coeffs, inv = _no_axis(classes, m)
        total += complex(np.einsum("i,i->", coeffs, _perm_trace(inv, N)))
        return complex(total / self.space.dim)

    def hs_norm(self) -> float:
        """Normalized Hilbert-Schmidt norm sqrt(trace(X* X)).

        trace(X* X) sums Tr(X_c* X_c') over the classes of ``apply``, one
        contraction per unordered pair, outputs joined to outputs and
        inputs to inputs; classes c P(pi) on no active axis pair by
        Tr(P(pi)* P(pi')) = N^(2 cycles of pi^-1 pi'), one einsum per
        block of at most 2^16 pairs.  A difference that cancels inside a
        kernel, a class kernel or a kernel group's, keeps about
        eps * |X|; one that cancels across classes, kernel groups on
        other axes or the terms of term-by-term classes, sqrt(eps) * |X|.
        Past np.einsum's 52
        indices (two such classes on all half-legs of 13 legs) raises
        :class:`NumericError`.
        """
        N, m = self.space.N, self.space.m
        classes = self._split()
        # the pairs with a class on some axis, if any; the others pair below
        right = [_class_matrix(c, m, 1) for c in classes] if any(c[0] for c in classes) else []
        total = 0.0
        for i, c in enumerate(classes[:len(right)]):
            ops, outs, ins = _class_matrix(c, m, 0)
            ops = [(arr.conj(), labels) for arr, labels in ops]
            for j, (ops_h, outs_h, ins_h) in enumerate(right[i:]):
                if not c[0] and not classes[i + j][0]:
                    continue
                val = _contract(ops + ops_h, list(zip(outs + ins, outs_h + ins_h)), N).real
                total += 2.0 * val if j else val
        coeffs, inv = _no_axis(classes, m)
        back = np.argsort(inv, axis=1)
        rows = max(1, (1 << 16) // max(len(coeffs), 1))
        for lo in range(0, len(coeffs), rows):
            # rho_ij = inv_i^-1 inv_j, of the cycles of pi_i^-1 pi_j
            rho = np.take_along_axis(back[lo:lo + rows, None], inv[None], axis=2)
            total += np.einsum("i,ij,j->", coeffs[lo:lo + rows].conj(), _perm_trace(rho, N), coeffs).real
        return math.sqrt(max(total / self.space.dim, 0.0))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix-free action on a vector of length N^(2m).

        Each class of a group's terms (see ``_classes``) acts on x seen
        as a tensor with 2m axes of size N: through its kernel, by one
        tensordot over its active axes, or term by term, one axis at a
        time.  The result is added to the output through the group's
        permutation, so no array holds a term index and a copy of x
        together.
        """
        space = self.space
        if v.shape != (space.dim,):
            raise ValueError(f"expected vector of length {space.dim}")
        return _apply_classes(self._split(), v, space.N, space.m)

    def _split(self, kernels: bool = True) -> list[tuple]:
        """The classes of every group, as ``_classes`` builds them."""
        N, m = self.space.N, self.space.m
        return [c for g in _visit(self._groups, True, N) for c in _classes(g, N, m, kernels)]

    def to_dense(self) -> "DenseOperator":
        """Explicit matrix; guarded by ``DENSE_CAP``."""
        space = self.space
        _check_cap(space.dim, "dense dimension")
        N, m, d = space.N, space.m, space.dim
        n2, h = N * N, (m + 1) // 2
        cols = (n2**h, n2 ** (m - h))
        # one term group per permutation, so one matmul each: the raw
        # groups of a permutation joined without a merge; kernel groups
        # add in last
        by_sigma: dict[tuple, list[_Group]] = {}
        kernels = []
        for g in _visit(*self._operand(), N):
            if isinstance(g, _KernelGroup):
                kernels.append(g)
            else:
                by_sigma.setdefault(g.sigma, []).append(g)
        # carried groups first (sorted is stable): the first one writes
        # every entry, every later group accumulates
        groups = sorted((_concat(parts, N) for parts in by_sigma.values()), key=lambda g: not g.legs)
        mat = (np.empty if groups and groups[0].legs else np.zeros)((d, d), dtype=np.complex128)
        for i, g in enumerate(groups):
            if not g.legs:
                rows = _row_gather(_invert(g.sigma), N)
                for c in g.coeffs.tolist():
                    mat[np.arange(d), rows] += c
                continue
            # one matmul batched over the row of every leg: (cols of the
            # legs below h, terms) times (terms, cols of the others)
            x = _kron_legs(g, range(h), N, g.coeffs)
            x = x.reshape((n2,) * h + (1,) * (m - h) + (cols[0], -1))
            y = _kron_legs(g, range(h, m), N, np.ones(len(g.coeffs)))
            y = y.reshape((n2,) * (m - h) + (cols[1], -1)).swapaxes(-1, -2)
            # row of output leg sigma(k) is the row of input leg k
            view = mat.reshape((n2,) * m + cols).transpose([*g.sigma, m, m + 1])
            if i == 0:
                np.matmul(x, y, out=view)
            else:
                view += np.matmul(x, y)
        for g in kernels:
            _add_kernel(mat, g, N, m)
        return DenseOperator(space, mat)

    def operator_norm(self) -> float:
        """Largest singular value by Lanczos on X* X, from one seeded start.

        Each step applies X, then X*, and reorthogonalizes twice against
        every Krylov vector kept.  Stops when the top Ritz value theta
        has residual beta_k |s_k| <= 1e-10 theta (X* X has an eigenvalue
        that close) or the Krylov space is invariant, and returns
        sqrt(theta), a lower bound; raises :class:`NumericError` after
        LANCZOS_STEPS steps.
        """
        if not self._groups:
            return 0.0
        N, m, dim = self.space.N, self.space.m, self.space.dim
        # every step applies X and X*: split each into classes once
        fwd, back = self._split(), self.adjoint()._split()
        rng = np.random.default_rng(0x5EED)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        # the Krylov vectors are the first k + 1 rows of ``basis``, which
        # doubles when full: a step writes one row and copies none
        basis = np.empty((8, dim), dtype=np.complex128)
        np.divide(v, math.sqrt(_sq_norm(v)), out=basis[0])
        del v
        alphas, betas = [], []
        for k in range(LANCZOS_STEPS):
            # the sums over the d entries are einsums, as in _sq_norm: BLAS
            # dot and gemv split them by the thread count from d ~ 10^4 on
            krylov = basis[:k + 1]
            w = _apply_classes(back, _apply_classes(fwd, krylov[-1], N, m), N, m)
            alphas.append(float(np.einsum("i,i->", krylov[-1].view(np.float64), w.view(np.float64))))
            for _ in range(2):
                # w -= sum_j <q_j, w> q_j, without a conjugated copy of krylov
                w -= np.einsum("k,kd->d", np.einsum("kd,d->k", krylov, w.conj()).conj(), krylov)
            beta = math.sqrt(_sq_norm(w))
            ritz, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
            theta = ritz[-1]
            if beta * abs(vecs[-1, -1]) <= 1e-10 * theta or beta == 0.0 or k + 1 == dim:
                return math.sqrt(max(theta, 0.0))
            betas.append(beta)
            if k + 1 == len(basis):
                grown = np.empty((2 * len(basis), dim), dtype=np.complex128)
                grown[:k + 1] = krylov
                basis = grown
            np.divide(w, beta, out=basis[k + 1])
            del w  # not held through the next step's applies
        raise NumericError(f"Lanczos reached no certified norm in {LANCZOS_STEPS} steps")

    # -- bookkeeping ---------------------------------------------------

    @property
    def n_terms(self) -> int:
        """The count of ``terms``, without building them."""
        return sum(int(np.count_nonzero(g.kernel)) if isinstance(g, _KernelGroup) else len(g.coeffs)
                   for g in self._groups)

    def __repr__(self) -> str:
        return (
            f"StructuredOperator(N={self.space.N}, p={self.space.p}, "
            f"q={self.space.q}, terms={self.n_terms})"
        )


def permuted_product_trace(
    sigma: tuple[int, ...], matrices: list[np.ndarray]
) -> complex:
    """Unnormalized trace of P(sigma) composed with tensor factors.

    Returns the product over cycles of sigma of the trace of the
    matrices multiplied along the cycle, the cycle formula on plain
    tensor legs; dividing by N^m gives the normalized trace on
    (C^N)^tensor-m.
    """
    if sorted(sigma) != list(range(len(matrices))):
        raise ValueError("sigma is not a permutation of the matrix list")
    total = 1.0 + 0.0j
    n = matrices[0].shape[0]
    for cycle in permutation_cycles(tuple(sigma)):
        prod = np.eye(n, dtype=np.complex128)
        for k in cycle:
            prod = matrices[k] @ prod
        total *= np.trace(prod)
    return complex(total)


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Explicit matrix on the model space."""

    space: ModelSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.ascontiguousarray(np.asarray(self.matrix, dtype=np.complex128))
        if mat.shape != (self.space.dim, self.space.dim):
            raise ValueError(
                f"expected {self.space.dim}x{self.space.dim}, got {mat.shape}"
            )
        object.__setattr__(self, "matrix", mat)


# -- builders ----------------------------------------------------------


def _one_leg(space: ModelSpace, k: int, a: np.ndarray, left: bool) -> StructuredOperator:
    """The single term x_k -> a x_k (``left``) or x_k a, built as its
    canonical group: a zero ``a`` gives the zero operator, the identity
    the identity."""
    space.check_leg(k)
    N = space.N
    a = _sanitize(a, N)
    eye = _eye(N)
    if not a.any():
        return StructuredOperator.zero(space)
    if (a == eye).all():
        return StructuredOperator.identity(space)
    a, eye = a.reshape(1, 1, N, N), eye.reshape(1, 1, N, N)
    A, B = (a, eye) if left else (eye, a)
    group = _Group(tuple(range(space.m)), np.ones(1, dtype=np.complex128), (k,), A, B, merged=True)
    return StructuredOperator._from_canonical(space, (group,))


def left_mult(space: ModelSpace, a: np.ndarray, k: int) -> StructuredOperator:
    """Left multiplication by ``a`` on leg ``k``: eta_k -> a eta_k."""
    return _one_leg(space, k, a, left=True)


def right_mult(space: ModelSpace, a: np.ndarray, k: int) -> StructuredOperator:
    """Right multiplication by ``a`` on leg ``k``: eta_k -> eta_k a."""
    return _one_leg(space, k, a, left=False)


def permutation_op(space: ModelSpace, sigma: tuple[int, ...]) -> StructuredOperator:
    """Leg permutation: the content of leg k moves to leg sigma(k).

    On elementary tensors the output at leg k is the input at
    sigma^-1(k).
    """
    if sorted(sigma) != list(range(space.m)):
        raise ValueError(f"sigma {sigma} is not a permutation of 0..{space.m - 1}")
    groups = _pure_groups(np.array([sigma]), np.ones(1, dtype=np.complex128))
    return StructuredOperator._from_canonical(space, tuple(groups))


# -- flat binary serialization ------------------------------------------

_MAGIC = b"DLABBIN1"


def _check_operator_shape(path, kind: str, shape: tuple, space: ModelSpace) -> None:
    if kind == "operator" and tuple(shape) != (space.dim, space.dim):
        raise ValueError(
            f"{path}: operator shape {list(shape)} is not ({space.dim}, {space.dim}) "
            f"for N={space.N}, p={space.p}, q={space.q}"
        )


def save_dense(
    path: str | Path,
    array: np.ndarray,
    space: ModelSpace,
    kind: str = "operator",
) -> None:
    """Write an array in the flat binary layout with a JSON header.

    Layout: 8-byte magic, little-endian uint64 header length, UTF-8
    JSON header {N, p, q, m, kind, shape}, then the array entries
    row-major as little-endian interleaved real/imaginary doubles.
    An ``operator`` not (dim, dim) raises ValueError before the file opens.
    """
    arr = np.ascontiguousarray(np.asarray(array, dtype=np.complex128))
    _check_operator_shape(path, kind, arr.shape, space)
    header = {
        "N": space.N,
        "p": space.p,
        "q": space.q,
        "m": space.m,
        "kind": kind,
        "shape": list(arr.shape),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(np.uint64(len(blob)).tobytes())
        fh.write(blob)
        fh.write(arr.astype("<c16").tobytes())


def load_dense(path: str | Path) -> tuple[np.ndarray, ModelSpace, str]:
    """Read an array written by :func:`save_dense`.

    Raises ValueError, naming the file and the fault, for a bad magic, a
    truncated or malformed header, a payload whose length does not match
    the header's shape, and an ``operator`` whose shape is not
    (dim, dim) for the header's model space.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != _MAGIC:
        raise ValueError(f"bad magic {data[:8]!r} in {path}")
    if len(data) < 16:
        raise ValueError(f"{path}: truncated header: no header length")
    hlen = int.from_bytes(data[8:16], "little")
    if len(data) < 16 + hlen:
        raise ValueError(f"{path}: truncated header: {len(data) - 16} of {hlen} bytes")
    try:
        header = json.loads(data[16:16 + hlen].decode("utf-8"))
        space = ModelSpace(header["N"], header["p"], header["q"])
        kind = header["kind"]
        shape = tuple(header["shape"])
        if not all(isinstance(n, int) and n >= 0 for n in shape):
            raise ValueError(f"shape {list(shape)} is not a list of sizes")
    except (UnicodeDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed header: {exc}") from exc
    payload = data[16 + hlen:]
    expected = 16 * math.prod(shape)
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload has {len(payload)} bytes, shape {list(shape)} needs {expected}"
        )
    _check_operator_shape(path, kind, shape, space)
    arr = np.frombuffer(payload, dtype="<c16").reshape(shape).astype(np.complex128)
    return arr, space, kind

"""Haar averaging, projections, towers, and binning against oracles.

Dense reference objects are rebuilt here from first principles: leg
permutation matrices by explicit index bookkeeping, group projections
from the independently tested character values, conditional
expectations from an elementwise partial trace.
"""

import itertools
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import duallab.duality_core as duality_core
from duallab import legops
from duallab.duality_core import (
    _NORM_BATCH,
    MC_STREAMS,
    HaarConfig,
    MCAverage,
    _check_pair,
    _haar_draws,
    _moment_kernels,
    _paired_traces,
    _placed_group,
    _product_blocks,
    _product_pairs,
    _sanitize,
    _block_size,
    _side_axis,
    _sq_norm,
    _stderr,
    _unit_product,
    SpectralGrid,
    SubfactorTower,
    conditional_expectation,
    haar_average_mc,
    haar_pair_average_exact,
    haar_pair_average_mc,
    haar_unitary,
    limit_formula_check,
    product_average_exact,
    product_average_mc,
    sigma_average_exact,
    sigma_residual,
    spectral_binning,
    t_minus,
    t_mixed,
    t_plus,
    young_projection,
)
from duallab.legops import (
    LegFactor,
    ModelSpace,
    NumericError,
    OperatorTerm,
    SpaceMismatchError,
    StructuredOperator,
    _Group,
    identity_factor,
    left_mult,
    right_mult,
)
from duallab.symcomb import (
    Partition,
    character,
    cycle_type_of_permutation,
    dimension,
    enumerate_partitions,
)
from test_legops import legless, reference_canonical, reference_gram

RNG = np.random.default_rng(0xD0C)


def rand_mat(n, rng=RNG):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def rand_herm(n, rng=RNG):
    z = rand_mat(n, rng)
    return (z + z.conj().T) / 2


def leg_perm_dense(space, sigma):
    """Permutation matrix on (M_N)^tensor-m moving leg k to sigma(k)."""
    D = space.leg_dim
    mat = np.zeros((space.dim, space.dim))
    dims = [D] * space.m
    for idx in np.ndindex(*dims):
        out = [0] * space.m
        for k in range(space.m):
            out[sigma[k]] = idx[k]
        mat[np.ravel_multi_index(out, dims), np.ravel_multi_index(idx, dims)] = 1.0
    return mat


def all_perms(m):
    from itertools import permutations

    return [tuple(s) for s in permutations(range(m))]


def assert_same_groups(got, want):
    """Byte-equal canonical groups, as readers visit them (a pure term
    its own legless group): permutations, carried legs, coefficients
    and factors."""
    got_groups, want_groups = (legops._visit(op._groups, True, op.space.N) for op in (got, want))
    assert len(got_groups) == len(want_groups)
    for g, h in zip(got_groups, want_groups):
        assert (g.sigma, g.legs) == (h.sigma, h.legs)
        assert g.coeffs.tobytes() == h.coeffs.tobytes()
        assert g.A.tobytes() == h.A.tobytes()
        assert g.B.tobytes() == h.B.tobytes()


# -- multiplication sums ------------------------------------------------------


def reference_t_plus(space, a):
    """t_plus as a sum of one-leg operators, its former build: the
    byte-for-byte oracle of the one-group builder."""
    return StructuredOperator.sum((left_mult(space, a, k) for k in range(space.p)), space)


def reference_t_minus(space, a):
    """t_minus as a sum of one-leg operators, as :func:`reference_t_plus`."""
    return StructuredOperator.sum(
        (right_mult(space, a, k) for k in range(space.p, space.m)), space
    )


def block_units(N, D):
    """The D^2 units e_rs x 1_K of M_N = M_D x M_K, stacked at r * D + s,
    and their transposes e_sr x 1_K in the same order: the units of the
    former term builds of the exact averages."""
    units = np.kron(np.eye(D * D, dtype=np.complex128).reshape(D * D, D, D), np.eye(N // D))
    return units, units.reshape(D, D, N, N).swapaxes(0, 1).reshape(D * D, N, N)


def raw_mult_group(space, a, left, right):
    """The raw m-term group of left times t_plus(a) plus right times
    t_minus(a), as _mult_sum builds it when it merges."""
    N, p, m = space.N, space.p, space.m
    A = np.empty((m, m, N, N), dtype=np.complex128)
    A[...] = np.eye(N)
    B = A.copy()
    t = np.arange(m)
    A[t[:p], t[:p]] = _sanitize(a, N)
    B[t[p:], t[p:]] = _sanitize(a, N)
    coeffs = np.where(t < p, left, right).astype(np.complex128)
    return _Group(tuple(range(m)), coeffs, tuple(range(m)), A, B)


class TestMultiplicationSums:
    def test_t_plus_is_left_leg_sum(self):
        sp = ModelSpace(2, 2, 1)
        a = rand_mat(2)
        want = left_mult(sp, a, 0) + left_mult(sp, a, 1)
        assert (t_plus(sp, a) - want).hs_norm() < 1e-12

    def test_t_minus_is_right_leg_sum(self):
        sp = ModelSpace(2, 1, 2)
        a = rand_mat(2)
        want = right_mult(sp, a, 1) + right_mult(sp, a, 2)
        assert (t_minus(sp, a) - want).hs_norm() < 1e-12

    def test_t_mixed_difference(self):
        sp = ModelSpace(2, 1, 1)
        a = rand_mat(2)
        assert (t_mixed(sp, a) - (t_plus(sp, a) - t_minus(sp, a))).hs_norm() < 1e-12

    @pytest.mark.parametrize("N", [2, 3, 4])
    @pytest.mark.parametrize(
        "p,q", [(1, 1), (2, 1), (1, 2), (2, 2), (0, 2), (3, 0), (1, 0), (0, 1), (0, 3)]
    )
    def test_t_mixed_matches_difference_of_sums(self, N, p, q):
        # the sums of one-leg operators and their difference are the
        # byte-for-byte oracles of the one builder behind all three
        sp = ModelSpace(N, p, q)
        rng = np.random.default_rng(100 * N + 10 * p + q)
        z = rng.standard_normal((N, N))
        for a in (rand_mat(N, rng), np.eye(N), np.zeros((N, N)), np.diag(rng.standard_normal(N)),
                  z + z.T):
            plus, minus = reference_t_plus(sp, a), reference_t_minus(sp, a)
            assert_same_groups(t_plus(sp, a), plus)
            assert_same_groups(t_minus(sp, a), minus)
            assert_same_groups(t_mixed(sp, a), plus - minus)

    @pytest.mark.parametrize("N,p,q", [(2, 1, 1), (3, 1, 2), (3, 2, 1), (2, 0, 1), (2, 1, 0), (3, 2, 2)])
    def test_one_surviving_term_is_its_canonical_group(self, N, p, q):
        # one nonzero coefficient and an a neither 0 nor 1: the builder
        # makes the canonical group without a merge, byte-equal to the
        # merge of the raw m-term group; every other case merges it
        sp = ModelSpace(N, p, q)
        rng = np.random.default_rng(10 * N + p)
        for a in (rand_mat(N, rng), np.eye(N), np.zeros((N, N))):
            for build, left, right in ((t_plus, 1.0, 0.0), (t_minus, 0.0, 1.0), (t_mixed, 1.0, -1.0)):
                with mock.patch.object(legops, "_merge", wraps=legops._merge) as merge:
                    got = build(sp, a)
                    got._groups
                raw = raw_mult_group(sp, a, left, right)
                want = StructuredOperator._from_canonical(sp, legops._canonical(sp, [raw]))
                assert_same_groups(got, want)
                direct = np.count_nonzero(raw.coeffs) == 1 and a.any() and not (a == np.eye(N)).all()
                assert merge.call_count == (not direct)

    def test_empty_sides_give_zero(self):
        assert t_plus(ModelSpace(2, 0, 2), rand_mat(2)).n_terms == 0
        assert t_minus(ModelSpace(2, 2, 0), rand_mat(2)).n_terms == 0

    def test_t_plus_is_homomorphism_on_products(self):
        # l(a) l(b) on one leg equals l(ab)
        sp = ModelSpace(2, 1, 0)
        a, b = rand_mat(2), rand_mat(2)
        got = t_plus(sp, a) @ t_plus(sp, b)
        assert (got - t_plus(sp, a @ b)).hs_norm() < 1e-12


# -- Young projections ---------------------------------------------------------


def young_projection_terms(space, lam, side):
    """The Young projection as a list of OperatorTerm, one per
    permutation with a nonzero character: the differential oracle for
    ``young_projection``'s array-built groups."""
    block, offset = (space.p, 0) if side == "left" else (space.q, space.p)
    scale = dimension(lam) / math.factorial(block)
    ident = identity_factor(space.N)
    terms = []
    for perm in all_perms(block):
        chi = character(lam, cycle_type_of_permutation(perm))
        if chi:
            sigma = tuple(range(offset)) + tuple(offset + t for t in perm)
            sigma += tuple(range(offset + block, space.m))
            terms.append(OperatorTerm(scale * chi, (ident,) * space.m, sigma))
    return StructuredOperator(space, terms)


def reference_young_projection(space, lam, side):
    """The former ``young_projection`` loop: one raw pure group per
    permutation with a nonzero character, canonicalized by the former
    ``_canonical``."""
    block, offset = (space.p, 0) if side == "left" else (space.q, space.p)
    scale = dimension(lam) / math.factorial(block)
    raw = []
    for perm in itertools.permutations(range(block)):
        chi = character(lam, cycle_type_of_permutation(perm))
        if chi == 0:
            continue
        sigma = list(range(space.m))
        for i, t in enumerate(perm):
            sigma[offset + i] = offset + t
        raw.append(legless(tuple(sigma), np.array([scale * chi], dtype=np.complex128), space.N))
    return StructuredOperator._from_canonical(space, reference_canonical(space, raw))


class TestYoungProjection:
    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_reference_loop_bytewise(self, N, side):
        for block in range(1, 6):
            sp = ModelSpace(N, block, 1) if side == "left" else ModelSpace(N, 1, block)
            for lam in enumerate_partitions(block):
                got = young_projection(sp, lam, side)
                want = reference_young_projection(sp, lam, side)
                assert_same_groups(got, want)
                assert all(g.merged for g in got._groups)

    def test_one_character_call_per_permutation(self, monkeypatch):
        calls = []
        real = duality_core.character

        def counted(lam, c):
            calls.append(c)
            return real(lam, c)

        monkeypatch.setattr(duality_core, "character", counted)
        # (2, 2) vanishes on the 4-cycles and transpositions: 24 calls, 12 terms
        P = young_projection(ModelSpace(2, 4, 0), Partition((2, 2)))
        assert len(calls) == 24 and P.n_terms == 12

    @pytest.mark.parametrize("p,N", [(2, 2), (3, 2), (3, 3)])
    def test_matches_character_average(self, p, N):
        sp = ModelSpace(N, p, 0)
        for lam in enumerate_partitions(p):
            dense = np.zeros((sp.dim, sp.dim), dtype=np.complex128)
            for sigma in all_perms(p):
                chi = character(lam, cycle_type_of_permutation(sigma))
                dense += chi * leg_perm_dense(sp, sigma)
            dense *= dimension(lam) / math.factorial(p)
            got = young_projection(sp, lam).to_dense().matrix
            assert np.allclose(got, dense, atol=1e-12)

    def test_rank_is_character_average_rank(self):
        # rank of the central projection: dim(lam) times the multiplicity
        sp = ModelSpace(2, 2, 0)
        sym = young_projection(sp, enumerate_partitions(2)[0])
        anti = young_projection(sp, enumerate_partitions(2)[1])
        # on (C^2 tensor C^2)^{x2} legs of dim 4: symmetric part 10, antisymmetric 6
        assert int(round(np.trace(sym.to_dense().matrix).real)) == 10
        assert int(round(np.trace(anti.to_dense().matrix).real)) == 6

    def test_right_side_embedding(self):
        sp = ModelSpace(2, 1, 2)
        lam = enumerate_partitions(2)[1]
        P = young_projection(sp, lam, side="right")
        # acts trivially on the left leg: commutes with left-leg actions
        x = left_mult(sp, rand_mat(2), 0)
        assert (P @ x - x @ P).hs_norm() < 1e-12
        assert (P @ P - P).hs_norm() < 1e-12

    def test_weight_mismatch_raises(self):
        sp = ModelSpace(2, 2, 0)
        with pytest.raises(ValueError):
            young_projection(sp, enumerate_partitions(3)[0])

    def test_invalid_side_raises(self):
        sp = ModelSpace(2, 2, 0)
        with pytest.raises(ValueError):
            young_projection(sp, enumerate_partitions(2)[0], side="middle")

    @pytest.mark.parametrize("block", [3, 5])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_term_list_oracle(self, block, side):
        sp = ModelSpace(2, block, 1) if side == "left" else ModelSpace(2, 1, block)
        for lam in enumerate_partitions(block):
            want = young_projection_terms(sp, lam, side)
            assert_same_groups(young_projection(sp, lam, side), want)


# -- Haar sampling and averages -------------------------------------------------


class TestHaarUnitary:
    def test_unitarity(self):
        for N in (2, 3, 5):
            u = haar_unitary(N, np.random.default_rng(1))
            assert np.allclose(u @ u.conj().T, np.eye(N), atol=1e-12)

    def test_seed_determinism(self):
        a = haar_unitary(4, np.random.default_rng(7))
        b = haar_unitary(4, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_first_moment_vanishes(self):
        # entries of u average to zero; fixed seed keeps this deterministic
        rng = np.random.default_rng(42)
        mean = sum(haar_unitary(2, rng) for _ in range(4000)) / 4000
        assert np.abs(mean).max() < 0.05

    @staticmethod
    def reference_haar_unitary(N, rng):
        """The former draw: one standard_normal call per Gaussian plane."""
        z = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        return q * (d / np.abs(d))

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 8, 16])
    def test_matches_the_two_call_draw_byte_for_byte(self, N):
        got_rng, want_rng = np.random.default_rng(N), np.random.default_rng(N)
        for _ in range(50):
            got, want = haar_unitary(N, got_rng), self.reference_haar_unitary(N, want_rng)
            assert got.tobytes() == want.tobytes()
        # both streams stand at the same place afterwards
        assert got_rng.integers(2**63) == want_rng.integers(2**63)


def reference_haar_average_mc(f, config):
    """The accumulation haar_average_mc replaced: fresh arrays for the
    sums and for every |sample|^2, and an out-of-place mean and variance."""
    streams = np.random.SeedSequence(config.seed).spawn(MC_STREAMS)
    base, extra = divmod(config.samples, MC_STREAMS)
    counts = [base + (1 if w < extra else 0) for w in range(MC_STREAMS)]
    total = totalsq = None
    for stream, count in zip(streams, counts):
        rng = np.random.default_rng(stream)
        for _ in range(count):
            dense = f(haar_unitary(config.N, rng)).to_dense().matrix
            if total is None:
                total = np.zeros_like(dense)
                totalsq = np.zeros(dense.shape)
            total += dense
            totalsq += np.abs(dense) ** 2
    n = config.samples
    mean = total / n
    if n == 1:
        return mean, float("inf")
    entry_var = np.maximum(totalsq - n * np.abs(mean) ** 2, 0.0) / (n - 1)
    return mean, float(np.sqrt(entry_var.sum() / n))


def mc_integrand(kind, space, a):
    if kind == "product":
        return lambda u: t_mixed(space, a @ u.conj().T) @ t_mixed(space, u)
    second = left_mult if kind == "ll" else right_mult
    return lambda u: left_mult(space, u.conj().T, 0) @ second(space, u, 1)


class TestHaarAverageMC:
    @pytest.mark.parametrize("N", [3, 4])
    @pytest.mark.parametrize("kind", ["product", "ll", "lr"])
    @pytest.mark.parametrize("samples", [1, 23])
    def test_matches_reference_loop(self, kind, N, samples):
        sp = ModelSpace(N, 1, 1)
        # its own generator: the module RNG stream of later tests is unchanged
        f = mc_integrand(kind, sp, rand_herm(N, np.random.default_rng(N)))
        cfg = HaarConfig(samples=samples, seed=1009, N=N)
        mc = haar_average_mc(f, cfg)
        mean, stderr = reference_haar_average_mc(f, cfg)
        assert mc.samples == samples and mc.seed == 1009
        scale = np.abs(mean).max()
        assert np.abs(mc.mean.matrix - mean).max() <= 1e-15 * scale
        if samples == 1:
            assert mc.stderr == stderr == float("inf")
        else:
            assert abs(mc.stderr - stderr) <= 1e-12 * stderr

    def test_matches_scalar_average(self):
        # int u a u* du = tr(a)/N on one leg
        N = 2
        sp = ModelSpace(N, 1, 0)
        a = rand_herm(N)
        mc = haar_average_mc(
            lambda u: left_mult(sp, u @ a @ u.conj().T, 0),
            HaarConfig(samples=3000, seed=314, N=N),
        )
        want = (np.trace(a) / N) * np.eye(sp.dim)
        diff = float(np.linalg.norm(mc.mean.matrix - want))
        assert diff <= 3 * mc.stderr

    def test_deterministic_for_fixed_seed_and_workers(self):
        sp = ModelSpace(2, 1, 0)
        cfg = HaarConfig(samples=100, seed=9, N=2)
        f = lambda u: left_mult(sp, u, 0)
        one = haar_average_mc(f, cfg).mean.matrix
        two = haar_average_mc(f, cfg).mean.matrix
        assert np.array_equal(one, two)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HaarConfig(samples=0, seed=1, N=2)

    def test_samples_on_two_spaces_raise(self):
        # both spaces have d = 16: the sum would add their matrices
        spaces = [ModelSpace(4, 1, 0), ModelSpace(2, 1, 1)]
        assert spaces[0].dim == spaces[1].dim
        drawn = []

        def f(u):
            drawn.append(u)
            return StructuredOperator.identity(spaces[len(drawn) % 2])

        with pytest.raises(SpaceMismatchError, match=re.escape(f"{spaces[0]} after samples on {spaces[1]}")):
            haar_average_mc(f, HaarConfig(samples=4, seed=3, N=2))
        assert len(drawn) == 2

    @pytest.mark.parametrize("kind", ["product", "ll", "lr"])
    def test_integrands_densify_without_a_merge(self, kind):
        # a sample's operators hold at most four terms: compose and
        # to_dense read them as built
        sp = ModelSpace(3, 1, 1)
        f = mc_integrand(kind, sp, rand_herm(3, np.random.default_rng(3)))
        cfg = HaarConfig(samples=5, seed=2, N=3)
        with mock.patch.object(legops, "_canonical", wraps=legops._canonical) as canon:
            assert haar_average_mc(f, cfg).samples == 5
        assert canon.call_count == 0

    def test_distance_needs_the_shape_of_the_mean(self):
        mc = haar_pair_average_mc(ModelSpace(2, 1, 1), 0, 1, "ll", HaarConfig(50, 1, 2))
        assert mc.distance(np.zeros((16, 16))) == math.sqrt(_sq_norm(mc.mean.matrix))
        for exact in (np.zeros(16), 0.0, np.zeros((1, 16))):
            with pytest.raises(ValueError, match=r"\(16, 16\)"):
                mc.distance(exact)


def reference_pair_average(space, k, j, mode, block_dim=None):
    """The pair average as D^2 OperatorTerms of LegFactors, built from
    the D x D list of units e_rs x 1: the differential oracle for
    ``haar_pair_average_exact``'s array-built group."""
    N = space.N
    D = N if block_dim is None else block_dim
    if N % D:
        raise ValueError(f"block dimension {D} does not divide N={N}")
    units = [[np.kron(np.outer(np.eye(D)[r], np.eye(D)[s]), np.eye(N // D)) for s in range(D)]
             for r in range(D)]
    eye = np.eye(N)
    terms = []
    for r in range(D):
        for s in range(D):
            factors = [identity_factor(N)] * space.m
            for leg, side, e in ((k, mode[0], units[r][s]), (j, mode[1], units[s][r])):
                factors[leg] = LegFactor(e, eye) if side == "l" else LegFactor(eye, e)
            terms.append(OperatorTerm(1.0 / D, tuple(factors), tuple(range(space.m))))
    return StructuredOperator(space, terms)


def term_pair_average(space, k, j, mode, block_dim=None):
    """The former haar_pair_average_exact, kept as a reference: the D^2
    terms as one raw group of _placed_group on the units of
    block_units."""
    D = _block_size(space.N, block_dim)
    units, swapped = block_units(space.N, D)
    coeffs = np.full(D * D, 1.0 / D, dtype=np.complex128)
    group = _placed_group(space, [(k, mode[0], units), (j, mode[1], swapped)], coeffs)
    return StructuredOperator._from_raw(space, [group])


def assert_same_operator(got, want, rtol=1e-13):
    """Up to d = 1296 the two operators densify to matrices within rtol of
    the larger entry of want, or of 1 when want is smaller; past it, up
    to the dense cap, where two matrices take 512 MiB, they map three
    seeded vectors within rtol of the larger result's norm, or of 1."""
    if got.space.dim <= 1296:
        X, Y = got.to_dense().matrix, want.to_dense().matrix
        assert np.abs(X - Y).max() <= rtol * max(1.0, np.abs(Y).max())
        return
    rng = np.random.default_rng(got.space.dim)
    for _ in range(3):
        v = rng.standard_normal(got.space.dim) + 1j * rng.standard_normal(got.space.dim)
        x, y = got.apply(v), want.apply(v)
        assert np.linalg.norm(x - y) <= rtol * max(1.0, np.linalg.norm(y))


def opaque_pair_integrand(space, k, j, mode):
    """X(u*)_k Y(u)_j as the per-sample operator haar_average_mc densifies."""
    X = left_mult if mode[0] == "l" else right_mult
    Y = left_mult if mode[1] == "l" else right_mult
    return lambda u: X(space, u.conj().T, k) @ Y(space, u, j)


class TestPairAverageMC:
    @pytest.mark.parametrize("N,p,q", [
        (2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1), (3, 2, 1), (3, 1, 2), (4, 1, 1),
    ])
    def test_matches_opaque_integrand(self, N, p, q):
        # the densified side costs d^2 per sample: d <= 729 here, and the
        # 200-sample runs only up to d = 256
        sp = ModelSpace(N, p, q)
        for k, j in itertools.permutations(range(sp.m), 2):
            for mode in ("ll", "rr", "lr"):
                for samples in (1, 23, 200) if sp.dim <= 256 else (1, 23):
                    cfg = HaarConfig(samples=samples, seed=7 * N + samples, N=N)
                    got = haar_pair_average_mc(sp, k, j, mode, cfg)
                    want = haar_average_mc(opaque_pair_integrand(sp, k, j, mode), cfg)
                    assert (got.samples, got.seed) == (samples, cfg.seed)
                    scale = np.abs(want.mean.matrix).max()
                    assert np.abs(got.mean.matrix - want.mean.matrix).max() <= 1e-15 * scale
                    if samples == 1:
                        assert got.stderr == want.stderr == float("inf")
                    else:
                        assert abs(got.stderr - want.stderr) <= 1e-12 * want.stderr

    def test_validation(self):
        sp = ModelSpace(2, 1, 1)
        cfg = HaarConfig(samples=4, seed=1, N=2)
        with pytest.raises(ValueError, match="distinct legs"):
            haar_pair_average_mc(sp, 0, 0, "ll", cfg)
        with pytest.raises(ValueError, match="mode"):
            haar_pair_average_mc(sp, 0, 1, "xy", cfg)
        with pytest.raises(ValueError, match="N=2"):
            haar_pair_average_mc(sp, 0, 1, "ll", HaarConfig(samples=4, seed=1, N=3))

    def test_draws_one_unitary_per_sample(self, monkeypatch):
        calls = []
        draw = duality_core.haar_unitary

        def counted(N, rng):
            calls.append(N)
            return draw(N, rng)

        monkeypatch.setattr(duality_core, "haar_unitary", counted)
        haar_pair_average_mc(ModelSpace(3, 1, 1), 0, 1, "lr", HaarConfig(samples=37, seed=5, N=3))
        assert calls == [3] * 37


def opaque_product_integrand(space, a):
    """t_mixed(a u*) o t_mixed(u) as the per-sample operator
    haar_average_mc densifies."""
    return lambda u: t_mixed(space, a @ u.conj().T) @ t_mixed(space, u)


class TestProductAverageMC:
    @pytest.mark.parametrize("N,p,q", [
        (2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1), (3, 2, 1), (3, 1, 2), (4, 1, 1),
    ])
    def test_matches_opaque_integrand(self, N, p, q):
        # as for the pair averages: d <= 729, and the 200-sample runs
        # only up to d = 256
        sp = ModelSpace(N, p, q)
        a = rand_mat(N, np.random.default_rng(40 + N))
        for samples in (1, 23, 200) if sp.dim <= 256 else (1, 23):
            cfg = HaarConfig(samples=samples, seed=11 * N + samples, N=N)
            got = product_average_mc(sp, a, cfg)
            want = haar_average_mc(opaque_product_integrand(sp, a), cfg)
            assert (got.samples, got.seed) == (samples, cfg.seed)
            # the two paths sum the same products in different orders
            scale = np.abs(want.mean.matrix).max()
            assert np.abs(got.mean.matrix - want.mean.matrix).max() <= 1e-14 * scale
            if samples == 1:
                assert got.stderr == want.stderr == float("inf")
            else:
                assert abs(got.stderr - want.stderr) <= 1e-12 * want.stderr

    def test_hermitian_a_and_identity(self):
        sp = ModelSpace(3, 1, 1)
        for a in (rand_herm(3, np.random.default_rng(5)), np.eye(3)):
            cfg = HaarConfig(samples=40, seed=3, N=3)
            got = product_average_mc(sp, a, cfg)
            want = haar_average_mc(opaque_product_integrand(sp, a), cfg)
            scale = np.abs(want.mean.matrix).max()
            assert np.abs(got.mean.matrix - want.mean.matrix).max() <= 1e-14 * scale
            assert abs(got.stderr - want.stderr) <= 1e-12 * want.stderr

    def test_validation(self):
        sp = ModelSpace(2, 1, 1)
        with pytest.raises(ValueError, match="N=2"):
            product_average_mc(sp, np.eye(2), HaarConfig(samples=4, seed=1, N=3))
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            product_average_mc(sp, np.eye(3), HaarConfig(samples=4, seed=1, N=2))

    def test_draws_one_unitary_per_sample(self, monkeypatch):
        calls = []
        draw = duality_core.haar_unitary

        def counted(N, rng):
            calls.append(N)
            return draw(N, rng)

        monkeypatch.setattr(duality_core, "haar_unitary", counted)
        # more samples than one norm batch, and not a multiple of it
        samples = duality_core._NORM_BATCH + 37
        product_average_mc(ModelSpace(2, 1, 1), np.eye(2), HaarConfig(samples, seed=5, N=2))
        assert calls == [2] * samples


# The two sampler loops that _moment_mc replaced, verbatim but for the
# pair list _product_blocks now takes: the oracles of the one sampler
# both twins call.


def _check_draws(space, config):
    if config.N != space.N:
        raise ValueError(f"config draws {config.N}x{config.N} unitaries, the space has N={space.N}")


def _add_moments(W, u, v):
    n2 = len(W)
    # a one-term GEMM, so each entry is the product to_dense forms
    np.matmul(u.conj().T.reshape(n2, 1), u.reshape(1, n2), out=v)
    W += v


def reference_pair_average_mc(space, k, j, mode, config):
    _check_pair(space, k, j, mode)
    N = space.N
    _check_draws(space, config)
    W = np.zeros((N * N, N * N), dtype=np.complex128)
    v = np.empty_like(W)
    sumsq = 0.0
    for u in _haar_draws(config):
        _add_moments(W, u, v)
        sumsq += np.vdot(v, v).real
    n = config.samples
    W /= n
    units, _ = block_units(N, N)
    ones = np.ones(N * N, dtype=np.complex128)
    group = _placed_group(space, [(k, mode[0], units), (j, mode[1], W.reshape(N * N, N, N))], ones)
    mean = StructuredOperator._from_raw(space, [group]).to_dense()
    reps = N ** (2 * space.m - 2)
    return MCAverage(mean, n, config.seed, _stderr(reps * sumsq, reps * _sq_norm(W), n))


def reference_product_average_mc(space, a, config):
    N = space.N
    a = _sanitize(a, N)
    _check_draws(space, config)
    n = config.samples
    W = np.zeros((N * N, N * N), dtype=np.complex128)
    v = np.empty_like(W)
    us = np.empty((min(n, _NORM_BATCH), N, N), dtype=np.complex128)
    sumsq = 0.0
    for i, u in enumerate(_haar_draws(config)):
        _add_moments(W, u, v)
        row = i % _NORM_BATCH
        us[row] = u
        if row == _NORM_BATCH - 1 or i == n - 1:
            batch = us[: row + 1]
            groups = _product_blocks(space, a, batch.conj().swapaxes(1, 2), batch, _product_pairs(space, True))
            sumsq += sum(np.vdot(g.coeffs, reference_gram(g, h, N, paired=True) * h.coeffs)
                         for g in groups for h in groups).real
    W /= n
    units, _ = block_units(N, N)
    blocks = _product_blocks(space, a, units, W.reshape(N * N, N, N), _product_pairs(space, True))
    mean = StructuredOperator._from_raw(space, blocks).to_dense()
    stderr = _stderr(sumsq, _sq_norm(mean.matrix), n)
    return MCAverage(mean, n, config.seed, stderr)


MOMENT_SPACES = [
    (2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1), (3, 2, 1), (4, 1, 1), (2, 2, 2), (2, 3, 0), (2, 0, 3),
]
MOMENT_SAMPLES = [1, 2, 23, 128, 129, 300]


class TestMomentSampler:
    """Both twins sample through one loop.  Their means are kernels of
    the sampled moments, densified by kernel sums in place of the former
    GEMM over N^2 matrix-unit terms: the pair's mean equals the former
    loop's entry for entry (its bytes differ in the sign of exact zeros),
    the product's moves by rounding, and with it its standard error; the
    pair's standard error comes from the traces of its sampled group, not
    from the moment entries scaled by N^(2m-2), and moves by rounding."""

    @pytest.mark.parametrize("N,p,q", MOMENT_SPACES)
    @pytest.mark.parametrize("samples", MOMENT_SAMPLES)
    def test_pair_matches_former_loop(self, N, p, q, samples):
        sp = ModelSpace(N, p, q)
        cfg = HaarConfig(samples=samples, seed=31 * N + samples, N=N)
        for k, j in itertools.permutations(range(sp.m), 2):
            for mode in ("ll", "rr", "lr"):
                got = haar_pair_average_mc(sp, k, j, mode, cfg)
                want = reference_pair_average_mc(sp, k, j, mode, cfg)
                assert (got.samples, got.seed) == (want.samples, want.seed)
                assert np.array_equal(got.mean.matrix, want.mean.matrix)
                if samples == 1:
                    assert got.stderr == want.stderr == float("inf")
                else:
                    assert abs(got.stderr - want.stderr) <= 1e-14 * want.stderr

    @pytest.mark.parametrize("N,p,q", MOMENT_SPACES)
    @pytest.mark.parametrize("samples", MOMENT_SAMPLES)
    def test_product_matches_former_loop(self, N, p, q, samples):
        sp = ModelSpace(N, p, q)
        rng = np.random.default_rng(17 * N + p)
        cfg = HaarConfig(samples=samples, seed=37 * N + samples, N=N)
        for a in (rand_mat(N, rng), rand_herm(N, rng), np.eye(N)):
            got = product_average_mc(sp, a, cfg)
            want = reference_product_average_mc(sp, a, cfg)
            assert (got.samples, got.seed) == (want.samples, want.seed)
            scale = np.abs(want.mean.matrix).max()
            assert np.abs(got.mean.matrix - want.mean.matrix).max() <= 1e-15 * scale
            if samples == 1:
                assert got.stderr == want.stderr == float("inf")
            else:
                assert abs(got.stderr - want.stderr) <= 1e-14 * want.stderr

    @pytest.mark.parametrize("twin", ["pair", "product"])
    def test_means_build_without_a_merge(self, twin):
        # at N = 3 the former mean held 9 matrix-unit terms per group,
        # past FEW_TERMS, and was merged before it was densified
        sp = ModelSpace(3, 1, 1)
        cfg = HaarConfig(samples=5, seed=2, N=3)
        names = ("_merge", "_fuzzy_merge", "_canonical")
        spies = [mock.patch.object(legops, name, wraps=getattr(legops, name)) for name in names]
        with spies[0] as merge, spies[1] as window, spies[2] as canon:
            if twin == "pair":
                haar_pair_average_mc(sp, 0, 1, "lr", cfg)
            else:
                product_average_mc(sp, rand_herm(3, np.random.default_rng(3)), cfg)
        assert (merge.call_count, window.call_count, canon.call_count) == (0, 0, 0)


class TestPairedTraces:
    def test_match_the_reference_diagonal(self):
        # identity-permutation groups on four legs: leg 1 carried by both of
        # (0, 1) and (1, 2), leg 0 by one of them, leg 3 by neither
        N, T, m, rng = 3, 5, 4, np.random.default_rng(17)

        def group(legs):
            shape = (T, len(legs), N, N)
            A, B = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in "AB")
            return _Group(tuple(range(m)), rng.standard_normal(T) + 0j, legs, A, B)

        groups = [group((0, 1)), group((1, 2)), group((0,)), group(())]
        for g in groups:
            for h in groups:
                got = _paired_traces(g, h, N, m)
                want = reference_gram(g, h, N, paired=True)
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
                full = reference_gram(g, h, N)
                assert np.abs(got - np.diagonal(full)).max() <= 1e-13 * np.abs(full).max()

def _traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _seconds(f):
    start = time.perf_counter()
    f()
    return time.perf_counter() - start


class TestMomentTwinCost:
    """At N = 6 (d = 1296, N^8 = 1.7e6) both twins take less time and
    less traced memory than the opaque path, which densifies every
    sample, and agree with it.  Neither forms anything of N^8 entries:
    their peak is about one dense mean, the opaque path's about three
    dense matrices."""

    @pytest.mark.parametrize("twin", ["pair", "product"])
    def test_below_opaque_path(self, twin):
        sp = ModelSpace(6, 1, 1)
        cfg = HaarConfig(samples=32, seed=13, N=6)
        if twin == "pair":
            moment = lambda: haar_pair_average_mc(sp, 0, 1, "lr", cfg)  # noqa: E731
            opaque = lambda: haar_average_mc(opaque_pair_integrand(sp, 0, 1, "lr"), cfg)  # noqa: E731
        else:
            a = rand_mat(6, np.random.default_rng(46))
            moment = lambda: product_average_mc(sp, a, cfg)  # noqa: E731
            opaque = lambda: haar_average_mc(opaque_product_integrand(sp, a), cfg)  # noqa: E731
        got, want = moment(), opaque()
        scale = np.abs(want.mean.matrix).max()
        assert np.abs(got.mean.matrix - want.mean.matrix).max() <= 1e-14 * scale
        assert abs(got.stderr - want.stderr) <= 1e-12 * want.stderr
        dense_bytes = 16 * sp.dim**2
        assert _traced_peak(moment) < 2 * dense_bytes < _traced_peak(opaque)
        # the opaque path takes about five times as long here
        assert _seconds(moment) < _seconds(opaque)


class TestPairAverageExact:
    def test_ll_square_identity(self):
        for N in (2, 3):
            sp = ModelSpace(N, 1, 1)
            T = haar_pair_average_exact(sp, 0, 1, "ll")
            ident = StructuredOperator.identity(sp)
            assert (T @ T - ident.scale(1.0 / N**2)).hs_norm() == 0.0

    def test_lr_projection(self):
        for N in (2, 3):
            sp = ModelSpace(N, 1, 1)
            P = haar_pair_average_exact(sp, 0, 1, "lr")
            assert (P @ P - P).hs_norm() == 0.0
            assert (P.adjoint() - P).hs_norm() == 0.0

    def test_monte_carlo_agreement(self):
        N = 2
        sp = ModelSpace(N, 1, 1)
        for mode, build in [
            ("ll", lambda u: left_mult(sp, u.conj().T, 0) @ left_mult(sp, u, 1)),
            ("rr", lambda u: right_mult(sp, u.conj().T, 0) @ right_mult(sp, u, 1)),
            ("lr", lambda u: left_mult(sp, u.conj().T, 0) @ right_mult(sp, u, 1)),
        ]:
            exact = haar_pair_average_exact(sp, 0, 1, mode).to_dense().matrix
            mc = haar_average_mc(build, HaarConfig(samples=4000, seed=27, N=N))
            assert float(np.linalg.norm(mc.mean.matrix - exact)) <= 3 * mc.stderr, mode

    def test_block_dim_full_equals_default(self):
        sp = ModelSpace(2, 1, 1)
        a = haar_pair_average_exact(sp, 0, 1, "lr")
        b = haar_pair_average_exact(sp, 0, 1, "lr", block_dim=2)
        assert (a - b).hs_norm() < 1e-14

    def test_validation(self):
        sp = ModelSpace(2, 1, 1)
        with pytest.raises(ValueError):
            haar_pair_average_exact(sp, 0, 0, "ll")
        with pytest.raises(ValueError):
            haar_pair_average_exact(sp, 0, 1, "xy")
        with pytest.raises(ValueError):
            haar_pair_average_exact(sp, 0, 1, "ll", block_dim=3)
        sp = ModelSpace(4, 1, 1)
        for bad in (0, -2):
            with pytest.raises(ValueError, match="block_dim"):
                haar_pair_average_exact(sp, 0, 1, "lr", bad)
            with pytest.raises(ValueError, match="block_dim"):
                product_average_exact(sp, np.eye(4), bad)

    def test_product_average_checks_shape_before_block(self):
        sp = ModelSpace(4, 1, 1)
        for block_dim in (None, 2):
            with pytest.raises(ValueError, match="expected a 4x4 matrix"):
                product_average_exact(sp, np.eye(3), block_dim)

    @pytest.mark.parametrize("N", [2, 3, 4, 6, 8])
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_matches_term_list_oracle(self, N, p, q):
        # the former term build is byte-equal to the OperatorTerm list, and
        # the kernel is the same operator wherever d <= DENSE_CAP
        sp = ModelSpace(N, p, q)
        for k, j in itertools.permutations(range(sp.m), 2):
            for mode in ("ll", "rr", "lr"):
                for block_dim in (None, 2):
                    if N % 2 and block_dim == 2:
                        with pytest.raises(ValueError):
                            haar_pair_average_exact(sp, k, j, mode, block_dim)
                        continue
                    want = term_pair_average(sp, k, j, mode, block_dim)
                    assert_same_groups(want, reference_pair_average(sp, k, j, mode, block_dim))
                    if sp.dim <= legops.DENSE_CAP:
                        assert_same_operator(haar_pair_average_exact(sp, k, j, mode, block_dim), want)


# -- conditional expectation ------------------------------------------------------


def oracle_expectation(a, level):
    D = 2**level
    K = a.shape[0] // D
    out = np.zeros((K, K), dtype=np.complex128)
    for i in range(D):
        out += a[i * K : (i + 1) * K, i * K : (i + 1) * K]
    return np.kron(np.eye(D), out / D)


class TestConditionalExpectation:
    def test_matches_oracle(self):
        tower = SubfactorTower.for_leg_size(8)
        a = rand_mat(8)
        for level in (1, 2, 3):
            got = conditional_expectation(tower, level, a)
            assert np.allclose(got, oracle_expectation(a, level), atol=1e-12)

    def test_trace_preserved(self):
        tower = SubfactorTower.for_leg_size(4)
        a = rand_mat(4)
        for level in (1, 2):
            e = conditional_expectation(tower, level, a)
            assert abs(np.trace(e) - np.trace(a)) < 1e-12

    def test_module_property(self):
        tower = SubfactorTower.for_leg_size(8)
        level, D = 1, 2
        K = 8 // D
        x = rand_mat(8)
        y = np.kron(np.eye(D), rand_mat(K))
        lhs = conditional_expectation(tower, level, y @ x)
        rhs = y @ conditional_expectation(tower, level, x)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_level_bounds(self):
        tower = SubfactorTower.for_leg_size(4)
        with pytest.raises(ValueError):
            conditional_expectation(tower, 0, np.eye(4))
        with pytest.raises(ValueError):
            conditional_expectation(tower, 3, np.eye(4))

    def test_tower_factoring(self):
        t = SubfactorTower.for_leg_size(12)
        assert (t.levels, t.complement) == (2, 3)
        assert t.N == 12
        with pytest.raises(ValueError):
            SubfactorTower.for_leg_size(7)


# -- cross-leg remainder ------------------------------------------------------------


def reference_sigma_residual(space, a, u):
    """The four cross-leg pair sums, each term built by compose: the
    byte-for-byte oracle for sigma_residual, which takes the cross-leg
    blocks of the product's term-group builder."""
    u = duality_core._check_unitary(u, space.N)
    a = np.asarray(a, dtype=np.complex128)
    au = a @ u.conj().T
    parts = []
    left = range(space.p)
    right = range(space.p, space.m)
    for k in left:
        for j in left:
            if k != j:
                parts.append(left_mult(space, au, k).compose(left_mult(space, u, j)))
    for k in right:
        for j in right:
            if k != j:
                parts.append(right_mult(space, au, k).compose(right_mult(space, u, j)))
    for k in left:
        for j in right:
            parts.append(-left_mult(space, au, k).compose(right_mult(space, u, j)))
            parts.append(-right_mult(space, au, j).compose(left_mult(space, u, k)))
    return StructuredOperator.sum(parts, space)


def term_sigma_average(space, a, block_dim=None):
    """The former sigma_average_exact, kept as a reference: the blocks
    s != t of _product_blocks on the units of block_units, weight 1/D."""
    D = _block_size(space.N, block_dim)
    units, swapped = block_units(space.N, D)
    blocks = _product_blocks(space, _sanitize(a, space.N), units, swapped, _product_pairs(space, False))
    return StructuredOperator._from_raw(space, [g._replace(coeffs=g.coeffs * (1.0 / D)) for g in blocks])


def term_product_average(space, a, block_dim=None):
    """The former product_average_exact, on :func:`term_sigma_average`."""
    expected = duality_core._block_expectation(_sanitize(a, space.N), block_dim)
    return StructuredOperator.sum([
        t_plus(space, a), t_minus(space, expected), term_sigma_average(space, a, block_dim),
    ])


def reference_sigma_average_exact(space, a, block_dim=None):
    """The cross-leg pairs composed with the term-built pair averages:
    the byte-for-byte oracle for :func:`term_sigma_average`."""
    a = np.asarray(a, dtype=np.complex128)
    parts = []
    left = range(space.p)
    right = range(space.p, space.m)
    for k in left:
        for j in left:
            if k != j:
                pair = term_pair_average(space, k, j, "ll", block_dim)
                parts.append(left_mult(space, a, k).compose(pair))
    for k in right:
        for j in right:
            if k != j:
                pair = term_pair_average(space, k, j, "rr", block_dim)
                parts.append(pair.compose(right_mult(space, a, k)))
    for k in left:
        for j in right:
            pair = term_pair_average(space, k, j, "lr", block_dim)
            parts.append(-left_mult(space, a, k).compose(pair))
            parts.append(-pair.compose(right_mult(space, a, j)))
    return StructuredOperator.sum(parts, space)


SIGMA_SIDES = [(1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 0)]


class TestSigmaResidual:
    @pytest.mark.parametrize("N", [2, 3, 4])
    @pytest.mark.parametrize("p,q", SIGMA_SIDES)
    def test_matches_compose_oracle(self, N, p, q):
        sp = ModelSpace(N, p, q)
        rng = np.random.default_rng(0x516 + 10 * N + p)
        u = haar_unitary(N, rng)
        for a in (np.eye(N), rand_herm(N, rng)):
            assert_same_groups(sigma_residual(sp, a, u), reference_sigma_residual(sp, a, u))
            for block_dim in (None, 2) if N == 4 else (None,):
                want = term_sigma_average(sp, a, block_dim)
                assert_same_groups(want, reference_sigma_average_exact(sp, a, block_dim))
                if sp.dim <= legops.DENSE_CAP:
                    assert_same_operator(sigma_average_exact(sp, a, block_dim), want)

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 0), (0, 2), (1, 0), (0, 1)])
    def test_shape_checked_before_use(self, p, q):
        sp = ModelSpace(3, p, q)
        msg = r"expected a 3x3 matrix, got shape \(2, 2\)"
        with pytest.raises(ValueError, match=msg):
            sigma_residual(sp, np.eye(2), np.eye(3))
        with pytest.raises(ValueError, match=msg):
            sigma_average_exact(sp, np.eye(2))

    def test_product_decomposition_per_sample(self):
        # t_mixed(a u*) t_mixed(u) = t_plus(a) + t_minus(u a u*) + remainder
        for (N, p, q) in [(2, 1, 1), (2, 2, 1), (3, 1, 1)]:
            sp = ModelSpace(N, p, q)
            a = rand_herm(N)
            u = haar_unitary(N, np.random.default_rng(3))
            lhs = t_mixed(sp, a @ u.conj().T) @ t_mixed(sp, u)
            rhs = t_plus(sp, a) + t_minus(sp, u @ a @ u.conj().T) + sigma_residual(sp, a, u)
            assert (lhs - rhs).hs_norm() < 1e-10

    def test_average_matches_monte_carlo(self):
        N = 2
        sp = ModelSpace(N, 1, 1)
        a = rand_herm(N)
        exact = sigma_average_exact(sp, a).to_dense().matrix
        mc = haar_average_mc(
            lambda u: sigma_residual(sp, a, u),
            HaarConfig(samples=4000, seed=55, N=N),
        )
        assert float(np.linalg.norm(mc.mean.matrix - exact)) <= 3 * mc.stderr

    def test_identity_hs_values(self):
        for N in (2, 4):
            sp = ModelSpace(N, 1, 1)
            sig = sigma_average_exact(sp, np.eye(N))
            assert abs(sig.hs_norm() - 2.0 / N) < 1e-12

    def test_product_average_assembles(self):
        sp = ModelSpace(2, 1, 1)
        a = rand_herm(2)
        got = product_average_exact(sp, a)
        expected = (
            t_plus(sp, a)
            + t_minus(sp, (np.trace(a) / 2) * np.eye(2))
            + sigma_average_exact(sp, a)
        )
        assert (got - expected).hs_norm() < 1e-12

    def test_product_average_monte_carlo(self):
        N = 2
        sp = ModelSpace(N, 1, 1)
        a = rand_herm(N)
        exact = product_average_exact(sp, a).to_dense().matrix
        mc = haar_average_mc(
            lambda u: t_mixed(sp, a @ u.conj().T) @ t_mixed(sp, u),
            HaarConfig(samples=4000, seed=56, N=N),
        )
        assert float(np.linalg.norm(mc.mean.matrix - exact)) <= 3 * mc.stderr


def block_dims(N):
    """The full group and every proper block dimension of M_N."""
    return [None] + [D for D in range(1, N) if N % D == 0]


class TestKernelBuilds:
    """The exact averages are kernel groups, written straight from the
    block-unit formula: they densify to the former term builds, and no
    build or norm of theirs merges terms."""

    # every (p, q) of (1, 1), (2, 1), (1, 2), (2, 2) at each N with d <= DENSE_CAP
    @pytest.mark.parametrize("N,p,q", [
        (2, 1, 1), (3, 1, 1), (4, 1, 1), (8, 1, 1), (2, 2, 1), (3, 2, 1), (4, 2, 1),
        (2, 1, 2), (3, 1, 2), (4, 1, 2), (2, 2, 2),
    ])
    def test_sigma_and_product_match_the_term_builds(self, N, p, q):
        sp = ModelSpace(N, p, q)
        rng = np.random.default_rng(1000 * N + 10 * p + q)
        for a in (rand_mat(N, rng), rand_herm(N, rng), np.eye(N)):
            for block_dim in block_dims(N):
                got = sigma_average_exact(sp, a, block_dim)
                assert all(isinstance(g, legops._KernelGroup) for g in got._groups)
                assert len(got._groups) == sp.m * (sp.m - 1) // 2
                assert_same_operator(got, term_sigma_average(sp, a, block_dim))
                assert_same_operator(product_average_exact(sp, a, block_dim),
                                    term_product_average(sp, a, block_dim))

    @pytest.mark.parametrize("N", [2, 3, 5, 8, 16])
    def test_one_left_one_right_leg_is_the_direct_kernel(self, N):
        # -(K1 + K2)/N on the row of leg 0 and the column of leg 1
        a = rand_herm(N, np.random.default_rng(N))
        eye = np.eye(N)
        K1 = np.einsum("ij,kl->ijkl", a, eye)
        K2 = np.einsum("ij,lk->ijkl", eye, a)
        (g,) = sigma_average_exact(ModelSpace(N, 1, 1), a)._groups
        assert (g.sigma, g.axes) == ((0, 1), (0, 3))
        assert np.array_equal(g.kernel, -(K1 + K2) / N)

    def test_zero_a_gives_the_zero_operator(self):
        sp = ModelSpace(3, 2, 1)
        assert sigma_average_exact(sp, np.zeros((3, 3))).n_terms == 0

    def test_building_and_norming_never_merge(self):
        sp = ModelSpace(4, 2, 1)
        a = rand_herm(4, np.random.default_rng(41))
        with mock.patch.object(legops, "_merge", side_effect=AssertionError("merged")), \
                mock.patch.object(legops, "_kernel", side_effect=AssertionError("built a kernel")):
            for block_dim in (None, 2):
                sig = sigma_average_exact(sp, a, block_dim)
                sig.hs_norm(), sig.operator_norm(), sig.normalized_trace()
            pair = haar_pair_average_exact(sp, 0, 2, "lr")
            pair.hs_norm(), pair.operator_norm(), pair.normalized_trace()

    def test_limit_formula_at_N16_against_the_closed_forms(self):
        # the sizes the kernels reach: operator norm |t| + sqrt(s), cross-leg
        # 2-norm sqrt(2 (t^2 + s)) / N
        N = 16
        a = rand_herm(N, np.random.default_rng(16))
        a /= np.linalg.norm(a, 2)
        rep = limit_formula_check(ModelSpace(N, 1, 1), a)
        t, s = np.trace(a).real / N, np.trace(a @ a).real / N
        assert abs(rep.residual_op_norm - (abs(t) + np.sqrt(s))) <= 1e-10 * (abs(t) + np.sqrt(s))
        want = np.sqrt(2 * (t * t + s)) / N
        assert abs(rep.sigma_average_hs_norm - want) <= 1e-12 * want


def reference_unit_kernel(a, left, agree, D):
    """The former duality_core._unit_kernel, kept as a reference: the
    kernel of the sum over r, s of the multiplication by a U_rs on one
    side of a leg S and by U_sr on one side of another leg T, the U_rs =
    e_rs x 1_K the units of M_N = M_D x M_K: output axes of S and T, then
    input axes, (N,) * 4.  ``left`` puts a U_rs on the row of S, else on
    its column; ``agree`` says the two sides agree.

    With V = sum U_rs (x) U_rs and W = sum U_rs (x) U_sr on the two axes,
    the kernel is (a x 1) W or (a x 1) V if ``left``, W (a^T x 1) or
    V (a^T x 1) if not, W when the sides agree.  Each entry is one entry
    of a times Kronecker deltas, written by one einsum with no sum.
    """
    N = a.shape[0]
    K = N // D
    # o: output of S, i: input of S; A B, C E, F G, H J: (block, inner)
    # digits of the output of T, input of S, input of T, output of S
    if left:
        spec = "oFE,CA,BG->oABCEFG" if agree else "oAE,CF,BG->oABCEFG"
    else:
        spec = "iAJ,HF,BG->HJABiFG" if agree else "iFJ,HA,BG->HJABiFG"
    return np.einsum(spec, a.reshape(N, D, K), np.eye(D), np.eye(K)).reshape((N,) * 4)


def reference_ordered(axes, kernel):
    """A kernel on two axes with its axes put in ascending order."""
    if axes[0] < axes[1]:
        return axes, kernel
    return axes[::-1], kernel.transpose(1, 0, 3, 2)


def reference_unit_kernels(space, a, pairs, D):
    """The former sigma_average_exact's grouping of the unit kernels of
    ``pairs``: added with their signs in pair order per pair of axes,
    divided by D, zero kernels dropped; as (axes, kernel) in axes order."""
    kernels = {}
    for s, t, side_s, side_t, sign in pairs:
        kernel = sign * reference_unit_kernel(a, side_s == "l", side_s == side_t, D)
        axes, kernel = reference_ordered((_side_axis(s, side_s), _side_axis(t, side_t)), kernel)
        if axes in kernels:
            kernels[axes] += kernel
        else:
            kernels[axes] = np.ascontiguousarray(kernel)
    return [(axes, kernels[axes] / D) for axes in sorted(kernels) if kernels[axes].any()]


def assert_kernels_equal(groups, want):
    assert [g.axes for g in groups] == [axes for axes, _ in want]
    for g, (_, kernel) in zip(groups, want):
        assert g.sigma == tuple(range(len(g.sigma))) and g.merged
        assert g.kernel.dtype == np.complex128 and g.kernel.flags.c_contiguous
        assert np.array_equal(g.kernel, kernel)


def reference_unit_moment(N, D):
    """The former ``duality_core._unit_moment``: the 0/1 tensor W[a, b,
    c, d] of the sum over r, s of U_rs (x) U_sr, U_rs = e_rs x 1_K."""
    eD, eK = np.eye(D, dtype=np.complex128), np.eye(N // D, dtype=np.complex128)
    # A B, C E, F G, H J: (block, inner) digits of a, b, c, d
    return np.einsum("AH,CF,BE,GJ->ABCEFGHJ", eD, eD, eK, eK).reshape((N,) * 4)


class TestMomentKernels:
    """One builder, _moment_kernels, makes the exact pair and sigma
    kernels from the block-unit product of _unit_product: entry for entry
    the kernels the block-unit formula writes directly."""

    @pytest.mark.parametrize("N", [2, 3, 4, 6, 8, 16])
    def test_unit_product_equals_the_moment_gemm(self, N):
        # P = (a x 1) W read off the deltas equals the former GEMM of a
        # with the block-unit moment tensor W, at every block size
        a = _sanitize(rand_mat(N, np.random.default_rng(N)), N)
        for D in [D for D in range(1, N + 1) if N % D == 0]:
            W = reference_unit_moment(N, D)
            assert np.array_equal(_unit_product(a, D), (a @ W.reshape(N, -1)).reshape(W.shape))

    # the (N, p, q) of TestKernelBuilds
    @pytest.mark.parametrize("N,p,q", [
        (2, 1, 1), (3, 1, 1), (4, 1, 1), (8, 1, 1), (2, 2, 1), (3, 2, 1), (4, 2, 1),
        (2, 1, 2), (3, 1, 2), (4, 1, 2), (2, 2, 2),
    ])
    def test_exact_kernels_equal_the_unit_kernels(self, N, p, q):
        sp = ModelSpace(N, p, q)
        rng = np.random.default_rng(2000 * N + 10 * p + q)
        a = _sanitize(rand_mat(N, rng), N)
        for D in [D for D in range(1, N + 1) if N % D == 0]:
            P = _unit_product(a, D)
            # one pair of every side combination, both leg orders
            for side_s, side_t in itertools.product("lr", repeat=2):
                for s, t in ((0, sp.m - 1), (sp.m - 1, 0)):
                    pair = [(s, t, side_s, side_t, -1.0)]
                    assert_kernels_equal(_moment_kernels(sp, P, pair, D),
                                         reference_unit_kernels(sp, a, pair, D))
            for k, j in itertools.permutations(range(sp.m), 2):
                for mode in ("ll", "rr", "lr"):
                    # the former pair build: the unit kernel of a = 1
                    kernel = reference_unit_kernel(np.eye(N, dtype=np.complex128), True, mode[0] == mode[1], D) / D
                    want = [reference_ordered((_side_axis(k, mode[0]), _side_axis(j, mode[1])), kernel)]
                    assert_kernels_equal(haar_pair_average_exact(sp, k, j, mode, D)._groups, want)
            want = reference_unit_kernels(sp, a, _product_pairs(sp, False), D)
            assert_kernels_equal(sigma_average_exact(sp, a, D)._groups, want)


class TestLimitFormula:
    def test_report_consistency(self):
        sp = ModelSpace(2, 1, 1)
        a = rand_herm(2)
        a = a / np.linalg.norm(a, 2)
        rep = limit_formula_check(sp, a)
        assert rep.stated_bound == pytest.approx(2 * (2) ** 2 / 2)
        # residual = averaged - (t_plus - t_minus(E)); recompute densely
        averaged = product_average_exact(sp, a).to_dense().matrix
        expected = (np.trace(a) / 2) * np.eye(2)
        stated = (t_plus(sp, a) - t_minus(sp, expected)).to_dense().matrix
        want_hs = np.linalg.norm(averaged - stated) / np.sqrt(sp.dim)
        assert rep.residual_hs_norm == pytest.approx(want_hs, abs=1e-12)
        assert rep.residual_op_norm <= rep.stated_bound

    def test_block_average_with_tower(self):
        tower = SubfactorTower.for_leg_size(4)
        sp = ModelSpace(4, 1, 1)
        a = rand_herm(4)
        rep = limit_formula_check(sp, a, tower=tower, level=1)
        assert rep.block_dim == 2
        averaged = product_average_exact(sp, a, block_dim=2)
        e1 = conditional_expectation(tower, 1, a)
        stated = t_plus(sp, a) - t_minus(sp, e1)
        sig = sigma_average_exact(sp, a, block_dim=2)
        assert ((averaged - stated) - (sig + t_minus(sp, e1).scale(2.0))).hs_norm() < 1e-10

    @pytest.mark.xfail(strict=True, reason=(
        "product_average_exact at block_dim=1 is the zero operator (t_mixed(a) o "
        "t_mixed(1) = 0), but its t_plus/t_minus term group and its sigma kernel group "
        "cancel only across groups, so hs_norm keeps the sqrt(eps) of a cancellation "
        "between classes: 3.7e-8 here, 1.9e-7 at N = 6"))
    def test_trivial_block_average_is_zero(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = (z + z.conj().T) / 2
        assert product_average_exact(ModelSpace(3, 1, 1), a, block_dim=1).hs_norm() <= 1e-12

    def test_tower_requires_level(self):
        sp = ModelSpace(4, 1, 1)
        with pytest.raises(ValueError):
            limit_formula_check(sp, np.eye(4), tower=SubfactorTower.for_leg_size(4))

    def test_tower_level_and_shape_validation(self):
        sp = ModelSpace(4, 1, 1)
        tower = SubfactorTower.for_leg_size(4)
        for level in (0, 3):
            with pytest.raises(ValueError, match="level"):
                limit_formula_check(sp, np.eye(4), tower=tower, level=level)
        with pytest.raises(ValueError, match="expected 4x4"):
            limit_formula_check(sp, np.eye(2), tower=tower, level=1)

    def test_closed_forms_against_dense_oracle(self):
        # p = q = 1, full group, t = tau(a), s = tau(a^2).  The averages are
        # rebuilt densely from E[conj(u_kl) u_ij] = delta_ik delta_jl / N,
        # i.e. (1/N) * sum over matrix units with u -> e_ij, u* -> e_ji
        rng = np.random.default_rng(0xC05)
        for N in (2, 3, 4):
            sp = ModelSpace(N, 1, 1)
            eye, eye2 = np.eye(N), np.eye(N * N)

            def lm(x):
                return np.kron(np.kron(x, eye), eye2)

            def rm(y):
                return np.kron(eye2, np.kron(eye, y.T))

            units = [np.outer(eye[i], eye[j]) for i in range(N) for j in range(N)]
            a = rand_herm(N, rng)
            t = np.trace(a).real / N
            s = np.trace(a @ a).real / N
            product = sum(
                (lm(a @ e.T) - rm(a @ e.T)) @ (lm(e) - rm(e)) for e in units
            ) / N
            sigma = -sum(lm(a @ e.T) @ rm(e) + rm(a @ e.T) @ lm(e) for e in units) / N
            residual = product - (lm(a) - rm(t * eye))
            got = product_average_exact(sp, a).to_dense().matrix
            assert np.abs(got - product).max() < 1e-12
            got = sigma_average_exact(sp, a).to_dense().matrix
            assert np.abs(got - sigma).max() < 1e-12

            def two_norm(x):
                return np.linalg.norm(x) / np.sqrt(sp.dim)

            op_norm = abs(t) + np.sqrt(s)
            residual_norm = np.sqrt(4 * t * t + (2 * s - 6 * t * t) / N**2)
            sigma_norm = np.sqrt(2 * (t * t + s)) / N
            assert np.linalg.norm(residual, 2) == pytest.approx(op_norm, rel=1e-12)
            assert two_norm(residual) == pytest.approx(residual_norm, rel=1e-12)
            assert two_norm(sigma) == pytest.approx(sigma_norm, rel=1e-12)


# -- non-finite input ----------------------------------------------------------------


def nan_at_origin(n):
    a = np.eye(n)
    a[0, 0] = np.nan
    return a


class TestNonFiniteInput:
    """A NaN or infinite matrix entry raises NumericError naming it,
    before any arithmetic can warn or spread it."""

    SP = ModelSpace(3, 1, 1)
    NAN = r"non-finite matrix entry \(nan\+0j\) at \(0, 0\)"

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            yield

    def test_t_plus(self):
        with pytest.raises(NumericError, match=self.NAN):
            t_plus(self.SP, nan_at_origin(3))

    def test_sigma_average_exact(self):
        with pytest.raises(NumericError, match=r"\(inf\+0j\) at \(0, 0\)"):
            sigma_average_exact(self.SP, np.full((3, 3), np.inf))

    def test_left_mult(self):
        with pytest.raises(NumericError, match=self.NAN):
            left_mult(self.SP, nan_at_origin(3), 0)

    def test_limit_formula_check(self):
        with pytest.raises(NumericError, match=self.NAN):
            limit_formula_check(self.SP, nan_at_origin(3))

    def test_conditional_expectation(self):
        with pytest.raises(NumericError, match=self.NAN):
            conditional_expectation(SubfactorTower(1, 1), 1, np.full((2, 2), np.nan))


# -- spectral binning ----------------------------------------------------------------


def reference_spectral_binning(A, eps):
    """The binning loop over every bin, empty ones included: the
    byte-for-byte oracle for spectral_binning, which visits only the
    occupied bins."""
    A = np.asarray(A, dtype=np.complex128)
    eigvals, eigvecs = np.linalg.eigh((A + A.conj().T) / 2)
    lower = float(eigvals[0])
    upper = float(eigvals[-1])
    width = 0.99 * eps
    nbins = int(np.floor((upper - lower) / width)) + 1
    cuts = lower + width * np.arange(nbins + 1)
    bin_of = np.minimum(np.floor((eigvals - lower) / width).astype(int), nbins - 1)
    reps = np.empty(nbins)
    for i in range(nbins):
        mask = bin_of == i
        reps[i] = eigvals[mask].mean() if mask.any() else (cuts[i] + cuts[i + 1]) / 2
    binned_vals = reps[bin_of]
    a_eps = (eigvecs * binned_vals) @ eigvecs.conj().T
    a_eps = (a_eps + a_eps.conj().T) / 2
    projections = []
    for i in range(nbins):
        cols = eigvecs[:, bin_of == i]
        projections.append(cols @ cols.conj().T)
    return a_eps, SpectralGrid(lower, upper, cuts, reps), projections


class TestSpectralBinning:
    def test_norm_strictly_below_eps(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(4, 17))
            A = rand_herm(n, rng)
            for eps in (0.5, 0.1):
                a_eps, _, _ = spectral_binning(A, eps)
                assert np.linalg.norm(A - a_eps, 2) < eps

    def test_singleton_bins_reproduce(self):
        A = np.diag([0.0, 1.0, 2.0, 3.0])
        a_eps, grid, projs = spectral_binning(A, 0.3)
        assert np.allclose(a_eps, A, atol=1e-12)
        assert len(projs) == len(grid.representatives)

    def test_single_bin_mean(self):
        A = np.diag([0.0, 0.01])
        a_eps, grid, _ = spectral_binning(A, 0.5)
        assert np.allclose(a_eps, 0.005 * np.eye(2), atol=1e-12)

    def test_projections_resolve_identity(self):
        A = rand_herm(8)
        _, _, projs = spectral_binning(A, 0.2)
        total = sum(projs)
        assert np.allclose(total, np.eye(8), atol=1e-10)
        for i, P in enumerate(projs):
            assert np.allclose(P @ P, P, atol=1e-10)
            for Q in projs[i + 1 :]:
                assert np.abs(P @ Q).max() < 1e-10

    def test_grid_shape(self):
        A = np.diag([0.0, 1.0])
        _, grid, _ = spectral_binning(A, 0.3)
        assert grid.cuts[0] == pytest.approx(0.0)
        assert grid.cuts[-1] > 1.0
        assert np.max(np.diff(grid.cuts)) < 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            spectral_binning(np.eye(2), 0.0)
        with pytest.raises(ValueError):
            spectral_binning(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)
        for shape in [(0, 0), (2, 3), (3,)]:
            with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                spectral_binning(np.zeros(shape), 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_matrix(self, bad):
        A = np.eye(3)
        A[1, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                spectral_binning(A, 0.1)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_rejects_non_finite_eps(self, eps):
        with pytest.raises(ValueError, match="eps"):
            spectral_binning(np.eye(2), eps)

    def test_projections_are_separate_writable_arrays(self):
        # bins 1 and 2 of 11 hold one eigenvalue each, the others none
        _, _, projs = spectral_binning(np.diag([0.0, 0.3, 0.6, 3.0]), 0.3)
        assert len(projs) == 11
        before = [P.copy() for P in projs]
        for i, P in enumerate(projs):
            assert P.flags.writeable
            P[...] = 7.0
            for j, Q in enumerate(projs):
                if j != i:
                    assert Q.tobytes() == before[j].tobytes()
            P[...] = before[i]

    def test_leaves_numpy_ma_unloaded(self):
        # the first 1-D np.unique in a process imports numpy.ma, about 15 ms
        src = Path(duality_core.__file__).resolve().parents[1]
        code = (
            "import sys, numpy as np\n"
            "from duallab import block_structure, spectral_binning\n"
            "blocks = block_structure([np.diag([1.0, 1.0, 2.0, 3.0])])\n"
            "binned = spectral_binning(np.diag([0.0, 0.3, 0.6, 3.0]), 0.3)\n"
            "print(blocks, len(binned[2]), 'numpy.ma' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
        ).stdout
        assert out.split()[-2:] == ["11", "False"]

    def test_matches_reference_loop_bytewise(self):
        rng = np.random.default_rng(0xB1)
        for n in range(4, 17):
            A = rand_herm(n, rng) * rng.uniform(0.5, 3.0)
            for eps in (0.3, 0.1, 0.03):
                a_eps, grid, projs = spectral_binning(A, eps)
                want_eps, want_grid, want_projs = reference_spectral_binning(A, eps)
                assert a_eps.tobytes() == want_eps.tobytes()
                for name in ("cuts", "representatives"):
                    assert getattr(grid, name).tobytes() == getattr(want_grid, name).tobytes()
                assert (grid.lower, grid.upper) == (want_grid.lower, want_grid.upper)
                assert len(projs) == len(want_projs)
                for P, Q in zip(projs, want_projs):
                    assert P.dtype == Q.dtype and P.tobytes() == Q.tobytes()

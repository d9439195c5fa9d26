"""Structured leg operators against a from-scratch dense oracle.

The oracle materializes a term by acting on every standard basis
vector with plain reshape-and-matmul steps, so it shares neither the
batched per-group matmul of ``to_dense`` nor the batched matmuls of
``apply``.
The canonical form is checked against ``greedy_merge``, the pairwise
merge the grouped engine replaced.
"""

import tracemalloc
from unittest import mock
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from duallab import legops
from duallab.duality_core import (
    haar_pair_average_exact, limit_formula_check, sigma_average_exact, young_projection,
)
from duallab.symcomb import Partition, permutation_cycles

from duallab.legops import (
    CapExceededError,
    DenseOperator,
    FACTOR_MERGE_TOL,
    FEW_TERMS,
    LegFactor,
    MERGE_TOL,
    ModelSpace,
    NumericError,
    OperatorTerm,
    SpaceMismatchError,
    StructuredOperator,
    _Group,
    _merge,
    identity_factor,
    left_mult,
    load_dense,
    permutation_op,
    permuted_product_trace,
    right_mult,
    save_dense,
)

RNG = np.random.default_rng(0xB0B)


def rand_mat(n, rng=RNG):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def rand_term(space, rng=RNG, identity_slots=0):
    factors = []
    for k in range(space.m):
        if k < identity_slots:
            factors.append(identity_factor(space.N))
        else:
            factors.append(LegFactor(rand_mat(space.N, rng), rand_mat(space.N, rng)))
    sigma = tuple(rng.permutation(space.m).tolist())
    coeff = complex(rng.standard_normal() + 1j * rng.standard_normal())
    return OperatorTerm(coeff, tuple(factors), sigma)


def rand_op(space, n_terms=3, rng=RNG):
    return StructuredOperator(space, [rand_term(space, rng) for _ in range(n_terms)])


def oracle_term_action(space, term, vec):
    """Definition, written longhand: sandwich every leg, then move the
    content of leg k to leg sigma(k)."""
    N, m = space.N, space.m
    work = vec.reshape([N * N] * m)
    # sandwich pass, one leg at a time
    for k, f in enumerate(term.factors):
        moved = np.moveaxis(work, k, 0).reshape(N, N, -1)
        sand = np.einsum("ab,bcx,cd->adx", f.A, moved, f.B)
        work = np.moveaxis(sand.reshape([N * N] + [N * N] * (m - 1)), 0, k)
    # permutation pass: output leg sigma(k) carries input leg k
    perm = [0] * m
    for k in range(m):
        perm[term.sigma[k]] = k
    out = np.transpose(work, perm)
    return term.coefficient * out.reshape(-1)


def oracle_dense(op):
    space = op.space
    mat = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for col in range(space.dim):
        e = np.zeros(space.dim, dtype=np.complex128)
        e[col] = 1.0
        for term in op.terms:
            mat[:, col] += oracle_term_action(space, term, e)
    return mat


# -- model space ---------------------------------------------------------------


class TestModelSpace:
    def test_dimensions(self):
        sp = ModelSpace(3, 2, 1)
        assert sp.m == 3
        assert sp.leg_dim == 9
        assert sp.dim == 729

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            ModelSpace(1, 1, 1)

    def test_rejects_negative_legs(self):
        with pytest.raises(ValueError):
            ModelSpace(2, -1, 1)

    def test_check_leg(self):
        sp = ModelSpace(2, 1, 1)
        sp.check_leg(0)
        sp.check_leg(1)
        with pytest.raises(ValueError):
            sp.check_leg(2)


# -- leg factors ---------------------------------------------------------------


class TestLegFactor:
    def test_identity_detection(self):
        assert identity_factor(2).is_identity
        assert not LegFactor(np.eye(2) * 2, np.eye(2)).is_identity

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            LegFactor(np.eye(2), np.eye(3))

    def test_signature_identity_stable(self):
        assert identity_factor(3).signature() == b"I"


# -- structured operator algebra ------------------------------------------------


SPACES = [ModelSpace(2, 1, 1), ModelSpace(2, 2, 0), ModelSpace(3, 1, 1), ModelSpace(2, 2, 1)]


class TestDenseAgreement:
    @pytest.mark.parametrize("space", SPACES, ids=str)
    def test_to_dense_matches_oracle(self, space):
        op = rand_op(space)
        assert np.allclose(op.to_dense().matrix, oracle_dense(op), atol=1e-12)

    @pytest.mark.parametrize("space", SPACES, ids=str)
    def test_compose_matches_dense_product(self, space):
        x, y = rand_op(space), rand_op(space)
        got = (x @ y).to_dense().matrix
        want = x.to_dense().matrix @ y.to_dense().matrix
        assert np.allclose(got, want, atol=1e-10)

    @pytest.mark.parametrize("space", SPACES, ids=str)
    def test_adjoint_matches_dense(self, space):
        x = rand_op(space)
        assert np.allclose(
            x.adjoint().to_dense().matrix, x.to_dense().matrix.conj().T, atol=1e-12
        )

    @pytest.mark.parametrize("space", SPACES, ids=str)
    def test_apply_matches_dense(self, space):
        x = rand_op(space)
        v = RNG.standard_normal(space.dim) + 1j * RNG.standard_normal(space.dim)
        assert np.allclose(x.apply(v), x.to_dense().matrix @ v, atol=1e-10)

    @pytest.mark.parametrize("space", SPACES, ids=str)
    def test_trace_matches_dense(self, space):
        x = rand_op(space)
        want = np.trace(x.to_dense().matrix) / space.dim
        assert abs(x.normalized_trace() - want) < 1e-12

    @pytest.mark.parametrize("space", SPACES, ids=str)
    def test_hs_norm_matches_dense(self, space):
        x = rand_op(space)
        want = np.linalg.norm(x.to_dense().matrix) / np.sqrt(space.dim)
        assert abs(x.hs_norm() - want) < 1e-10

    def test_trace_and_norm_over_one_sided_fixed_legs(self):
        # against P(0,2,1) the group of a on leg 0 has a fixed leg 0 that
        # only it carries; against P(1,0,2), a fixed leg 2 that no group carries
        sp = ModelSpace(2, 2, 1)
        x = (left_mult(sp, rand_mat(2), 0) + permutation_op(sp, (0, 2, 1)) * (0.5 - 1j)
             + permutation_op(sp, (1, 0, 2)) * 2j)
        X = oracle_dense(x)
        assert abs(x.normalized_trace() - np.trace(X) / sp.dim) < 1e-12
        assert abs(x.hs_norm() - np.linalg.norm(X) / np.sqrt(sp.dim)) < 1e-12

    def test_linear_combinations(self):
        sp = ModelSpace(2, 1, 1)
        x, y = rand_op(sp), rand_op(sp)
        got = (x.scale(2.0) - y + x).to_dense().matrix
        want = 3.0 * x.to_dense().matrix - y.to_dense().matrix
        assert np.allclose(got, want, atol=1e-12)

    def test_j_conjugate_is_involutive_antihomomorphism(self):
        sp = ModelSpace(2, 1, 1)
        x, y = rand_op(sp), rand_op(sp)
        assert (x.j_conjugate().j_conjugate() - x).hs_norm() < 1e-12
        # J(xy)J = JxJ JyJ, and J is antilinear, so scaling conjugates
        lhs = (x @ y).j_conjugate()
        rhs = x.j_conjugate() @ y.j_conjugate()
        assert (lhs - rhs).hs_norm() < 1e-10
        assert (x.scale(2j).j_conjugate() - x.j_conjugate().scale(-2j)).hs_norm() < 1e-12


class TestBuilders:
    def test_left_mult_dense(self):
        sp = ModelSpace(2, 1, 1)
        a = rand_mat(2)
        want = np.kron(np.kron(a, np.eye(2)), np.eye(4))
        assert np.allclose(left_mult(sp, a, 0).to_dense().matrix, want)

    def test_right_mult_dense(self):
        sp = ModelSpace(2, 1, 1)
        a = rand_mat(2)
        want = np.kron(np.eye(4), np.kron(np.eye(2), a.T))
        assert np.allclose(right_mult(sp, a, 1).to_dense().matrix, want)

    def test_left_right_commute_on_distinct_legs(self):
        sp = ModelSpace(2, 1, 1)
        a, b = rand_mat(2), rand_mat(2)
        x = left_mult(sp, a, 0) @ right_mult(sp, b, 1)
        y = right_mult(sp, b, 1) @ left_mult(sp, a, 0)
        assert (x - y).hs_norm() < 1e-12

    def test_left_right_same_leg_commute(self):
        # left and right multiplications on one leg always commute
        sp = ModelSpace(2, 1, 0)
        a, b = rand_mat(2), rand_mat(2)
        x = left_mult(sp, a, 0) @ right_mult(sp, b, 0)
        y = right_mult(sp, b, 0) @ left_mult(sp, a, 0)
        assert (x - y).hs_norm() < 1e-12

    def test_permutation_op_moves_content(self):
        sp = ModelSpace(2, 2, 0)
        sigma = (1, 0)
        P = permutation_op(sp, sigma)
        x, y = rand_mat(2), rand_mat(2)
        vec = np.kron(x.reshape(-1), y.reshape(-1))
        want = np.kron(y.reshape(-1), x.reshape(-1))
        assert np.allclose(P.apply(vec), want)

    def test_permutation_op_composes_as_group(self):
        sp = ModelSpace(2, 3, 0)
        s = (1, 2, 0)
        t = (0, 2, 1)
        st_comp = tuple(s[t[k]] for k in range(3))
        got = permutation_op(sp, s) @ permutation_op(sp, t)
        assert (got - permutation_op(sp, st_comp)).hs_norm() < 1e-12

    def test_permutation_invalid_raises(self):
        with pytest.raises(ValueError):
            permutation_op(ModelSpace(2, 2, 0), (0, 0))

    def test_pure_permutation_sums_compose_on_sixteen_legs(self):
        # from m = 16 on, m^m overflows int64 and compose ranks the
        # products by np.unique.  id.id and s.s^-1 merge, as do s.id and
        # id.s; x.s and x.u differ on the last two legs only; and the
        # coefficients are exact in binary
        sp, rng = ModelSpace(2, 16, 0), np.random.default_rng(16)
        ident = tuple(range(16))
        s, t = (tuple(rng.permutation(16).tolist()) for _ in range(2))
        u = s[:14] + (s[15], s[14])
        x_terms = [(ident, 1.0), (s, 2.0j), (t, -0.5)]
        y_terms = [(ident, 0.25), (legops._invert(s), -1.5), (s, 0.75), (u, 4.0j)]

        def op(terms):
            return StructuredOperator.sum([permutation_op(sp, sigma) * c for sigma, c in terms])

        want = {}
        for sx, cx in x_terms:
            for sy, cy in y_terms:
                sigma = tuple(sx[k] for k in sy)
                want[sigma] = want.get(sigma, 0) + cx * cy
        got = visited(op(x_terms) @ op(y_terms))
        assert len(want) < len(x_terms) * len(y_terms)
        assert [g.sigma for g in got] == sorted(want)
        assert all(not g.legs and len(g.coeffs) == 1 for g in got)
        assert [complex(g.coeffs[0]) for g in got] == [want[sigma] for sigma in sorted(want)]


# -- canonical form --------------------------------------------------------------


class TestCanonicalize:
    def test_term_order_irrelevant(self):
        sp = ModelSpace(2, 1, 1)
        terms = [rand_term(sp) for _ in range(4)]
        a = StructuredOperator(sp, terms)
        b = StructuredOperator(sp, list(reversed(terms)))
        assert len(a.terms) == len(b.terms)
        for ta, tb in zip(a.terms, b.terms):
            assert ta.signature() == tb.signature()
            assert ta.coefficient == tb.coefficient

    def test_equal_signatures_merge(self):
        sp = ModelSpace(2, 1, 0)
        t = rand_term(sp)
        doubled = StructuredOperator(sp, [t, t])
        assert doubled.n_terms == 1
        assert np.isclose(doubled.terms[0].coefficient, 2 * t.coefficient)

    def test_tiny_coefficients_dropped(self):
        sp = ModelSpace(2, 1, 0)
        t = rand_term(sp)
        tiny = OperatorTerm(MERGE_TOL / 10, t.factors, t.sigma)
        assert StructuredOperator(sp, [tiny]).n_terms == 0

    def test_cancellation_produces_empty(self):
        sp = ModelSpace(2, 1, 1)
        x = rand_op(sp)
        diff = x - x
        assert diff.n_terms == 0
        assert diff.normalized_trace() == 0

    def test_float_twin_factors_merge(self):
        # factors differing at the last float bit must collapse
        sp = ModelSpace(2, 1, 0)
        a = rand_mat(2)
        perturbed = a * (1.0 + 1e-16)
        x = StructuredOperator(
            sp,
            [
                OperatorTerm(1.0, (LegFactor(a, np.eye(2)),), (0,)),
                OperatorTerm(-1.0, (LegFactor(perturbed, np.eye(2)),), (0,)),
            ],
        )
        assert x.n_terms == 0

    def test_distant_factors_stay_separate(self):
        sp = ModelSpace(2, 1, 0)
        a = rand_mat(2)
        x = StructuredOperator(
            sp,
            [
                OperatorTerm(1.0, (LegFactor(a, np.eye(2)),), (0,)),
                OperatorTerm(-1.0, (LegFactor(a + 1e-6, np.eye(2)),), (0,)),
            ],
        )
        assert x.n_terms == 2

    def test_zero_factor_term_dropped(self):
        sp = ModelSpace(2, 1, 0)
        t = OperatorTerm(1.0, (LegFactor(np.zeros((2, 2)), np.eye(2)),), (0,))
        assert StructuredOperator(sp, [t]).n_terms == 0

    def test_wrong_arity_rejected(self):
        sp = ModelSpace(2, 2, 0)
        t = rand_term(ModelSpace(2, 1, 0))
        with pytest.raises(ValueError):
            StructuredOperator(sp, [t])

    # abs(nan) >= MERGE_TOL is False: unchecked, a NaN coefficient would
    # drop out of the merge and leave the zero operator
    NON_FINITE = [float("nan"), complex(0.0, float("nan")), float("inf"), complex(1.0, -float("inf"))]

    @pytest.mark.parametrize("c", NON_FINITE, ids=repr)
    def test_non_finite_scale_rejected(self, c):
        x = left_mult(ModelSpace(2, 1, 1), rand_mat(2), 0)
        with pytest.raises(NumericError):
            x.scale(c)

    @pytest.mark.parametrize("c", NON_FINITE, ids=repr)
    def test_non_finite_multiplier_rejected(self, c):
        x = right_mult(ModelSpace(2, 1, 1), rand_mat(2), 1)
        with pytest.raises(NumericError):
            x * c
        with pytest.raises(NumericError):
            c * x

    @pytest.mark.parametrize("c", NON_FINITE, ids=repr)
    def test_non_finite_term_coefficient_rejected(self, c):
        sp = ModelSpace(2, 1, 1)
        t = rand_term(sp)
        with pytest.raises(NumericError):
            StructuredOperator(sp, [t, OperatorTerm(c, t.factors, t.sigma)])


# -- traces by the former Gram kernel ---------------------------------------------


def reference_cycle_trace(factors, N):
    """The former ``legops._cycle_trace``: tr(A factors multiplied along
    a cycle) * tr(B factors against it).

    ``factors`` lists one (A, B) pair of batched arrays per leg of the
    cycle, in cycle order, or (None, None) for an identity leg.
    """
    a = b = None
    for fa, fb in factors:
        if fa is None:
            continue
        a = fa if a is None else fa @ a
        b = fb if b is None else b @ fb
    if a is None:
        return N * N
    return np.trace(a, axis1=-2, axis2=-1) * np.trace(b, axis1=-2, axis2=-1)


def reference_gram(g, h, N, paired=False):
    """The former ``legops._gram``: unnormalized traces Tr(T_i* T_j), i
    in g, j in h; with ``paired``, g and h hold equally many terms and
    only the vector of the traces with j = i is formed.

    T_i* T_j has permutation rho = sigma_g^-1 sigma_h and, at leg k, the
    sandwich (A_i[rho k]* A_j[k], B_j[k] B_i[rho k]*); its trace factors
    over the cycles of rho.
    """
    inv = legops._invert(g.sigma)
    rho = tuple(inv[s] for s in h.sigma)
    gp = {k: i for i, k in enumerate(g.legs)}
    hp = {k: i for i, k in enumerate(h.legs)}
    # g's terms run along axis 0 and h's along axis 1, or both along axis 0
    shape, spec = (len(g.coeffs), len(h.coeffs)), "iab,jab->ij"
    gx, hx = (slice(None), None), (None,)
    if paired:
        shape, spec, gx, hx = len(g.coeffs), "iab,iab->i", (), ()
    G = np.ones(shape, dtype=np.complex128)
    for cycle in permutation_cycles(rho):
        if len(cycle) == 1 and cycle[0] in gp and cycle[0] in hp:
            i, j = gp[cycle[0]], hp[cycle[0]]
            # tr(A_i* A_j) tr(B_j B_i*) = <A_i, A_j> <B_i, B_j> entrywise.
            # einsum makes these small products without BLAS: on a
            # 2-CPU machine OpenBLAS's threaded zgemm took 15-20 ms per
            # call at T = 64, N = 8, and einsum under 1 ms.
            G *= np.einsum(spec, g.A[:, i].conj(), h.A[:, j])
            G *= np.einsum(spec, g.B[:, i].conj(), h.B[:, j])
            continue
        factors = []
        for k in cycle:
            i, j = gp.get(rho[k]), hp.get(k)
            ga = gb = ha = hb = None
            if i is not None:
                ga = g.A[:, i].conj().swapaxes(1, 2)[gx]
                gb = g.B[:, i].conj().swapaxes(1, 2)[gx]
            if j is not None:
                ha, hb = h.A[:, j][hx], h.B[:, j][hx]
            fa = ha if ga is None else ga if ha is None else ga @ ha
            fb = hb if gb is None else gb if hb is None else hb @ gb
            factors.append((fa, fb))
        G = G * reference_cycle_trace(factors, N)
    return G


def legless(sigma, coeffs, N, merged=False):
    """Pure terms on one permutation as a term group that carries no
    leg, the form of a pure term before permutation groups (the former
    ``legops._pure``)."""
    empty = np.empty((len(coeffs), 0, N, N), dtype=np.complex128)
    return _Group(sigma, coeffs, (), empty, empty, merged)


def visited(op):
    """The canonical groups of ``op`` as readers visit them, a pure term
    its own legless group (``legops._visit``): the groups the former
    readers below saw."""
    return legops._visit(op._groups, True, op.space.N)


def reference_trace(self):
    """The former ``StructuredOperator.normalized_trace``: the identity's
    row of the Gram matrix, divided by N^(2m)."""
    N = self.space.N
    one = legless(tuple(range(self.space.m)), np.ones(1, dtype=np.complex128), N)
    total = 0.0 + 0.0j
    for g in visited(self):
        total += g.coeffs @ reference_gram(one, g, N)[0]
    return complex(total / self.space.dim)


def reference_hs_norm(self):
    """The former ``StructuredOperator.hs_norm``: c^H G c / N^(2m), G the
    Gram matrix of the terms, block by block over pairs of groups."""
    N = self.space.N
    total = 0.0 + 0.0j
    groups = visited(self)
    for g in groups:
        for h in groups:
            total += g.coeffs.conj() @ reference_gram(g, h, N) @ h.coeffs
    val = total.real / self.space.dim
    return float(np.sqrt(max(val, 0.0)))


# -- positivity and norms ---------------------------------------------------------


class TestNorms:
    def test_trace_positive_on_squares(self):
        sp = ModelSpace(2, 1, 1)
        x = rand_op(sp)
        val = x.adjoint().compose(x).normalized_trace()
        assert val.real > 0
        assert abs(val.imag) < 1e-12

    def test_operator_norm_matches_svd(self):
        for space in SPACES[:3]:
            x = rand_op(space)
            want = np.linalg.norm(x.to_dense().matrix, 2)
            assert abs(x.operator_norm() - want) < 1e-10 * want

    def test_operator_norm_of_zero(self):
        sp = ModelSpace(2, 1, 1)
        with mock.patch.object(StructuredOperator, "apply", side_effect=AssertionError):
            assert StructuredOperator.zero(sp).operator_norm() == 0.0

    def test_identity_norms(self):
        sp = ModelSpace(3, 1, 1)
        ident = StructuredOperator.identity(sp)
        assert abs(ident.hs_norm() - 1.0) < 1e-14
        assert abs(ident.normalized_trace() - 1.0) < 1e-14

    def test_space_mismatch_raises(self):
        x = rand_op(ModelSpace(2, 1, 1))
        y = rand_op(ModelSpace(2, 2, 0))
        with pytest.raises(SpaceMismatchError):
            x + y
        with pytest.raises(SpaceMismatchError):
            x @ y

    def test_dense_cap_enforced(self):
        sp = ModelSpace(3, 2, 2)  # dim 6561 exceeds DENSE_CAP = 4096
        with pytest.raises(CapExceededError):
            rand_op(sp, 1).to_dense()


class TestLanczos:
    """operator_norm: one seeded Lanczos run on X* X."""

    @pytest.mark.parametrize("case", ["identity", "permutation", "young", "rank_one"])
    def test_matches_dense_two_norm(self, case):
        if case == "young":
            sp = ModelSpace(2, 3, 0)
            x = young_projection(sp, Partition((2, 1)))  # rank 40 of 64
        elif case == "rank_one":
            # X* X = left_mult(e_00) is a projection: the Krylov space
            # span{v, X* X v} is invariant after the first step
            sp = ModelSpace(2, 1, 1)
            x = left_mult(sp, np.diag([1.0, 0.0]), 0)
        else:
            sp = ModelSpace(3, 1, 1)
            x = (StructuredOperator.identity(sp) if case == "identity"
                 else permutation_op(sp, (1, 0)).scale(3.0))
        want = np.linalg.norm(x.to_dense().matrix, 2)
        assert abs(x.operator_norm() - want) <= 1e-10 * want

    def test_step_budget_raises(self, monkeypatch):
        monkeypatch.setattr(legops, "LANCZOS_STEPS", 1)
        with pytest.raises(NumericError, match="1 steps"):
            rand_op(ModelSpace(2, 1, 1)).operator_norm()

    def test_sigma_average_closes_in_few_steps(self):
        sig = sigma_average_exact(ModelSpace(8, 1, 1), np.eye(8))
        apply = StructuredOperator.apply
        with mock.patch.object(StructuredOperator, "apply", autospec=True, side_effect=apply) as m:
            assert abs(sig.operator_norm() - 2.0) <= 1e-12
        assert m.call_count <= 8


# -- cycle traces ------------------------------------------------------------------


class TestPermutedProductTrace:
    def test_matches_dense_trace(self):
        n, m = 3, 3
        mats = [rand_mat(n) for _ in range(m)]
        for sigma in [(1, 2, 0), (1, 0, 2), (0, 1, 2), (2, 1, 0)]:
            sp = ModelSpace(n, m, 0)
            dense = permutation_op(sp, sigma).to_dense().matrix
            # plain tensor legs: restrict the model-space formula by hand
            big = np.eye(1, dtype=np.complex128)
            for u in mats:
                big = np.kron(big, u)
            # build the plain permutation matrix on (C^n)^m directly
            perm = np.zeros((n**m, n**m))
            for idx in np.ndindex(*([n] * m)):
                out = [0] * m
                for k in range(m):
                    out[sigma[k]] = idx[k]
                perm[np.ravel_multi_index(out, [n] * m), np.ravel_multi_index(idx, [n] * m)] = 1
            want = np.trace(perm @ big)
            got = permuted_product_trace(sigma, mats)
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))

    def test_identity_gives_product_of_traces(self):
        mats = [rand_mat(2) for _ in range(3)]
        got = permuted_product_trace((0, 1, 2), mats)
        want = np.prod([np.trace(u) for u in mats])
        assert abs(got - want) < 1e-10

    def test_invalid_sigma_raises(self):
        with pytest.raises(ValueError):
            permuted_product_trace((0, 0), [np.eye(2), np.eye(2)])


# -- serialization ------------------------------------------------------------------


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        sp = ModelSpace(2, 1, 1)
        x = rand_op(sp)
        path = tmp_path / "op.bin"
        save_dense(path, x.to_dense().matrix, sp, kind="probe")
        mat, space, kind = load_dense(path)
        assert space == sp
        assert kind == "probe"
        assert np.array_equal(mat, x.to_dense().matrix)

    def test_corrupt_magic_rejected(self, tmp_path):
        sp = ModelSpace(2, 1, 0)
        path = tmp_path / "op.bin"
        save_dense(path, np.eye(sp.dim, dtype=np.complex128), sp)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            load_dense(path)


class TestDenseOperator:
    def test_shape_validated(self):
        with pytest.raises(ValueError):
            DenseOperator(ModelSpace(2, 1, 1), np.eye(7))


class TestLoadDenseFaults:
    """Malformed files raise ValueError naming the file and the fault."""

    @staticmethod
    def saved(tmp_path, array=None, kind="operator"):
        sp = ModelSpace(2, 1, 0)
        path = tmp_path / "op.bin"
        save_dense(path, np.eye(sp.dim) if array is None else array, sp, kind=kind)
        return path, path.read_bytes()

    @pytest.mark.parametrize("cut", [12, 20])
    def test_truncated_header(self, tmp_path, cut):
        path, raw = self.saved(tmp_path)
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match=r"op\.bin: truncated header"):
            load_dense(path)

    def test_truncated_payload(self, tmp_path):
        path, raw = self.saved(tmp_path)
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match=r"op\.bin: payload has 248 bytes"):
            load_dense(path)

    def test_payload_length_does_not_match_shape(self, tmp_path):
        path, raw = self.saved(tmp_path, np.zeros((2, 3)), kind="probe")
        path.write_bytes(raw.replace(b'"shape": [2, 3]', b'"shape": [3, 3]'))
        with pytest.raises(ValueError, match=r"op\.bin: payload has 96 bytes, shape \[3, 3\]"):
            load_dense(path)

    def test_operator_shape_must_match_space(self, tmp_path):
        path, raw = self.saved(tmp_path)
        path.write_bytes(raw.replace(b'"N": 2', b'"N": 3'))
        with pytest.raises(ValueError, match=r"op\.bin: operator shape \[4, 4\] is not \(9, 9\)"):
            load_dense(path)

    def test_save_rejects_operator_of_wrong_shape(self, tmp_path):
        path = tmp_path / "op.bin"
        with pytest.raises(ValueError, match=r"op\.bin: operator shape \[3, 3\] is not \(16, 16\)"):
            save_dense(path, np.zeros((3, 3)), ModelSpace(2, 1, 1))
        assert not path.exists()

    def test_malformed_header(self, tmp_path):
        path, raw = self.saved(tmp_path)
        path.write_bytes(raw.replace(b'"kind"', b'"kinx"'))
        with pytest.raises(ValueError, match=r"op\.bin: malformed header"):
            load_dense(path)


# -- grouped engine against the longhand oracles ------------------------------------


def greedy_merge(space, terms):
    """The pairwise merge the canonical form must reproduce term for term.

    Exact merge by signature, summing in input order; sort by signature;
    within each permutation, fold every term onto the first earlier
    representative whose factors are entrywise within
    FACTOR_MERGE_TOL * (1 + max |entry|) of its own; drop coefficients
    below MERGE_TOL; sort again.
    """

    def close(fs, gs):
        for f, g in zip(fs, gs):
            tol = FACTOR_MERGE_TOL * (1.0 + max(np.abs(f.A).max(), np.abs(f.B).max()))
            if np.abs(f.A - g.A).max() > tol or np.abs(f.B - g.B).max() > tol:
                return False
        return True

    merged = {}
    for t in terms:
        if any(not (np.any(f.A) and np.any(f.B)) for f in t.factors):
            continue
        key = t.signature()
        if key in merged:
            prev = merged[key]
            merged[key] = OperatorTerm(prev.coefficient + t.coefficient, prev.factors, prev.sigma)
        else:
            merged[key] = t
    by_sigma = {}
    for t in sorted(merged.values(), key=lambda t: t.signature()):
        by_sigma.setdefault(t.sigma, []).append(t)
    kept = []
    for group in by_sigma.values():
        reps = []
        for t in group:
            for i, r in enumerate(reps):
                if close(t.factors, r.factors):
                    reps[i] = OperatorTerm(r.coefficient + t.coefficient, r.factors, r.sigma)
                    break
            else:
                reps.append(t)
        kept.extend(reps)
    kept = [t for t in kept if abs(t.coefficient) >= MERGE_TOL]
    return sorted(kept, key=lambda t: t.signature())


def longhand_product_terms(x, y):
    """Term-by-term product of two operators, one 2-D matmul per leg."""
    out = []
    for tx in x.terms:
        for ty in y.terms:
            factors = []
            for k in range(x.space.m):
                f, g = tx.factors[ty.sigma[k]], ty.factors[k]
                factors.append(LegFactor(f.A @ g.A, g.B @ f.B))
            sigma = tuple(tx.sigma[ty.sigma[k]] for k in range(x.space.m))
            out.append(OperatorTerm(tx.coefficient * ty.coefficient, tuple(factors), sigma))
    return out


def leg_transpose_index(space):
    """Index map of eta -> eta^T on every leg; J v = conj(v[index])."""
    N, m = space.N, space.m
    axes = [a for k in range(m) for a in (2 * k + 1, 2 * k)]
    return np.arange(space.dim).reshape((N,) * (2 * m)).transpose(axes).reshape(-1)


# dense oracles stay cheap: dim <= 81
ORACLE_SPACES = [
    ModelSpace(2, 1, 0), ModelSpace(2, 1, 1), ModelSpace(2, 2, 0),
    ModelSpace(2, 2, 1), ModelSpace(3, 1, 1), ModelSpace(3, 0, 2),
]


def leg_factor(N, kind, rng):
    if kind == "identity":
        return identity_factor(N)
    a = rand_mat(N, rng) if kind in ("left", "both") else np.eye(N)
    b = rand_mat(N, rng) if kind in ("right", "both") else np.eye(N)
    return LegFactor(a, b)


def float_twin(term, rng, coefficient):
    """The term with every non-identity factor moved by a few ulps."""
    factors = tuple(
        f if f.is_identity else LegFactor(f.A * (1 + 4e-16 * rng.standard_normal(f.A.shape)), f.B)
        for f in term.factors
    )
    return OperatorTerm(coefficient, factors, term.sigma)


def ladder(term, rng):
    """Two terms whose first carried factor sits 1.5 and 0.75 merge
    tolerances from the term's: each is close to the term or to the
    other one but not both, so which terms merge depends on the order."""
    k = next((k for k, f in enumerate(term.factors) if not f.is_identity), None)
    if k is None:
        return []
    f = term.factors[k]
    tol = FACTOR_MERGE_TOL * (1.0 + max(np.abs(f.A).max(), np.abs(f.B).max()))
    out = []
    for step in (1.5, 0.75):
        shifted = f.A.copy()
        shifted[0, 0] += step * tol
        factors = term.factors[:k] + (LegFactor(shifted, f.B),) + term.factors[k + 1:]
        out.append(OperatorTerm(complex(rng.standard_normal()), factors, term.sigma))
    return out


@st.composite
def term_lists(draw, space):
    """Up to five random terms with mixed permutations and identity legs,
    each possibly followed by a float twin, a cancelling twin, a copy or
    a ladder of near-tolerance neighbours."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(("identity", "left", "right", "both"))
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        factors = tuple(leg_factor(space.N, draw(kinds), rng) for _ in range(space.m))
        sigma = tuple(draw(st.permutations(range(space.m))))
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        t = OperatorTerm(coeff, factors, sigma)
        terms.append(t)
        extra = draw(st.sampled_from(("none", "twin", "cancel", "copy", "ladder")))
        if extra == "ladder":
            terms.extend(ladder(t, rng))
        elif extra == "twin":
            terms.append(float_twin(t, rng, complex(rng.standard_normal())))
        elif extra == "cancel":
            terms.append(float_twin(t, rng, -coeff))
        elif extra == "copy":
            terms.append(t)
    return terms


def assert_dense_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * max(1.0, np.abs(want).max()))


def assert_terms_match(got, want, exact):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.sigma == b.sigma
        if exact:
            assert a.signature() == b.signature()
            assert a.coefficient == complex(b.coefficient)
        else:
            for f, g in zip(a.factors, b.factors):
                assert np.allclose(f.A, g.A, rtol=1e-13, atol=1e-13)
                assert np.allclose(f.B, g.B, rtol=1e-13, atol=1e-13)
            assert abs(a.coefficient - b.coefficient) <= 1e-13 * max(1.0, abs(b.coefficient))


DIFF_SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestGroupedEngine:
    @DIFF_SETTINGS
    @given(st.data())
    def test_merge_matches_greedy_oracle(self, data):
        space = data.draw(st.sampled_from(ORACLE_SPACES))
        terms = data.draw(term_lists(space))
        assert_terms_match(StructuredOperator(space, terms).terms, greedy_merge(space, terms), exact=True)

    @DIFF_SETTINGS
    @given(st.data())
    def test_compose_merge_matches_greedy_oracle(self, data):
        space = data.draw(st.sampled_from(ORACLE_SPACES))
        x = StructuredOperator(space, data.draw(term_lists(space)))
        y = StructuredOperator(space, data.draw(term_lists(space)))
        want = greedy_merge(space, longhand_product_terms(x, y))
        assert_terms_match((x @ y).terms, want, exact=False)

    @DIFF_SETTINGS
    @given(st.data())
    def test_unary_operations_against_dense_oracle(self, data):
        space = data.draw(st.sampled_from(ORACLE_SPACES))
        terms = data.draw(term_lists(space))
        x = StructuredOperator(space, terms)
        X = oracle_dense(x)
        # merging changes the operator by float-twin rounding at most
        assert_dense_close(X, oracle_dense(SimpleNamespace(space=space, terms=terms)))
        assert_dense_close(x.to_dense().matrix, X)
        assert_dense_close(oracle_dense(x.adjoint()), X.conj().T)
        idx = leg_transpose_index(space)
        assert_dense_close(oracle_dense(x.j_conjugate()), X.conj()[np.ix_(idx, idx)])
        scale = max(1.0, np.abs(X).max())
        assert abs(x.normalized_trace() - np.trace(X) / space.dim) <= 1e-12 * scale
        assert abs(x.hs_norm() - np.linalg.norm(X) / np.sqrt(space.dim)) <= 1e-10 * scale
        v = RNG.standard_normal(space.dim) + 1j * RNG.standard_normal(space.dim)
        np.testing.assert_allclose(x.apply(v), X @ v, rtol=0, atol=1e-10 * scale * space.dim)

    @DIFF_SETTINGS
    @given(st.data())
    def test_products_and_laws(self, data):
        space = data.draw(st.sampled_from(ORACLE_SPACES))
        x, y, z = (StructuredOperator(space, data.draw(term_lists(space))) for _ in range(3))
        X, Y = oracle_dense(x), oracle_dense(y)
        assert_dense_close((x @ y).to_dense().matrix, X @ Y)
        assert_dense_close(StructuredOperator.sum([x, y, z]).to_dense().matrix, (x + y + z).to_dense().matrix)
        # the laws hold up to merge rounding; compared densely, because the
        # 2-norm of a difference that does not cancel term by term is only
        # accurate to sqrt(eps) of the operands' norms
        dense = lambda op: op.to_dense().matrix  # noqa: E731
        assert_dense_close(dense((x @ y) @ z), dense(x @ (y @ z)))
        assert_dense_close(dense((x @ y).adjoint()), dense(y.adjoint() @ x.adjoint()))
        assert_dense_close(dense(x.j_conjugate().j_conjugate()), X)
        scale = max(1.0, np.abs(X).max()) * max(1.0, np.abs(Y).max())
        assert abs((x @ y).normalized_trace() - (y @ x).normalized_trace()) <= 1e-10 * scale

    def test_identity_orders_as_the_bytes_prefix_I(self):
        # a leg's signature is b"I" for the identity, else its factor
        # bytes: b"I" sorts before bytes starting with "I" or above and
        # after bytes starting below "I"
        sp = ModelSpace(2, 2, 0)
        terms = []
        for lead in (0x48, 0x49, 0x4A):
            a = rand_mat(2)
            raw = bytearray(a.tobytes())
            raw[0] = lead
            a = np.frombuffer(bytes(raw), dtype=np.complex128).reshape(2, 2)
            terms.append(OperatorTerm(1.0, (LegFactor(a, np.eye(2)), identity_factor(2)), (0, 1)))
            terms.append(OperatorTerm(1.0, (identity_factor(2), LegFactor(a, np.eye(2))), (0, 1)))
        got = StructuredOperator(sp, terms).terms
        assert [t.signature() for t in got] == [t.signature() for t in greedy_merge(sp, terms)]

    def test_sum_of_nothing_needs_a_space(self):
        sp = ModelSpace(2, 1, 1)
        assert StructuredOperator.sum([], sp).n_terms == 0
        with pytest.raises(ValueError):
            StructuredOperator.sum([])
        with pytest.raises(SpaceMismatchError):
            StructuredOperator.sum([rand_op(sp)], ModelSpace(2, 2, 0))


def term(space, coefficient, sigma, carried, rng=RNG):
    """A term with random factors on the legs in ``carried``, the
    identity elsewhere."""
    N = space.N
    factors = tuple(
        LegFactor(rand_mat(N, rng), rand_mat(N, rng)) if k in carried else identity_factor(N)
        for k in range(space.m)
    )
    return OperatorTerm(coefficient, factors, sigma)


# (space, terms as (coefficient, sigma, carried legs)), oracle-sized
TO_DENSE_CASES = {
    # one carried group whose permutation sorts after two pure ones,
    # with a third pure one after it
    "pure_sorts_before_carried": (ModelSpace(2, 2, 1), [
        (0.5, (0, 1, 2), ()), (-1.5j, (0, 2, 1), ()), (2.0, (1, 0, 2), (0, 2)),
        (1.0 - 1j, (1, 0, 2), (1,)), (0.25, (2, 1, 0), ()),
    ]),
    # leg 1 is the identity in every term of the carried group
    "identity_leg": (ModelSpace(3, 1, 1), [(1.0, (0, 1), (0,)), (2.0 + 1j, (0, 1), (0,))]),
    "all_legs_identity_but_one": (ModelSpace(2, 2, 2), [(1.0j, (3, 0, 1, 2), (2,))]),
    "sigma_not_id_m3": (ModelSpace(2, 1, 2), [(1.0, (2, 0, 1), (0, 1, 2)), (-0.5, (2, 0, 1), (1,))]),
    "several_groups_m4": (ModelSpace(2, 2, 2), [
        (1.0, (1, 0, 2, 3), (0, 3)), (0.5j, (0, 1, 3, 2), (0, 1, 2, 3)),
        (-2.0, (3, 2, 1, 0), (1, 2)), (1.5, (0, 1, 2, 3), ()), (0.75, (2, 3, 0, 1), ()),
    ]),
    "one_leg": (ModelSpace(3, 1, 0), [(2.0, (0,), (0,)), (-1.0, (0,), ())]),
}


class TestToDense:
    @pytest.mark.parametrize("case", sorted(TO_DENSE_CASES))
    def test_matches_oracle(self, case):
        space, spec = TO_DENSE_CASES[case]
        op = StructuredOperator(space, [term(space, c, s, legs) for c, s, legs in spec])
        assert len({t.sigma for t in op.terms}) == len({s for _, s, _ in spec})
        assert_dense_close(op.to_dense().matrix, oracle_dense(op))

    def test_zero_and_pure_permutations(self):
        sp = ModelSpace(2, 2, 1)
        assert not StructuredOperator.zero(sp).to_dense().matrix.any()
        op = permutation_op(sp, (1, 2, 0)) * 2.0 + permutation_op(sp, (0, 1, 2))
        np.testing.assert_array_equal(op.to_dense().matrix, oracle_dense(op))

    def test_single_group_allocates_only_its_result(self):
        # d = 256; a GEMM temporary beside a zeroed output traces
        # 2.13 d^2 complex entries
        sp = ModelSpace(4, 1, 1)
        # one group of four terms, the shape of the Monte Carlo product integrand
        a, b = rand_mat(4), rand_mat(4)
        op = (left_mult(sp, a, 0) - right_mult(sp, a, 1)) @ (left_mult(sp, b, 0) - right_mult(sp, b, 1))
        assert len(op._groups) == 1
        op.to_dense()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            op.to_dense()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * sp.dim**2 * 16


def negative_zeros(n, diagonal):
    """Diagonal matrix whose off-diagonal entries are -0.0 - 0.0j."""
    a = np.full((n, n), complex(-0.0, -0.0))
    np.fill_diagonal(a, diagonal)
    return a


class TestOneLeg:
    """left_mult/right_mult build their term as a canonical group; it
    must equal what the merge makes of the raw one-term group."""

    N = 3
    MATRICES = {
        "generic": lambda n: rand_mat(n),
        "zero": lambda n: np.zeros((n, n)),
        "identity": lambda n: np.eye(n),
        "identity_with_negative_zeros": lambda n: negative_zeros(n, 1.0),
        "negative_zeros": lambda n: negative_zeros(n, 2.0),
    }

    @pytest.mark.parametrize("case", sorted(MATRICES))
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("k", [0, 1])
    def test_group_equals_merge(self, case, side, k):
        N = self.N
        sp = ModelSpace(N, 1, 1)
        a, eye = self.MATRICES[case](N), np.eye(N)
        A, B = (a, eye) if side == "left" else (eye, a)
        op = (left_mult if side == "left" else right_mult)(sp, a, k)
        raw = _Group(
            (0, 1), np.ones(1, dtype=np.complex128), (k,),
            np.asarray(A, np.complex128).reshape(1, 1, N, N),
            np.asarray(B, np.complex128).reshape(1, 1, N, N),
        )
        want = _merge(raw, N)
        if want is None:
            assert op._groups == ()
            return
        (got,) = visited(op)
        assert (got.sigma, got.legs, got.merged) == (want.sigma, want.legs, want.merged)
        for x, y in ((got.coeffs, want.coeffs), (got.A, want.A), (got.B, want.B)):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


# -- the twin search against its pairwise reference ----------------------------


def factor_tol(x):
    """_merge's tolerance for one leg, from its A and B entries."""
    return FACTOR_MERGE_TOL * (1.0 + np.abs(x).max())


def signed_zeros(x):
    """x with every zero real or imaginary part made -0.0."""
    return np.where(x.real == 0, -0.0, x.real) + 1j * np.where(x.imag == 0, -0.0, x.imag)


def boundary_twin(x):
    """A twin of one leg's (2, N, N) A and B entries that one merge
    tolerance takes in and the other leaves out: its largest entry grows
    by 0.9 tolerances, which raises its own tolerance by about
    FACTOR_MERGE_TOL^2, and a zero entry moves to halfway between the two
    tolerances.  None without a zero entry."""
    zeros = np.flatnonzero(x.reshape(-1) == 0)
    if not len(zeros):
        return None
    y = x.reshape(-1).copy()
    big = np.abs(y).argmax()
    y[big] += 0.9 * factor_tol(x) * y[big] / abs(y[big])
    lo, hi = factor_tol(x), factor_tol(y)
    y[zeros[0]] = (lo + hi) / 2
    assert lo < abs(y[zeros[0]]) < hi
    return y.reshape(x.shape)


def on_tolerance_twin(x, unit):
    """A twin of one leg's (2, N, N) A and B entries exactly on its merge
    tolerance: a zero entry becomes ``unit`` (1, -1, 1j or -1j) times
    factor_tol(x).  From zero the move is exact, so the entry's distance
    is the tolerance bit for bit, and the largest entry, hence the
    tolerance, stays.  None without a zero entry."""
    zeros = np.flatnonzero(x.reshape(-1) == 0)
    if not len(zeros):
        return None
    y = x.reshape(-1).copy()
    y[zeros[0]] = unit * factor_tol(x)
    assert abs(y[zeros[0]]) == factor_tol(x) == factor_tol(y)
    return y.reshape(x.shape)


def window_edge_twin(x):
    """A twin of a term's (L, 2, N, N) entries on the edge of
    _fuzzy_merge's window: every real and imaginary part of each leg
    moves up by the leg's merge tolerance, so the projections part by
    the window less its rounding slack, while each entry lies sqrt(2)
    tolerances away and the twin is not close."""
    tol = FACTOR_MERGE_TOL * (1.0 + np.abs(x).max(axis=(1, 2, 3)))
    return x + (tol * (1 + 1j))[:, None, None, None]


FRESH_LEGS = ("random", "sparse", "identity", "left", "zero", "near_identity")
TWINS = ("fresh", "copy", "signed_zeros", "near", "apart", "boundary", "on_tolerance", "window_edge")


@st.composite
def raw_groups(draw, sizes):
    """One permutation's raw terms, T drawn from ``sizes``: fresh terms
    mixing random, sparse, identity, one-sided, zero and near-identity
    leg factors, and twins of earlier terms: exact copies, copies with
    -0.0 for their zeros, copies moved 0.75 (``near``) or 1.5
    (``apart``) merge tolerances on one entry, ``boundary_twin``s,
    ``on_tolerance_twin``s and ``window_edge_twin``s.
    Coefficients may cancel a twin's, be zero or carry -0.0 parts."""
    T = draw(sizes)
    N = draw(st.sampled_from((2, 3)))
    L = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eye = np.eye(N)
    x = np.empty((T, L, 2, N, N), dtype=np.complex128)  # A and B per leg
    c = np.empty(T, dtype=np.complex128)
    for t in range(T):
        kind = draw(st.sampled_from(TWINS)) if t else "fresh"
        src = draw(st.integers(0, t - 1)) if t else 0
        if kind == "fresh":
            for leg in range(L):
                a, b = rand_mat(N, rng), rand_mat(N, rng)
                x[t, leg] = {
                    "random": (a, b),
                    "sparse": (a * (rng.random((N, N)) < 0.5), b),
                    "identity": (eye, eye),
                    "left": (a, eye),
                    "zero": (0 * a, b),
                    "near_identity": (eye + 1e-13 * a, eye),
                }[draw(st.sampled_from(FRESH_LEGS))]
        else:
            x[t] = x[src]
            leg = draw(st.integers(0, L - 1))
            if kind == "signed_zeros":
                x[t] = signed_zeros(x[src])
            elif kind in ("near", "apart"):
                x[t, leg, 0, 0, 0] += (0.75 if kind == "near" else 1.5) * factor_tol(x[src, leg])
            elif kind == "boundary":
                twin = boundary_twin(x[src, leg])
                if twin is not None:
                    x[t, leg] = twin
            elif kind == "on_tolerance":
                twin = on_tolerance_twin(x[src, leg], draw(st.sampled_from((1, -1, 1j, -1j))))
                if twin is not None:
                    x[t, leg] = twin
            elif kind == "window_edge":
                x[t] = window_edge_twin(x[src])
        coeff = draw(st.sampled_from(("random", "cancel", "zero", "signed_zero")))
        c[t] = {
            "random": complex(rng.standard_normal(), rng.standard_normal()),
            "cancel": -c[src],
            "zero": 0.0,
            "signed_zero": complex(rng.standard_normal(), -0.0),
        }[coeff if t or coeff != "cancel" else "random"]
    legs = tuple(range(L))
    return _Group(legs, c, legs, x[:, :, 0], x[:, :, 1])


def assert_same_group(got, want):
    if want is None or got is None:
        assert got is want
        return
    assert (got.sigma, got.legs, got.merged) == (want.sigma, want.legs, want.merged)
    for a, b in ((got.coeffs, want.coeffs), (got.A, want.A), (got.B, want.B)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_twins(c, x):
    """The former ``legops._pairwise_twins``: the twins of
    ``_fuzzy_merge`` by the same rule, from one T x T array of entrywise
    distances held against the later term's tolerance, no window."""
    tol = FACTOR_MERGE_TOL * (1.0 + np.abs(x).max(axis=2))  # (T, L)
    # close[r][t]: on every leg, r's entries within t's tolerance of t's
    close = (np.abs(x[:, None] - x[None]).max(axis=3) <= tol).all(axis=2).tolist()
    alive = [True] * len(c)
    for t in range(1, len(c)):
        r = next((r for r in range(t) if alive[r] and close[r][t]), None)
        if r is not None:
            c[r] += c[t]
            alive[t] = False
    return np.array(alive)


class TestMergePaths:
    """_merge's projection window makes the same canonical group, bit
    for bit, as the pairwise twin search of ``reference_twins``, on
    groups of up to FEW_TERMS terms (where the pairwise search once ran)
    and on larger ones."""

    SIDES = {
        "few_terms": st.integers(1, FEW_TERMS),
        "windowed": st.integers(FEW_TERMS + 1, 4 * FEW_TERMS),
    }

    @pytest.mark.parametrize("side", sorted(SIDES))
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_paths_agree(self, side, data):
        g = data.draw(raw_groups(self.SIDES[side]))
        N = g.A.shape[-1]
        with mock.patch.object(legops, "_fuzzy_merge", reference_twins):
            want = _merge(g, N)
        assert_same_group(_merge(g, N), want)

    @pytest.mark.parametrize("T", [2, FEW_TERMS, FEW_TERMS + 1])
    def test_distinct_terms_take_the_window(self, T):
        # no size switch: from two distinct terms on, one window search
        A = np.stack([rand_mat(2)[None] for _ in range(T)])
        group = _Group((0,), np.ones(T, dtype=np.complex128), (0,), A, np.ones_like(A))
        with mock.patch.object(legops, "_fuzzy_merge", wraps=legops._fuzzy_merge) as window:
            _merge(group, 2)
        assert window.call_count == 1


# -- sums of pure leg permutations ----------------------------------------------


def reference_canonical(space, raw):
    """The former ``legops._canonical``: each permutation's raw groups
    concatenated in raw order and merged, a pure permutation's
    coefficients summed by ``np.add.accumulate``; a permutation group
    enters as one legless group per row, in its place."""
    N = space.N
    by_sigma = {}
    rows = []
    for g in raw:
        if isinstance(g, legops._PermGroup):
            rows += [legless(tuple(s), g.coeffs[t:t + 1], N, g.merged) for t, s in enumerate(g.sigmas.tolist())]
        else:
            rows.append(g)
    for g in rows:
        if len(g.coeffs):
            by_sigma.setdefault(g.sigma, []).append(g)
    out = []
    for sigma in sorted(by_sigma):
        parts = by_sigma[sigma]
        if len(parts) == 1 and parts[0].merged:
            out.append(parts[0])
            continue
        g = legops._concat(parts, N)
        if g.legs:
            g = _merge(g, N)
        else:
            total = np.add.accumulate(g.coeffs)[-1:]
            g = None if abs(total[0]) < MERGE_TOL else legless(sigma, total, N, merged=True)
        if g is not None:
            out.append(g)
    return tuple(out)


def reference_compose(x, y):
    """The former ``StructuredOperator.compose``: the products of pure
    permutations, one raw group per permutation in pair order, ahead of
    the products of every pair of groups in which one carries a leg,
    canonicalized by ``reference_canonical``."""
    N, m = x.space.N, x.space.m
    raw = []
    xs, ys = visited(x), visited(y)
    px = [g for g in xs if not g.legs]
    py = [g for g in ys if not g.legs]
    if px and py:
        sx, sy = np.array([g.sigma for g in px]), np.array([g.sigma for g in py])
        sigmas = sx[:, sy].reshape(-1, m)
        coeffs = np.multiply.outer(
            np.array([g.coeffs[0] for g in px]), np.array([g.coeffs[0] for g in py])
        ).reshape(-1)
        by_sigma = {}
        for sigma, c in zip(map(tuple, sigmas.tolist()), coeffs):
            by_sigma.setdefault(sigma, []).append(c)
        raw += [legless(s, np.array(by_sigma[s], dtype=np.complex128), N) for s in sorted(by_sigma)]
    for gx in xs:
        xpos = {k: i for i, k in enumerate(gx.legs)}
        for gy in ys:
            if not gx.legs and not gy.legs:
                continue
            ypos = {k: i for i, k in enumerate(gy.legs)}
            Tx, Ty = len(gx.coeffs), len(gy.coeffs)
            legs = tuple(k for k in range(m) if k in ypos or gy.sigma[k] in xpos)
            A = np.empty((Tx, Ty, len(legs), N, N), dtype=np.complex128)
            B = np.empty_like(A)
            for li, k in enumerate(legs):
                i, j = xpos.get(gy.sigma[k]), ypos.get(k)
                if j is None:
                    A[:, :, li], B[:, :, li] = gx.A[:, i, None], gx.B[:, i, None]
                elif i is None:
                    A[:, :, li], B[:, :, li] = gy.A[None, :, j], gy.B[None, :, j]
                else:
                    A[:, :, li] = gx.A[:, i, None] @ gy.A[None, :, j]
                    B[:, :, li] = gy.B[None, :, j] @ gx.B[:, i, None]
            shape = (Tx * Ty, len(legs), N, N)
            raw.append(_Group(
                tuple(gx.sigma[s] for s in gy.sigma),
                np.multiply.outer(gx.coeffs, gy.coeffs).reshape(-1),
                legs, A.reshape(shape), B.reshape(shape),
            ))
    return reference_canonical(x.space, raw)


def assert_same_canonical(got, want):
    """Byte-equal canonical groups: permutations, group order, carried
    legs, merged flags, coefficient and factor bytes."""
    assert len(got) == len(want)
    for g, h in zip(got, want):
        assert (g.sigma, g.legs, g.merged) == (h.sigma, h.legs, h.merged)
        for a, b in ((g.coeffs, h.coeffs), (g.A, h.A), (g.B, h.B)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def pure_group(sigma, coeffs):
    """The raw permutation group of len(coeffs) terms on one permutation."""
    return legops._PermGroup(np.array([sigma] * len(coeffs)), coeffs)


PURE_COEFFS = ("random", "cancel", "tiny", "zero", "signed_zero", "signed_part")


@st.composite
def pure_raw_lists(draw, carried=False):
    """A space of m = 1..6 or 16 legs and raw pure groups on a pool of a
    few permutations, so that permutations repeat across groups.  A
    coefficient is random, cancels an earlier one exactly, lies below
    MERGE_TOL, is a signed zero or has one -0.0 part; a one-term group
    above MERGE_TOL may come merged.  With ``carried``, groups that carry
    leg 0 (some of their terms the identity there) join on permutations
    of the pool."""
    m = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 16)))
    N = draw(st.sampled_from((2, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = [tuple(rng.permutation(m).tolist()) for _ in range(draw(st.integers(1, 4)))]
    seen, raw = [], []
    for _ in range(draw(st.integers(1, 10))):
        sigma = pool[draw(st.integers(0, len(pool) - 1))]
        coeffs = []
        for _ in range(draw(st.integers(1, 5))):
            kind = draw(st.sampled_from(PURE_COEFFS))
            x, y = rng.standard_normal(2)
            coeffs.append({
                "random": complex(x, y),
                "cancel": -seen[draw(st.integers(0, len(seen) - 1))] if seen else complex(x, y),
                "tiny": 0.7 * MERGE_TOL * complex(np.tanh(x), np.tanh(y)),
                "zero": complex(0.0, -0.0),
                "signed_zero": complex(-0.0, -0.0),
                "signed_part": complex(x, -0.0),
            }[kind])
            seen.append(coeffs[-1])
        c = np.array(coeffs, dtype=np.complex128)
        merged = len(c) == 1 and abs(c[0]) >= MERGE_TOL and draw(st.booleans())
        raw.append(pure_group(sigma, c)._replace(merged=merged))
    if carried:
        for _ in range(draw(st.integers(1, 3))):
            T = draw(st.integers(1, 3))
            A = np.stack([rand_mat(N, rng) if draw(st.booleans()) else np.eye(N) for _ in range(T)])
            A = A.reshape(T, 1, N, N).astype(np.complex128)
            coeffs = rng.standard_normal(T) + 1j * rng.standard_normal(T)
            group = _Group(pool[draw(st.integers(0, len(pool) - 1))], coeffs, (0,), A, np.ones_like(A) * np.eye(N))
            raw.insert(draw(st.integers(0, len(raw))), group)
    return ModelSpace(N, m, 0), raw


def canonical_rows(space, raw):
    """``legops._canonical`` of raw groups as readers visit it: the rows
    of its permutation group expanded to legless groups, in sigma order
    among the other groups."""
    return legops._visit(legops._canonical(space, raw), True, space.N)


class TestPureKernel:
    """Sums of pure leg permutations are one permutation group, made by
    one array kernel, ``_pure_groups``; canonical forms and products,
    their rows expanded, must equal the former per-permutation merges
    byte for byte."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=pure_raw_lists())
    def test_canonical_matches_reference(self, case):
        space, raw = case
        assert_same_canonical(canonical_rows(space, raw), reference_canonical(space, raw))

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=pure_raw_lists(carried=True))
    def test_canonical_with_carried_groups_matches_reference(self, case):
        space, raw = case
        assert_same_canonical(canonical_rows(space, raw), reference_canonical(space, raw))

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_compose_matches_reference(self, data):
        carried = data.draw(st.booleans())
        space, raw = data.draw(pure_raw_lists(carried))
        cut = data.draw(st.integers(0, len(raw)))
        x = StructuredOperator._from_raw(space, raw[:cut])
        y = StructuredOperator._from_raw(space, raw[cut:])
        for a, b in ((x, y), (y, x), (x + y, x - y), (x, x)):
            # canonical first: compose reads a few raw terms as built, the
            # reference the canonical groups
            a._groups, b._groups
            assert_same_canonical(visited(a @ b), reference_compose(a, b))

    def test_shared_permutation_merges_in_pair_order(self):
        # x = 0.1 S - 0.3 T + (left a + 0.1 I), the last one carried group;
        # y = I + 3 S + T.  The pure products on the identity, S S and T T,
        # sum to 0.1 * 3 - 0.3, a rounding remainder of 5.6e-17 below
        # MERGE_TOL, and the carried product (left a + 0.1 I) I also has the
        # identity: the remainder must still enter the sum of its identity
        # terms, in pair order, as it did
        sp = ModelSpace(2, 3, 0)
        ident, S, T = (permutation_op(sp, s) for s in ((0, 1, 2), (1, 0, 2), (0, 2, 1)))
        x = S.scale(0.1) - T.scale(0.3) + left_mult(sp, rand_mat(2), 0) + ident.scale(0.1)
        y = ident + S.scale(3.0) + T
        got = visited(x @ y)
        assert_same_canonical(got, reference_compose(x, y))
        assert got[0].sigma == (0, 1, 2) and (0.1 * 3 - 0.3) + 0.1 in got[0].coeffs.tolist()
        for a, b in ((y, x), (x, x), (y, y)):
            assert_same_canonical(visited(a @ b), reference_compose(a, b))

    def test_exact_cancellation_drops(self):
        sp = ModelSpace(3, 3, 0)
        raw = [pure_group((2, 0, 1), np.array([0.1, 0.2, -0.3 + 0j]))]
        assert legops._canonical(sp, raw) == reference_canonical(sp, raw) == ()

    def test_sixteen_legs_rank_the_distinct_rows(self):
        rng = np.random.default_rng(16)
        sp = ModelSpace(2, 16, 0)
        pool = [tuple(rng.permutation(16).tolist()) for _ in range(5)]
        raw = [pure_group(pool[i % 5], rng.standard_normal(3) + 0j) for i in range(12)]
        got = canonical_rows(sp, raw)
        assert [g.sigma for g in got] == sorted(pool)
        assert_same_canonical(got, reference_canonical(sp, raw))

    def test_carried_only_input_skips_the_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the pure kernel ran on an input without a pure group")

        monkeypatch.setattr(legops, "_pure_groups", refuse)
        sp = ModelSpace(3, 1, 1)
        x = left_mult(sp, rand_mat(3), 0) + right_mult(sp, rand_mat(3), 1)
        assert (x @ x - x).n_terms > 0

    def test_permutation_op_is_one_merged_group(self):
        (g,) = permutation_op(ModelSpace(2, 3, 0), (2, 0, 1))._groups
        assert isinstance(g, legops._PermGroup)
        assert (g.sigmas.tolist(), g.merged, g.coeffs.tolist()) == ([[2, 0, 1]], True, [1.0])
        assert not g.sigmas.flags.writeable


# -- raw operands of a few terms ---------------------------------------------------


@st.composite
def few_raw_lists(draw):
    """A space of m = 1..3 legs and raw groups of at most FEW_TERMS terms
    in all, on a pool of a few permutations: pure groups of one or more
    coefficients, carried groups whose legs mix random, one-sided and
    identity factors, and earlier groups again with new coefficients
    (exact duplicates).  Inside a carried group a term may copy an
    earlier one or be its twin, half a merge tolerance away on one
    entry; a coefficient may be zero."""
    m = draw(st.integers(1, 3))
    N = 2 if m == 3 else draw(st.sampled_from((2, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = [tuple(rng.permutation(m).tolist()) for _ in range(draw(st.integers(1, 3)))]
    eye = np.eye(N)
    budget, raw = draw(st.integers(1, FEW_TERMS)), []
    while budget:
        kind = draw(st.sampled_from(("pure", "carried", "repeat")))
        fits = [g for g in raw if len(g.coeffs) <= budget]
        again = fits[draw(st.integers(0, len(fits) - 1))] if kind == "repeat" and fits else None
        T = len(again.coeffs) if again else draw(st.integers(1, budget))
        budget -= T
        coeffs = np.array([complex(*rng.standard_normal(2)) if draw(st.booleans()) else 0j
                           for _ in range(T)])
        sigma = pool[draw(st.integers(0, len(pool) - 1))]
        if again:
            raw.append(again._replace(coeffs=coeffs, merged=False))
        elif kind != "carried":
            raw.append(pure_group(sigma, coeffs))
        else:
            legs = tuple(k for k in range(m) if draw(st.booleans())) or (0,)
            x = np.empty((T, len(legs), 2, N, N), dtype=np.complex128)
            for t in range(T):
                twin = draw(st.sampled_from(("fresh", "copy", "twin"))) if t else "fresh"
                if twin == "fresh":
                    for li in range(len(legs)):
                        a, b = rand_mat(N, rng), rand_mat(N, rng)
                        x[t, li] = {"random": (a, b), "left": (a, eye), "identity": (eye, eye)}[
                            draw(st.sampled_from(("random", "left", "identity")))]
                else:
                    src = draw(st.integers(0, t - 1))
                    x[t] = x[src]
                    if twin == "twin":
                        x[t, 0, 0, 0, 0] += 0.5 * factor_tol(x[src, 0])
            raw.append(_Group(sigma, coeffs, legs, x[:, :, 0], x[:, :, 1]))
    return ModelSpace(N, m, 0), raw


def canonical_copy(space, raw):
    op = StructuredOperator._from_raw(space, raw)
    op._groups
    return op


class TestRawOperands:
    """compose and to_dense read an operator of at most FEW_TERMS terms
    as built, without its merge; canonical form waits for the first read
    of ``_groups``, and happens once."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_product_of_raw_operands_matches_dense(self, data):
        space, raw = data.draw(few_raw_lists())
        cut = data.draw(st.integers(0, len(raw)))
        x = StructuredOperator._from_raw(space, raw[:cut])
        y = StructuredOperator._from_raw(space, raw[cut:])
        xc, yc = canonical_copy(space, raw[:cut]), canonical_copy(space, raw[cut:])
        with mock.patch.object(legops, "_canonical", wraps=legops._canonical) as canon:
            prod = x @ y
            groups, canonical = prod._state
            raw_x, raw_y, got = x.to_dense().matrix, y.to_dense().matrix, prod.to_dense().matrix
        # neither operand merges; the product does only past FEW_TERMS terms
        assert not x._state[1] and not y._state[1]
        assert canon.call_count == (not canonical and sum(len(g.coeffs) for g in groups) > FEW_TERMS)
        assert_dense_close(raw_x, xc.to_dense().matrix)
        assert_dense_close(raw_y, yc.to_dense().matrix)
        assert_dense_close(got, xc.to_dense().matrix @ yc.to_dense().matrix)
        assert_dense_close(got, (xc @ yc).to_dense().matrix)

    def test_canonical_form_is_made_once(self):
        sp = ModelSpace(3, 1, 1)
        a = rand_mat(3)
        op = (left_mult(sp, a, 0) - right_mult(sp, a, 1)) @ left_mult(sp, rand_mat(3), 0)
        with mock.patch.object(legops, "_canonical", wraps=legops._canonical) as canon:
            first = op._groups
            op.hs_norm(), op.n_terms, op.terms, op.adjoint(), op.to_dense()
            assert op._groups is first
        assert canon.call_count == 1

    @pytest.mark.parametrize("T, merges", [(FEW_TERMS, 0), (FEW_TERMS + 1, 1)])
    def test_past_few_terms_canonical_first(self, T, merges):
        # T copies of one term, whose canonical form is one term
        sp = ModelSpace(2, 1, 1)
        A = np.repeat(rand_mat(2).reshape(1, 1, 2, 2), T, axis=0)
        B = np.repeat(np.eye(2, dtype=np.complex128).reshape(1, 1, 2, 2), T, axis=0)
        group = _Group((1, 0), np.ones(T, dtype=np.complex128), (0,), A, B)
        y = right_mult(sp, rand_mat(2), 1)
        for read in (lambda op: op @ y, lambda op: y @ op, lambda op: op.to_dense()):
            op = StructuredOperator._from_raw(sp, [group])
            with mock.patch.object(legops, "_canonical", wraps=legops._canonical) as canon:
                read(op)
            assert canon.call_count == merges
            assert op._state[1] == bool(merges)
        op = StructuredOperator._from_raw(sp, [group])
        assert_dense_close(op.to_dense().matrix, oracle_dense(op))
        if merges:
            assert_same_canonical(visited(op @ y), reference_compose(op, y))


# -- apply by classes of active half-legs ------------------------------------------


def _sandwiched(x, g, N, m):
    """sum_t c_t (leg sandwiches of term t) applied to x, before the
    permutation, as a tensor with 2m axes of size N; returns it with the
    list giving the original axis (2k row, 2k+1 column of leg k) held at
    each position."""
    if not g.legs:
        return g.coeffs[0] * x.reshape((N,) * (2 * m)), list(range(2 * m))
    w = x.reshape((1,) + (N,) * (2 * m))
    axes = list(range(2 * m))
    for li, k in enumerate(g.legs):
        # row axis: a <- sum_b A[a, b] x[b]; column axis: d <- sum_c x[c] B[c, d];
        # the coefficients ride on the first matrix, so one sum over the
        # term axis finishes the group
        row = g.A[:, li].swapaxes(1, 2)
        if li == 0:
            row = row * g.coeffs[:, None, None]
        for ax, mat in ((2 * k, row), (2 * k + 1, g.B[:, li])):
            pos = axes.index(ax)
            w = np.moveaxis(w, 1 + pos, -1)
            axes.append(axes.pop(pos))
            shape = (len(mat),) + w.shape[1:]
            w = np.matmul(w.reshape(w.shape[0], -1, N), mat).reshape(shape)
    return w.sum(axis=0), axes


def reference_apply(self, v):
    """The former ``StructuredOperator.apply``: every group's terms
    sandwiched into one (T, d) array, then summed and permuted."""
    space = self.space
    if v.shape != (space.dim,):
        raise ValueError(f"expected vector of length {space.dim}")
    N, m = space.N, space.m
    x = np.asarray(v, dtype=np.complex128)
    out = np.zeros((N,) * (2 * m), dtype=np.complex128)
    for g in visited(self):
        w, axes = _sandwiched(x, g, N, m)
        inv = legops._invert(g.sigma)
        # output leg k carries input leg sigma^-1(k)
        out += w.transpose([axes.index(2 * inv[k] + e) for k in range(m) for e in (0, 1)])
    return out.reshape(space.dim)


def oracle_apply(op, v):
    """The definition applied to one vector, term by term."""
    return sum((oracle_term_action(op.space, t, v) for t in op.terms), np.zeros(op.space.dim, complex))


def half_leg_term(space, coefficient, sigma, kinds, rng):
    """A term whose leg k carries a random A when kinds[k] is "left" or
    "both" and a random B when it is "right" or "both"."""
    N, eye = space.N, np.eye(space.N)
    factors = tuple(
        LegFactor(rand_mat(N, rng) if kind in ("left", "both") else eye,
                  rand_mat(N, rng) if kind in ("right", "both") else eye)
        for kind in kinds
    )
    return OperatorTerm(coefficient, factors, sigma)


def routes(op):
    """(k, "kernel" or "terms") of each class ``apply`` runs, per group."""
    return [(len(axes), "terms" if kernel is None else "kernel") for axes, kernel, _, _ in op._split()]


def assert_apply_agrees(op, rng):
    v = rng.standard_normal(op.space.dim) + 1j * rng.standard_normal(op.space.dim)
    got = op.apply(v)
    for want in (reference_apply(op, v), oracle_apply(op, v)):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@st.composite
def class_operators(draw):
    """Up to three permutation groups, each of up to three classes: T
    terms sharing one draw of identity, left, right or both per leg, so
    a class has k = 0 to 2m active axes and, by T, k and N, takes its
    kernel or runs term by term."""
    space = draw(st.sampled_from(
        (ModelSpace(2, 1, 1), ModelSpace(3, 1, 1), ModelSpace(2, 2, 1), ModelSpace(3, 1, 2),
         ModelSpace(3, 1, 0))
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(("identity", "left", "right", "both"))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        sigma = tuple(draw(st.permutations(range(space.m))))
        for _ in range(draw(st.integers(1, 3))):
            pattern = [draw(kinds) for _ in range(space.m)]
            for _ in range(draw(st.integers(1, 3))):
                coeff = complex(rng.standard_normal(), rng.standard_normal())
                terms.append(half_leg_term(space, coeff, sigma, pattern, rng))
    return StructuredOperator(space, terms)


def every_route_operator(rng):
    """Three groups on ModelSpace(3, 2, 1) whose classes take every route:
    the identity group mixes kernels on 0 to 2 axes with a term-by-term
    class."""
    sp = ModelSpace(3, 2, 1)
    ident, swap, cycle = (0, 1, 2), (1, 0, 2), (2, 0, 1)
    spec = [
        (ident, ("identity",) * 3, 1),  # k = 0 in a carried group
        (ident, ("left", "identity", "identity"), 2),  # k = 1
        (ident, ("left", "identity", "right"), 2),  # k = 2, 3 <= 2 * 2: kernel
        (ident, ("both", "identity", "identity"), 1),  # k = 2, 3 > 2 * 1: term by term
        (swap, ("identity",) * 3, 1),  # a pure permutation
        (cycle, ("both",) * 3, 1),  # all six axes
        (cycle, ("identity", "right", "left"), 3),
    ]
    terms = [half_leg_term(sp, complex(rng.standard_normal(), 1.0), sigma, kinds, rng)
             for sigma, kinds, n in spec for _ in range(n)]
    return StructuredOperator(sp, terms)


def reference_classes(g, N, m, kernels=True):
    """The former ``legops._classes``: the flag rows grouped by
    ``np.unique(axis=0)``, each class's terms by ``np.flatnonzero``."""
    perm = legops._half_perm(g.sigma)
    if isinstance(g, legops._KernelGroup):
        return [(g.axes, g.kernel, None, perm)]
    if not g.legs:
        return [((), np.array(g.coeffs.sum()), None, perm)]
    d = N ** (2 * m)
    mats = legops._axis_mats(g, N)
    active = (mats != legops._eye(N)).any(axis=(2, 3))
    all_axes = [2 * k + e for k in g.legs for e in (0, 1)]
    flags, which = np.unique(active, axis=0, return_inverse=True)
    out = []
    for c, row in enumerate(flags):
        terms = np.flatnonzero(which.reshape(-1) == c)
        axes = tuple(a for a, f in zip(all_axes, row) if f)
        k, n = len(axes), len(terms)
        coeffs, class_mats = g.coeffs[terms], mats[terms][:, row]
        if not k:
            out.append((axes, np.array(coeffs.sum()), None, perm))
        elif kernels and N ** (k - 1) <= k * n and N ** (2 * k) <= n * d:
            out.append((axes, legops._kernel(coeffs, class_mats, N), None, perm))
        else:
            class_mats[:, 0] *= coeffs[:, None, None]
            out.append((axes, None, class_mats, perm))
    return out


def assert_same_classes(g, N, m):
    for kernels in (True, False):
        got, want = legops._classes(g, N, m, kernels), reference_classes(g, N, m, kernels)
        assert len(got) == len(want)
        for (axes, kernel, mats, perm), (axes_w, kernel_w, mats_w, perm_w) in zip(got, want):
            assert axes == axes_w and perm == perm_w
            for x, w in ((kernel, kernel_w), (mats, mats_w)):
                assert (x is None) == (w is None)
                assert x is None or (x.shape == w.shape and x.tobytes() == w.tobytes())


class TestApplyClasses:
    """apply runs each class of a group's terms on its active half-legs,
    through one kernel or term by term; it must agree with the former
    (T, d) sandwich and with the definition."""

    @DIFF_SETTINGS
    @given(op=class_operators(), seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_and_oracle(self, op, seed):
        assert_apply_agrees(op, np.random.default_rng(seed))
        assert_apply_agrees(op.adjoint(), np.random.default_rng(seed))

    @DIFF_SETTINGS
    @given(op=class_operators(), order=st.randoms(use_true_random=False))
    def test_class_split_matches_unique_grouping(self, op, order):
        # integer flag codes and a stable sort: the same classes, in the
        # same order, each with its terms in the same order, byte for byte
        N, m = op.space.N, op.space.m
        for g in visited(op):
            if isinstance(g, _Group) and g.legs:  # shuffled, so classes interleave
                shuffle = list(range(len(g.coeffs)))
                order.shuffle(shuffle)
                g = g._replace(coeffs=g.coeffs[shuffle], A=g.A[shuffle], B=g.B[shuffle])
            assert_same_classes(g, N, m)

    def test_class_split_past_sixty_two_flag_bits(self):
        # 32 legs give 64 flag bits: the split ranks the rows instead
        sp, rng = ModelSpace(2, 32, 0), np.random.default_rng(9)
        kinds = [("identity", "left", "right", "both")[k % 4] for k in range(32)]
        terms = [half_leg_term(sp, complex(c, 1.0), tuple(range(32)), kinds[::step], rng)
                 for c, step in ((1.0, 1), (2.0, -1), (3.0, 1))]
        (g,) = visited(StructuredOperator(sp, terms))
        assert len(g.legs) == 32 and len(legops._classes(g, 2, 32)) == 2
        assert_same_classes(g, 2, 32)

    def test_routes_cover_every_kind(self):
        rng = np.random.default_rng(7)
        op = every_route_operator(rng)
        got = routes(op)
        assert sorted(set(got)) == [(0, "kernel"), (1, "kernel"), (2, "kernel"), (2, "terms"), (6, "terms")]
        # the identity group holds four classes, kernels and one term by term
        assert len(got) == 7
        assert sorted(got[:4]) == [(0, "kernel"), (1, "kernel"), (2, "kernel"), (2, "terms")]
        assert_apply_agrees(op, rng)

    def test_operator_norm_splits_each_operator_once(self):
        sig = sigma_average_exact(ModelSpace(4, 1, 1), np.eye(4))
        with mock.patch.object(legops, "_classes", side_effect=legops._classes) as split, \
                mock.patch.object(legops, "_apply_classes", side_effect=legops._apply_classes) as runs:
            sig.operator_norm()
        # one split of X and one of X*, however many Lanczos steps apply them
        assert split.call_count == 2 * len(sig._groups)
        assert runs.call_count >= 4

    def test_one_term_on_every_axis_runs_term_by_term(self):
        # a kernel would hold N^16 entries; the term goes one axis at a time
        sp, rng = ModelSpace(4, 2, 2), np.random.default_rng(8)
        op = StructuredOperator(sp, [half_leg_term(sp, 1.5, (1, 0, 3, 2), ("both",) * 4, rng)])
        assert routes(op) == [(8, "terms")]
        v = rng.standard_normal(sp.dim) + 1j * rng.standard_normal(sp.dim)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = op.apply(v)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 8 * sp.dim * 16
        want = reference_apply(op, v)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_sigma_average_norm_has_no_term_by_vector_array(self):
        # the (T, d) sandwich of the 288 terms alone is 91 MiB at N = 12
        sig = sigma_average_exact(ModelSpace(12, 1, 1), np.eye(12))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            norm = sig.operator_norm()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert abs(norm - 2.0) <= 1e-12
        assert peak < 16 * 2**20

    # sigma_average_exact(ModelSpace(16, 1, 1), I).operator_norm() by the
    # former apply and Lanczos sums, which take seconds and half a GiB
    # (2 CPUs, default BLAS threads; 2.0000000000000018 on one thread)
    PARENT_SIGMA_N16 = 1.9999999999999991

    def test_norms_match_the_reference(self):
        def norms(sigma_ns, limit_ns):
            out = [sigma_average_exact(ModelSpace(n, 1, 1), np.eye(n)).operator_norm() for n in sigma_ns]
            for n in limit_ns:
                rep = limit_formula_check(ModelSpace(n, 1, 1), hermitian_contraction(n))
                out += [rep.residual_op_norm, rep.sigma_average_op_norm]
            return out

        got = norms((2, 4, 8, 16), range(2, 9))
        with mock.patch.object(StructuredOperator, "apply", reference_apply):
            want = norms((2, 4, 8), range(2, 9))
        want.insert(3, self.PARENT_SIGMA_N16)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestTracesByClasses:
    """hs_norm and normalized_trace contract the classes ``apply`` runs;
    they must agree with the former Gram kernel and with the dense
    matrix."""

    @staticmethod
    def assert_traces_agree(op, X):
        d = op.space.dim
        scale = max(1.0, np.abs(X).max())
        for want in (reference_trace(op), np.trace(X) / d):
            assert abs(op.normalized_trace() - want) <= 1e-12 * scale
        for want in (reference_hs_norm(op), np.linalg.norm(X) / np.sqrt(d)):
            assert abs(op.hs_norm() - want) <= 1e-10 * scale

    @DIFF_SETTINGS
    @given(op=class_operators())
    def test_match_the_references_and_the_dense_matrix(self, op):
        # to_dense is itself held to the oracle; the oracle is too slow at d = 729
        self.assert_traces_agree(op, op.to_dense().matrix)
        self.assert_traces_agree(op.adjoint(), op.to_dense().matrix.conj().T)

    def test_every_route_against_the_oracle(self):
        op = every_route_operator(np.random.default_rng(7))
        self.assert_traces_agree(op, oracle_dense(op))

    def test_kernel_class_difference_keeps_its_digits(self):
        # X has 24 terms, A_t on the row of leg 0 and B_t on the column of
        # leg 1: one kernel class.  X' scales each A_t by 1 + 1e-9, beyond
        # FACTOR_MERGE_TOL, so X - X' cancels in the kernel, not in the
        # merge; the former c^H G c of the Gram matrix lost it below
        # sqrt(eps) and was off by 6.2 relative.  A_t - (1 + 1e-9) A_t is
        # exact in floating point, so the operator built from it has the
        # exact norm.
        sp, rng = ModelSpace(3, 1, 1), np.random.default_rng(21)
        coeffs = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        A = [rand_mat(3, rng) for _ in coeffs]
        B = [rand_mat(3, rng) for _ in coeffs]

        def op(mats):
            return StructuredOperator(sp, [
                OperatorTerm(c, (LegFactor(a, np.eye(3)), LegFactor(np.eye(3), b)), (0, 1))
                for c, a, b in zip(coeffs, mats, B)
            ])

        scaled = [(1 + 1e-9) * a for a in A]
        diff = op(A) - op(scaled)
        assert routes(diff) == [(2, "kernel")]
        want = np.linalg.norm(oracle_dense(op([a - s for a, s in zip(A, scaled)]))) / np.sqrt(sp.dim)
        assert abs(diff.hs_norm() - want) <= 1e-6 * want

    def test_every_half_leg_active_on_twelve_legs_not_thirteen(self):
        # two terms of random permutations with both factors on every leg:
        # one term-by-term class each, whose pair contracts over 4m + 2
        # indices, 50 on 12 legs and past np.einsum's 52 on 13
        rng = np.random.default_rng(12)
        for m in (12, 13):
            sp = ModelSpace(2, m, 0)
            op = StructuredOperator(sp, [
                half_leg_term(sp, 1.0 + 0.5j, tuple(rng.permutation(m).tolist()), ("both",) * m, rng)
                for _ in range(2)
            ])
            assert routes(op) == [(2 * m, "terms")] * 2
            if m == 12:
                want = reference_hs_norm(op)
                assert abs(op.hs_norm() - want) <= 1e-12 * want
            else:
                with pytest.raises(NumericError, match="52"):
                    op.hs_norm()


def hermitian_contraction(n):
    """A seeded Hermitian matrix of operator norm 1."""
    z = rand_mat(n, np.random.default_rng(n))
    a = (z + z.conj().T) / 2
    return a / np.linalg.norm(a, 2)


class TestTracesByCycleCounts:
    """Classes on no active axis are c P(pi): hs_norm and
    normalized_trace read their pairs from cycle counts, against the
    former Gram kernel."""

    @staticmethod
    def assert_agree(op):
        scale = max(1.0, sum(abs(c) for g in op._groups for c in g.coeffs.tolist()))
        assert abs(op.normalized_trace() - reference_trace(op)) <= 1e-12 * scale
        want = reference_hs_norm(op)
        assert abs(op.hs_norm() - want) <= 1e-12 * want

    @DIFF_SETTINGS
    @given(data=st.data())
    def test_permutation_sums(self, data):
        m = data.draw(st.integers(1, 5))
        sp = ModelSpace(data.draw(st.sampled_from((2, 3))), m, data.draw(st.integers(0, 1)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        terms = [
            OperatorTerm(complex(*rng.standard_normal(2)), (identity_factor(sp.N),) * sp.m,
                         tuple(rng.permutation(sp.m).tolist()))
            for _ in range(data.draw(st.integers(1, 12)))
        ]
        op = StructuredOperator(sp, terms)
        self.assert_agree(op)
        self.assert_agree(op.adjoint())

    @DIFF_SETTINGS
    @given(op=class_operators(), seed=st.integers(0, 2**32 - 1))
    def test_mixed_with_carried_classes(self, op, seed):
        rng = np.random.default_rng(seed)
        pure = StructuredOperator.sum([
            permutation_op(op.space, tuple(rng.permutation(op.space.m).tolist())).scale(complex(*rng.standard_normal(2)))
            for _ in range(3)
        ])
        for x in (op + pure, (op + pure).adjoint(), op @ pure):
            self.assert_agree(x)

    def test_young_projection_norm(self):
        P = young_projection(ModelSpace(3, 4, 0), Partition((3, 1)))
        self.assert_agree(P)
        assert abs(P.hs_norm() ** 2 - P.normalized_trace().real) <= 1e-12


# -- kernel groups -------------------------------------------------------------------


def kernel_dense(space, sigma, axes, kernel):
    """P(sigma) o (kernel on axes, identity elsewhere) from the
    definition: the kernel times a Kronecker delta on every other axis,
    its rows then moved by the permutation's oracle matrix."""
    n = 2 * space.m
    # output label a, input label n + a; off the axes they meet in a delta
    ops = [kernel, list(axes) + [n + a for a in axes]]
    for a in range(n):
        if a not in axes:
            ops += [np.eye(space.N), [a, n + a]]
    full = np.einsum(*ops, list(range(2 * n))).reshape(space.dim, space.dim)
    return oracle_dense(permutation_op(space, sigma)) @ full


MIXED_SPACES = (ModelSpace(2, 1, 0), ModelSpace(2, 1, 1), ModelSpace(3, 1, 1), ModelSpace(2, 2, 1))


@st.composite
def mixed_operators(draw, space):
    """An operator of one to three kernel groups, on one to three random
    half-leg axes with a random permutation (a later one sometimes on the
    (permutation, axes) of the one before), plus zero to three random
    terms; returned with its matrix from the definition."""
    N, m = space.N, space.m
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups, dense = [], np.zeros((space.dim, space.dim), dtype=np.complex128)
    for i in range(draw(st.integers(1, 3))):
        if i and draw(st.booleans()):
            sigma, axes = groups[-1].sigma, groups[-1].axes
        else:
            sigma = tuple(draw(st.permutations(range(m))))
            axes = tuple(sorted(draw(st.sets(st.integers(0, 2 * m - 1), min_size=1, max_size=3))))
        shape = (N,) * (2 * len(axes))
        kernel = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        groups.append(legops._KernelGroup(sigma, axes, kernel))
        dense += kernel_dense(space, sigma, axes, kernel)
    kinds = st.sampled_from(("identity", "left", "right", "both"))
    terms = [half_leg_term(space, complex(*rng.standard_normal(2)), tuple(draw(st.permutations(range(m)))),
                           [draw(kinds) for _ in range(m)], rng)
             for _ in range(draw(st.integers(0, 3)))]
    dense += oracle_dense(StructuredOperator(space, terms))
    return StructuredOperator._from_raw(space, groups) + StructuredOperator(space, terms), dense


class TestKernelGroups:
    """Operators that mix kernel groups with term groups, against the
    dense matrix of their definition at N <= 3."""

    @DIFF_SETTINGS
    @given(data=st.data())
    def test_unary_operations_against_the_oracle(self, data):
        space = data.draw(st.sampled_from(MIXED_SPACES))
        x, X = data.draw(mixed_operators(space))
        d, scale = space.dim, max(1.0, np.abs(X).max())
        assert_dense_close(x.to_dense().matrix, X)
        assert_dense_close(x.adjoint().to_dense().matrix, X.conj().T)
        idx = leg_transpose_index(space)
        assert_dense_close(x.j_conjugate().to_dense().matrix, X.conj()[np.ix_(idx, idx)])
        assert_dense_close(x.scale(-0.5j).to_dense().matrix, -0.5j * X)
        v = RNG.standard_normal(d) + 1j * RNG.standard_normal(d)
        np.testing.assert_allclose(x.apply(v), X @ v, rtol=0, atol=1e-10 * scale * d)
        assert abs(x.normalized_trace() - np.trace(X) / d) <= 1e-12 * scale
        assert abs(x.hs_norm() - np.linalg.norm(X) / np.sqrt(d)) <= 1e-10 * scale
        want = np.linalg.norm(X, 2)
        assert abs(x.operator_norm() - want) <= 1e-10 * want
        # the term view: one matrix-unit term per nonzero kernel entry
        assert x.n_terms == len(x.terms)
        assert_dense_close(StructuredOperator(space, x.terms).to_dense().matrix, X)

    @DIFF_SETTINGS
    @given(data=st.data())
    def test_sums_products_and_laws(self, data):
        space = data.draw(st.sampled_from(MIXED_SPACES))
        (x, X), (y, Y), (z, Z) = (data.draw(mixed_operators(space)) for _ in range(3))
        assert_dense_close((x + y).to_dense().matrix, X + Y)
        assert_dense_close((x - y).to_dense().matrix, X - Y)
        assert_dense_close(StructuredOperator.sum([x, y, z]).to_dense().matrix, X + Y + Z)
        assert_dense_close((x @ y).to_dense().matrix, X @ Y)
        assert_dense_close(((x @ y) @ z).to_dense().matrix, (x @ (y @ z)).to_dense().matrix)
        assert_dense_close((x @ y).adjoint().to_dense().matrix, (y.adjoint() @ x.adjoint()).to_dense().matrix)
        assert_dense_close(x.j_conjugate().j_conjugate().to_dense().matrix, X)
        assert_dense_close((x @ y).j_conjugate().to_dense().matrix,
                           (x.j_conjugate() @ y.j_conjugate()).to_dense().matrix)
        scale = max(1.0, np.abs(X @ Y).max())
        assert abs((x @ y).normalized_trace() - (y @ x).normalized_trace()) <= 1e-12 * scale

    def test_kernel_sums_cancel_and_drop(self):
        sp = ModelSpace(3, 1, 1)
        P = haar_pair_average_exact(sp, 0, 1, "lr")
        for zero in (P - P, P @ P - P, P.adjoint() - P, P.scale(1e-20)):
            assert zero.n_terms == 0 and not zero._groups
        # one kernel group per (permutation, axes), after the term group
        # of its permutation
        x = left_mult(sp, rand_mat(3), 0) + P + P.scale(2.0) + haar_pair_average_exact(sp, 0, 1, "ll")
        kinds = [(type(g).__name__, getattr(g, "axes", None)) for g in x._groups]
        assert kinds == [("_Group", None), ("_KernelGroup", (0, 2)), ("_KernelGroup", (0, 3))]
        np.testing.assert_array_equal(x._groups[2].kernel, P._groups[0].kernel + 2.0 * P._groups[0].kernel)

    def test_same_axes_product_stays_on_its_axes(self):
        sp = ModelSpace(3, 1, 1)
        T = haar_pair_average_exact(sp, 0, 1, "ll")
        (g,) = (T @ T)._groups
        assert (g.sigma, g.axes) == ((0, 1), (0, 2))
        np.testing.assert_allclose(g.kernel.reshape(9, 9), np.eye(9) / 9, rtol=0, atol=1e-16)

    def test_product_past_the_cap_raises(self):
        sp = ModelSpace(16, 1, 1)
        x = haar_pair_average_exact(sp, 0, 1, "ll")
        y = haar_pair_average_exact(sp, 0, 1, "rr")
        # the union of axes (0, 2) and (1, 3) is a 16^4 x 16^4 kernel
        with pytest.raises(CapExceededError, match="kernel dimension 65536"):
            x @ y

    def test_term_only_trace_builds_no_kernel(self):
        op = every_route_operator(np.random.default_rng(7))
        X = op.to_dense().matrix
        with mock.patch.object(legops, "_kernel", side_effect=AssertionError("built a kernel")):
            got = op.normalized_trace()
        assert abs(got - np.trace(X) / op.space.dim) <= 1e-12 * max(1.0, np.abs(X).max())


PERM_SPACES = MIXED_SPACES + (ModelSpace(2, 3, 0), ModelSpace(2, 3, 1))


@st.composite
def perm_mixed_operators(draw, space):
    """A ``mixed_operators`` operator with a permutation group of one to
    eight rows joined before or after it, on permutations its term and
    kernel groups have or random ones, repeats included; returned with
    its matrix from the definition."""
    x, X = draw(mixed_operators(space))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = [g.sigma for g in visited(x)] + [tuple(draw(st.permutations(range(space.m)))) for _ in range(2)]
    sigmas = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(draw(st.integers(1, 8)))]
    coeffs = rng.standard_normal(len(sigmas)) + 1j * rng.standard_normal(len(sigmas))
    pure = StructuredOperator._from_raw(space, [legops._PermGroup(np.array(sigmas), coeffs)])
    X = X + sum(c * oracle_dense(permutation_op(space, sigma)) for sigma, c in zip(sigmas, coeffs))
    return (pure + x if draw(st.booleans()) else x + pure), X


class TestPermutationGroups:
    """Operators that hold a permutation group beside term and kernel
    groups, against the dense matrix of their definition at d <= 256:
    every operation, and the term view, by permutation, that builds the
    operator back."""

    @DIFF_SETTINGS
    @given(data=st.data())
    def test_every_operation_against_the_oracle(self, data):
        space = data.draw(st.sampled_from(PERM_SPACES))
        (x, X), (y, Y) = (data.draw(perm_mixed_operators(space)) for _ in range(2))
        d, scale = space.dim, max(1.0, np.abs(X).max())
        kinds = [type(g) for g in x._groups]
        assert legops._PermGroup not in kinds[1:]  # at most one, first
        assert_dense_close(x.to_dense().matrix, X)
        assert_dense_close(x.adjoint().to_dense().matrix, X.conj().T)
        idx = leg_transpose_index(space)
        assert_dense_close(x.j_conjugate().to_dense().matrix, X.conj()[np.ix_(idx, idx)])
        assert_dense_close(x.scale(-0.5j).to_dense().matrix, -0.5j * X)
        assert_dense_close((x + y).to_dense().matrix, X + Y)
        assert_dense_close((x - y).to_dense().matrix, X - Y)
        assert_dense_close((x @ y).to_dense().matrix, X @ Y)
        pure = StructuredOperator._from_canonical(space, x._groups[:kinds.count(legops._PermGroup)])
        assert_dense_close((pure @ y).to_dense().matrix, pure.to_dense().matrix @ Y)
        assert_dense_close((y @ pure).to_dense().matrix, Y @ pure.to_dense().matrix)
        v = RNG.standard_normal(d) + 1j * RNG.standard_normal(d)
        np.testing.assert_allclose(x.apply(v), X @ v, rtol=0, atol=1e-10 * scale * d)
        assert abs(x.normalized_trace() - np.trace(X) / d) <= 1e-12 * scale
        assert abs(x.hs_norm() - np.linalg.norm(X) / np.sqrt(d)) <= 1e-10 * scale
        want = np.linalg.norm(X, 2)
        assert abs(x.operator_norm() - want) <= 1e-10 * want
        terms = x.terms
        assert x.n_terms == len(terms)
        assert [t.sigma for t in terms] == sorted(t.sigma for t in terms)
        assert_dense_close(StructuredOperator(space, terms).to_dense().matrix, X)

"""Linear-algebra engines checked on cases with known closed forms.

The span-closure kernel is also checked against
``reference_span_closure`` and ``reference_cyclic_growth``, the
survivor-Gram plus modified Gram-Schmidt closure and the per-candidate
cyclic loop it replaced, and against ``reference_word_closure``, its
admission rule applied one candidate at a time; ``block_structure``
against ``reference_block_structure``, the per-cluster-pair loop it
replaced, and ``commutant_basis`` against ``reference_commutant_basis``,
the SVD of the stacked constraint system it replaced.
"""

import math
import tracemalloc
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from duallab import algebra_tools
from duallab.algebra_tools import (
    COMMUTANT_DIM_CAP,
    RANK_TOL,
    AlgebraBasis,
    block_structure,
    commutant_basis,
    fixed_point_basis,
    fixed_point_dimension,
    generated_algebra_dim,
    hs_inner,
    left_average_generators,
    orthonormalize,
    relative_gap,
    span_closure,
    span_growth_check,
)
from duallab.crossed import group_elements, leg_unitary
from duallab.duality_core import haar_unitary, t_plus
from duallab.legops import (
    CapExceededError,
    ModelSpace,
    NumericError,
    StructuredOperator,
    left_mult,
    right_mult,
)

RNG = np.random.default_rng(0xA16)


def rand_mat(n, rng=RNG):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def unit(n, i, j):
    e = np.zeros((n, n))
    e[i, j] = 1.0
    return e


def model_space_sampler(p, q, N):
    """The relative-gap sampler on the model space: the dense lift of
    l(u) on the p left legs and r(u*) on the q right legs, one Haar
    draw per call.  It is the differential oracle for the acting-factor
    sampler of ``relative_gap``."""
    space = ModelSpace(N, p, q)

    def sampler(r):
        u = haar_unitary(N, r)
        op = StructuredOperator.identity(space)
        for k in range(p):
            op = op.compose(left_mult(space, u, k))
        for j in range(p, p + q):
            op = op.compose(right_mult(space, u.conj().T, j))
        return op.to_dense().matrix

    return sampler


def model_space_left_averages(p, N):
    """Dense t_plus(e_ij) on the model space of p left legs, matrix
    units in row-major order: the differential oracle for the
    acting-factor ``left_average_generators``."""
    space = ModelSpace(N, p, 0)
    return [t_plus(space, unit(N, i, j)).to_dense().matrix for i in range(N) for j in range(N)]


def lift_axes(p, q, N):
    """Axis order that maps a model-space matrix on p + q legs to
    kron(acting factor, 1): leg k has row axis 2k and column axis
    2k + 1, so the left legs' rows and the right legs' columns come
    first and the rest after."""
    m = p + q
    acting = [2 * k for k in range(p)] + [2 * k + 1 for k in range(p, m)]
    order = acting + [a for a in range(2 * m) if a not in acting]
    return (N,) * (4 * m), order + [2 * m + a for a in order]


class TestInnerProduct:
    def test_identity_normalized(self):
        for d in (2, 5):
            assert hs_inner(np.eye(d), np.eye(d)) == pytest.approx(1.0)

    def test_conjugation_side(self):
        # <x, y> = tr(y* x)/d: antilinear in the second argument
        x, y = rand_mat(3), rand_mat(3)
        assert hs_inner(x, 2j * y) == pytest.approx(-2j * hs_inner(x, y))
        assert hs_inner(2j * x, y) == pytest.approx(2j * hs_inner(x, y))

    def test_matrix_units_orthogonal(self):
        assert hs_inner(unit(2, 0, 1), unit(2, 1, 0)) == 0


class TestOrthonormalize:
    def test_rank_detection(self):
        basis = orthonormalize([np.eye(2), 2.0 * np.eye(2), unit(2, 0, 1)])
        assert len(basis) == 2

    def test_orthonormal_output(self):
        mats = [rand_mat(3) for _ in range(5)]
        basis = orthonormalize(mats)
        g = np.array([[hs_inner(a, b) for b in basis] for a in basis])
        assert np.abs(g - np.eye(len(basis))).max() < 1e-12

    def test_span_preserved(self):
        mats = [rand_mat(3) for _ in range(2)]
        basis = orthonormalize(mats)
        for m in mats:
            recon = sum(hs_inner(m, b) * b for b in basis)
            assert np.abs(recon - m).max() < 1e-10

    def test_empty(self):
        assert orthonormalize([]) == []


class TestAlgebraBasis:
    def test_contains(self):
        basis = AlgebraBasis(None, tuple(orthonormalize([np.eye(2), unit(2, 0, 1)])))
        assert basis.contains(np.eye(2))
        assert basis.contains(3.0 * np.eye(2) + 5.0 * unit(2, 0, 1))
        assert not basis.contains(unit(2, 1, 0))

    def test_dimension_defaults_to_count(self):
        basis = AlgebraBasis(None, (np.eye(2),))
        assert basis.dim == 1

    def test_matches_elementwise_loops(self):
        # a basis that is not orthonormal: gram_defect and contains must
        # agree with the per-pair and per-element hs_inner loops
        elems = tuple(rand_mat(3) for _ in range(3))
        basis = AlgebraBasis(None, elems)
        g = np.array([[hs_inner(x, y) for y in elems] for x in elems])
        assert basis.gram_defect() == pytest.approx(np.abs(g - np.eye(3)).max(), rel=1e-12)
        ortho = AlgebraBasis(None, tuple(orthonormalize(elems)))
        inside = 2.0 * elems[0] - 1j * elems[2]
        outside = inside + 1e-6 * rand_mat(3)
        for x, want in ((inside, True), (outside, False)):
            resid = x.astype(np.complex128)
            for b in ortho.elements:
                resid = resid - hs_inner(resid, b) * b
            assert (np.abs(resid).max() <= 1e-8 * max(1.0, np.abs(x).max())) == want
            assert ortho.contains(x) == want

    def test_dimension_override(self):
        basis = AlgebraBasis(None, (), dimension=17)
        assert basis.dim == 17
        assert basis.gram_defect() == 0.0


def _stacked_constraints(mats):
    """Rows kron(I, h^T) - kron(h, I) for h = g and g*: the maps from the
    row-major vec(X) to vec(X h - h X)."""
    eye = np.eye(mats[0].shape[0])
    return np.vstack([np.kron(eye, h.T) - np.kron(h, eye) for g in mats for h in (g, g.conj().T)])


def reference_commutant_basis(mats):
    """The literal solver: the null space of the stacked constraints by
    SVD, cut at RANK_TOL times the larger of the top singular value and
    the generator scale.

    The package solver once stacked kron(I, h) - kron(h^T, I), which
    solves X h^T = h^T X: the commutant of the conjugate generators,
    the same subspace only for real generators."""
    d = mats[0].shape[0]
    _, sv, vh = np.linalg.svd(_stacked_constraints(mats), full_matrices=False)
    gscale = max(float(np.abs(m).max()) for m in mats)
    rank = int((sv > RANK_TOL * max(float(sv[0]), gscale)).sum())
    return [row.reshape(d, d) * math.sqrt(d) for row in vh[rank:].conj()]


def _projector(elements):
    flat = np.array(elements).reshape(len(elements), -1)
    return flat.T @ flat.conj() / elements[0].shape[0]


def _tensor_squares(N, seed):
    rng = np.random.default_rng(seed)
    return [np.kron(u, u) for u in (haar_unitary(N, rng) for _ in range(4))]


def _legs(N, p, q):
    space = ModelSpace(N, p, q)
    return [leg_unitary(space, g) for g in group_elements(p, q)]


def _normal_with_repeated_eigenvalue(seed):
    u = haar_unitary(3, np.random.default_rng(seed))
    return u @ np.diag([1.0, 1.0, 2.0]) @ u.conj().T


def _hermitian(n, seed):
    h = rand_mat(n, np.random.default_rng(seed))
    return h + h.conj().T


def _swap():
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
    return swap


GRAM_CASES = {
    "generic_pair": lambda: [rand_mat(3, np.random.default_rng(1)), rand_mat(3, np.random.default_rng(2))],
    "hermitian": lambda: [_hermitian(4, 3)],
    "identity": lambda: [np.eye(3)],
    "swap": lambda: [_swap()],
    "generic_single": lambda: [rand_mat(3, np.random.default_rng(4))],
    "near_identity_dust": lambda: [np.eye(3) + 1e-16 * rand_mat(3, np.random.default_rng(5))],
    "normal_repeated_eigenvalue": lambda: [_normal_with_repeated_eigenvalue(6)],
    "tensor_square_N2": lambda: _tensor_squares(2, 7),
    "tensor_square_N3": lambda: _tensor_squares(3, 8),
    "tensor_square_N4": lambda: _tensor_squares(4, 9),
    "legs_220": lambda: _legs(2, 2, 0),
    "legs_211": lambda: _legs(2, 1, 1),
}


class TestCommutantGram:
    @pytest.mark.parametrize("case", sorted(GRAM_CASES))
    def test_matches_reference_solver(self, case):
        mats = GRAM_CASES[case]()
        basis = commutant_basis(mats)
        ref = reference_commutant_basis(mats)
        assert basis.dim == len(ref)
        assert np.abs(_projector(basis.elements) - _projector(ref)).max() <= 1e-10
        # the cut sits in a wide gap of the Gram spectrum
        d = mats[0].shape[0]
        vals = np.linalg.eigvalsh(algebra_tools._commutant_gram(mats, d))
        gscale = max(float(np.abs(m).max()) for m in mats)
        cut = algebra_tools.GRAM_EIG_TOL * max(float(vals[-1]), gscale * gscale)
        assert int((vals <= cut).sum()) == basis.dim
        if basis.dim < d * d:
            assert vals[basis.dim] >= 1e-3 * vals[-1]

    def test_gram_is_the_stacked_product(self):
        mats = [rand_mat(5, np.random.default_rng(10)) for _ in range(2)]
        stacked = _stacked_constraints(mats)
        gram = algebra_tools._commutant_gram(mats, 5)
        assert np.abs(gram - stacked.conj().T @ stacked).max() <= 1e-12 * np.abs(gram).max()


class TestCommutant:
    def test_scalar_commutant_of_generic_pair(self):
        gens = [rand_mat(3), rand_mat(3)]
        basis = commutant_basis(gens)
        assert basis.dim == 1
        # the single element is a scalar multiple of the identity
        b = basis.elements[0]
        assert np.abs(b - b[0, 0] * np.eye(3)).max() < 1e-8

    def test_hermitian_commutant_is_diagonalizing_algebra(self):
        h = rand_mat(4)
        h = h + h.conj().T
        basis = commutant_basis([h])
        assert basis.dim == 4

    def test_identity_commutant_is_everything(self):
        basis = commutant_basis([np.eye(3)])
        assert basis.dim == 9

    def test_swap_commutant_dimension(self):
        # swap on C^2 x C^2 has eigenvalues +1 (mult 3) and -1 (mult 1)
        assert commutant_basis([_swap()]).dim == 10

    def test_elements_commute_with_generators(self):
        g = rand_mat(3)
        basis = commutant_basis([g])
        for b in basis.elements:
            assert np.abs(b @ g - g @ b).max() < 1e-7

    def test_elements_commute_with_a_complex_generator_of_large_commutant(self):
        # a complex normal matrix with a repeated eigenvalue: its commutant
        # (dimension 2^2 + 1) differs from that of its conjugate
        g = _normal_with_repeated_eigenvalue(6)
        basis = commutant_basis([g])
        assert basis.dim == 5
        for b in basis.elements:
            assert np.abs(b @ g - g @ b).max() < 1e-12

    def test_near_identity_dust_regression(self):
        # a generator that commutes with everything up to float dust must
        # produce the full commutant, not a noise-rank one
        dust = 1e-16 * rand_mat(3)
        basis = commutant_basis([np.eye(3) + dust])
        assert basis.dim == 9

    def test_cap(self):
        d = COMMUTANT_DIM_CAP + 1
        with pytest.raises(CapExceededError):
            commutant_basis([np.eye(d)])

    def test_leg_unitaries_solve_without_the_square_factor(self):
        # d = 16, two generators: the Gram matrix is 256 x 256 complex,
        # 1 MiB; the 1024 x 256 stacked system (4 MiB) and a full SVD's
        # 1024 x 1024 U (16 MiB more) are never formed
        space = ModelSpace(2, 2, 0)
        legs = [leg_unitary(space, g) for g in group_elements(space.p, space.q)]
        commutant_basis(legs)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            basis = commutant_basis(legs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert basis.dim == 136  # the symmetric and antisymmetric blocks: 10^2 + 6^2


class TestBlockStructure:
    def test_full_matrix_algebra(self):
        blocks, dim_alg, dim_comm = block_structure([rand_mat(3), rand_mat(3)])
        assert blocks == [(3, 1)]
        assert (dim_alg, dim_comm) == (9, 1)

    def test_scalars(self):
        blocks, dim_alg, dim_comm = block_structure([np.eye(3)])
        assert blocks == [(1, 3)]
        assert (dim_alg, dim_comm) == (1, 9)

    def test_hidden_multiplicity(self):
        # M_2 with multiplicity 2 plus M_3 with multiplicity 1, scrambled
        # by a fixed unitary change of basis
        rng = np.random.default_rng(12)
        u = haar_unitary(7, rng)

        def emb(a, b):
            blk = np.zeros((7, 7), dtype=np.complex128)
            blk[0:2, 0:2] = a
            blk[2:4, 2:4] = a
            blk[4:7, 4:7] = b
            return u @ blk @ u.conj().T

        gens = [emb(rand_mat(2, rng), rand_mat(3, rng)) for _ in range(2)]
        blocks, dim_alg, dim_comm = block_structure(gens, rng=rng)
        assert sorted(blocks) == [(2, 2), (3, 1)]
        assert (dim_alg, dim_comm) == (13, 5)

    def test_default_rng_is_deterministic(self):
        gens = [rand_mat(4)]
        assert block_structure(gens) == block_structure(gens)


class TestNonFiniteGenerators:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "solve", [span_closure, block_structure, generated_algebra_dim, commutant_basis]
    )
    def test_raises_naming_the_entry(self, solve, bad):
        # a NaN or inf entry used to give a 1-dimensional closure, an
        # empty-argmax ValueError or a non-converged eigh
        with pytest.raises(NumericError, match=r"non-finite matrix entry .* at \(0, 0\)"):
            solve([np.eye(2), np.array([[bad, 0.0], [0.0, 1.0]])])


class TestSpanClosure:
    def test_unit_is_adjoined(self):
        # a single nilpotent matrix unit generates all of M_2 as a
        # unital *-algebra
        basis, _ = span_closure([unit(2, 0, 1)])
        assert len(basis) == 4

    def test_projection_generates_two_dims(self):
        basis, rounds = span_closure([np.diag([1.0, 0.0])])
        assert len(basis) == 2
        assert rounds <= 3

    def test_output_orthonormal(self):
        basis, _ = span_closure([rand_mat(3)])
        g = np.array([[hs_inner(a, b) for b in basis] for a in basis])
        assert np.abs(g - np.eye(len(basis))).max() < 1e-8

    def test_closed_under_multiplication(self):
        basis, _ = span_closure([rand_mat(2)])
        holder = AlgebraBasis(None, tuple(basis))
        for a in basis:
            for b in basis:
                assert holder.contains(a @ b)


class TestGeneratedDim:
    def test_polynomial_algebra(self):
        h = np.diag([1.0, 2.0, 3.0])
        dim, basis = generated_algebra_dim([h])
        assert dim == 3
        assert basis.dim == 3

    def test_sampler_route(self):
        dim, _ = generated_algebra_dim(
            lambda r: haar_unitary(2, r), rng=np.random.default_rng(5)
        )
        assert dim == 4

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            generated_algebra_dim([])


def reference_fixed_point_elements(p, N, side):
    """The normalized orbit sums of ``fixed_point_basis``, each term a
    chain of p one-leg products from the identity: the differential
    oracle for its array-built groups."""
    space = ModelSpace(N, p, 0) if side == "left" else ModelSpace(N, 0, p)
    mult = left_mult if side == "left" else right_mult
    letters = [(i, j) for i in range(N) for j in range(N)]
    elements = []
    for word in combinations_with_replacement(letters, p):
        terms = []
        seen = set()
        for perm in permutations(range(p)):
            arranged = tuple(word[perm[k]] for k in range(p))
            if arranged in seen:
                continue
            seen.add(arranged)
            term = StructuredOperator.identity(space)
            for k, (i, j) in enumerate(arranged):
                term = term.compose(mult(space, unit(N, i, j), k))
            terms.append(term)
        mat = StructuredOperator.sum(terms).to_dense().matrix
        elements.append(mat / math.sqrt(abs(hs_inner(mat, mat))))
    return elements


class TestFixedPoints:
    @pytest.mark.parametrize("p,N", [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_compose_chain_oracle(self, p, N, side):
        got = fixed_point_basis(p, N, side).elements
        want = reference_fixed_point_elements(p, N, side)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_dimension_is_multiset_count(self):
        for p, N in [(1, 2), (2, 2), (3, 2), (2, 3)]:
            want = len(list(combinations_with_replacement(range(N * N), p)))
            assert fixed_point_dimension(p, N) == want

    def test_basis_matches_dimension(self):
        basis = fixed_point_basis(2, 2)
        assert basis.dim == fixed_point_dimension(2, 2) == 10
        assert basis.gram_defect() < 1e-10

    def test_swap_invariance(self):
        sp = ModelSpace(2, 2, 0)
        D = sp.leg_dim
        swap = np.zeros((sp.dim, sp.dim))
        for i in range(D):
            for j in range(D):
                swap[j * D + i, i * D + j] = 1.0
        for b in fixed_point_basis(2, 2).elements:
            assert np.abs(swap @ b @ swap - b).max() < 1e-10

    def test_right_side(self):
        basis = fixed_point_basis(2, 2, side="right")
        assert basis.dim == 10
        assert basis.space == ModelSpace(2, 0, 2)

    def test_side_validation(self):
        with pytest.raises(ValueError):
            fixed_point_basis(2, 2, side="up")

    def test_materialized_when_small(self):
        basis = fixed_point_basis(2, 3)
        assert basis.dim == fixed_point_dimension(2, 3) == 45
        assert len(basis.elements) == 45

    def test_large_space_keeps_dimension_only(self):
        # model dim 729 sits above the materialization threshold
        basis = fixed_point_basis(3, 3)
        assert basis.dim == fixed_point_dimension(3, 3) == 165
        assert basis.elements == ()


class TestRelativeGap:
    def test_smallest_case(self):
        rep = relative_gap(1, 1, 2)
        assert rep.generated_dim == 2**4 - 2 * 2**2 + 2 == 10
        assert rep.fixed_dim == 16
        assert rep.relative_gap == pytest.approx(0.375)
        assert (rep.p, rep.q, rep.N) == (1, 1, 2)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            relative_gap(2, 2, 4)

    def test_five(self):
        # on the model space (d = 625) the closure basis alone would
        # take 577 rows of d^2 complex entries, about 3.6 GB; on the
        # 25 x 25 acting factor its rows have 625 entries
        rep = relative_gap(1, 1, 5)
        assert rep.generated_dim == 5**4 - 2 * 5**2 + 2 == 577
        assert rep.fixed_dim == 625

    @pytest.mark.parametrize("p, q, N", [(1, 1, 2), (1, 1, 3), (2, 1, 2), (1, 2, 2)])
    def test_oracle_is_lifted_factor(self, p, q, N):
        u = haar_unitary(N, np.random.default_rng(7))
        lifted = model_space_sampler(p, q, N)(np.random.default_rng(7))
        shape, axes = lift_axes(p, q, N)
        t = lifted.reshape(shape).transpose(axes)
        expected = np.kron(algebra_tools._acting_factor(u, p, q), np.eye(N ** (p + q)))
        assert np.abs(t.reshape(expected.shape) - expected).max() < 1e-14

    @pytest.mark.parametrize("p, q, N", [(1, 1, 2), (1, 1, 3), (2, 1, 2)])
    def test_matches_model_space_oracle(self, p, q, N):
        # relative_gap's default seed
        rng = np.random.default_rng(0x6A9 + 1000 * N + 10 * p + q)
        dim, _ = generated_algebra_dim(model_space_sampler(p, q, N), rng=rng)
        assert relative_gap(p, q, N).generated_dim == dim


class TestSpanGrowth:
    def test_single_leg(self):
        rep = span_growth_check(1, 2)
        assert rep.cyclic_dim == rep.expected_dim == rep.generated_dim == 4
        assert rep.rounds == 1
        assert rep.agree

    def test_two_legs(self):
        rep = span_growth_check(2, 2)
        assert rep.cyclic_dim == rep.expected_dim == 10
        assert rep.rounds == 2
        assert rep.agree

    @pytest.mark.parametrize("p, N", [(1, 2), (2, 2), (3, 2), (2, 3)])
    def test_oracle_is_lifted_factor(self, p, N):
        shape, axes = lift_axes(p, 0, N)
        for got, lifted in zip(left_average_generators(p, N), model_space_left_averages(p, N)):
            t = lifted.reshape(shape).transpose(axes).reshape(N ** (2 * p), -1)
            assert np.array_equal(t, np.kron(got, np.eye(N**p)))

    @pytest.mark.parametrize("p, N", [(2, 2), (3, 2), (2, 3)])
    def test_matches_model_space_oracle(self, p, N):
        dim, _ = generated_algebra_dim(model_space_left_averages(p, N))
        assert span_growth_check(p, N).generated_dim == dim


# -- closure kernel against the paths it replaced --------------------------------


def reference_span_closure(generators, max_rounds=24, rel_tol=RANK_TOL):
    """The closure the kernel replaced: every generator and adjoint as a
    multiplier, a two-pass projection of the candidate block, admission
    through the eigh of the survivor Gram matrix (n x n, whatever n),
    and a row-by-row modified Gram-Schmidt polish."""
    mats = [np.asarray(g, dtype=np.complex128) for g in generators]
    d = mats[0].shape[0]
    mults = mats + [g.conj().T for g in mats]
    basis = np.eye(d, dtype=np.complex128).reshape(1, -1) / math.sqrt(d)
    frontier = basis.copy()
    rounds = 0
    for _ in range(max_rounds):
        f = frontier.shape[0]
        cand = np.empty((f * len(mults), d * d), dtype=np.complex128)
        cube = frontier.reshape(f, d, d)
        for gi, g in enumerate(mults):
            cand[gi * f:(gi + 1) * f] = (cube @ g).reshape(f, -1)
        scale = float(np.linalg.norm(cand, axis=1).max()) or 1.0
        for _ in range(2):
            cand -= (cand @ basis.conj().T) @ basis
        live = np.linalg.norm(cand, axis=1) > rel_tol * scale
        rounds += 1
        if not live.any():
            break
        surv = cand[live]
        vals, vecs = np.linalg.eigh(surv @ surv.conj().T)
        keep = vals > 1e-10 * max(float(vals[-1]), 0.0)
        new_rows = (vecs[:, keep].conj().T / np.sqrt(vals[keep])[:, None]) @ surv
        polished = []
        for c in new_rows:
            c = c - basis.T @ (basis.conj() @ c)
            for prow in polished:
                c = c - prow * (prow.conj() @ c)
            nrm = np.linalg.norm(c)
            if nrm <= rel_tol * scale:
                continue
            polished.append(c / nrm)
        if not polished:
            break
        frontier = np.array(polished)
        basis = np.vstack([basis, frontier])
    else:
        raise NumericError(f"span closure open after {max_rounds} rounds")
    return [basis[i].reshape(d, d) * math.sqrt(d) for i in range(basis.shape[0])], rounds


def reference_word_closure(generators, max_rounds=24):
    """The admission rule the kernel states, one candidate at a time:
    each round takes the frontier times every distinct generator and
    adjoint, multiplier by multiplier and frontier row by row, projects
    each candidate twice on every direction admitted so far, and admits
    it iff the residual exceeds RANK_TOL times the round's largest
    candidate norm.  Returns (dimension, rounds)."""
    mats = [np.asarray(g, dtype=np.complex128) for g in generators]
    d = mats[0].shape[0]
    mults = []
    for g in mats + [g.conj().T for g in mats]:
        if not np.array_equal(g, np.eye(d)) and not any(np.array_equal(g, h) for h in mults):
            mults.append(g)
    basis = np.zeros((d * d, d * d), dtype=np.complex128)
    basis[0] = np.eye(d).reshape(-1) / math.sqrt(d)
    dim, frontier = 1, basis[:1].copy()
    for rounds in range(1, max_rounds + 1):
        cands = [(row.reshape(d, d) @ g).reshape(-1) for g in mults for row in frontier]
        scale = max((float(np.linalg.norm(c)) for c in cands), default=0.0) or 1.0
        start = dim
        for c in cands:
            for _ in range(2):
                c = c - basis[:dim].T @ (basis[:dim].conj() @ c)
            nrm = np.linalg.norm(c)
            if nrm > RANK_TOL * scale:
                basis[dim] = c / nrm
                dim += 1
        if dim == start:
            return dim, rounds
        frontier = basis[start:dim].copy()
    raise NumericError(f"span closure open after {max_rounds} rounds")


def reference_cyclic_growth(p, N):
    """The cyclic loop span_growth_check ran before the shared kernel:
    apply every t_plus(e_ij) to every frontier vector and admit the
    images one by one.  Returns (cyclic_dim, growth rounds)."""
    space = ModelSpace(N, p, 0)
    ops = [t_plus(space, unit(N, i, j)) for i in range(N) for j in range(N)]
    ident = np.eye(N, dtype=np.complex128).reshape(-1) / math.sqrt(N)
    vec = ident
    for _ in range(p - 1):
        vec = np.outer(vec, ident).reshape(-1)
    basis = vec[None, :] / np.linalg.norm(vec)
    frontier = basis.copy()
    rounds = 0
    while True:
        cands = [op.apply(row) for row in frontier for op in ops]
        new_rows = []
        scale = max(float(np.abs(np.array(cands)).max()), 1.0)
        for c in cands:
            c = c - basis.T @ (basis.conj() @ c)
            if np.linalg.norm(c) <= RANK_TOL * scale:
                continue
            c = c - basis.T @ (basis.conj() @ c)
            nrm = np.linalg.norm(c)
            if nrm <= RANK_TOL * scale:
                continue
            basis = np.vstack([basis, c / nrm])
            new_rows.append(c / nrm)
        if not new_rows:
            break
        frontier = np.array(new_rows)
        rounds += 1
    return basis.shape[0], rounds


def flat_rows(basis):
    """Frobenius-orthonormal rows of a span_closure basis."""
    d = basis[0].shape[0]
    return np.array(basis).reshape(len(basis), -1) / math.sqrt(d)


@st.composite
def generator_sets(draw):
    """Generator sets of many small generators (a round's candidates
    outnumber d^2) and of a few large ones, plus Hermitian-closed
    sets, sets holding the identity, nilpotent matrix units and
    commuting, rank-deficient diagonals.  Random generators get scales
    spread over four decades.

    Two kinds sit near the cuts.  In "mixed_scale" a random generator
    about 1e-6 times smaller than a diagonal one gives Gram eigenvalues
    near 1e-12 of the diagonal's: a Gram cut over a whole round's
    candidates held its directions back for rounds, one over each
    multiplier's block admits them at their word length.  In
    "near_identity" every new direction is about 1e-7 of its candidate,
    so one projection leaves a residue along the basis that only the
    re-projection of the admitted rows removes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from((
        "many_small", "few_large", "hermitian_closed", "with_identity", "units", "diagonal",
        "mixed_scale", "near_identity",
    )))

    def scaled(d):
        return 10.0 ** rng.uniform(-2, 2) * rand_mat(d, rng)

    if kind == "many_small":
        return [scaled(4) for _ in range(draw(st.integers(12, 24)))]
    if kind == "few_large":
        d = draw(st.integers(9, 16))
        return [scaled(d) for _ in range(draw(st.integers(1, 3)))]
    d = draw(st.integers(3, 6))
    if kind == "hermitian_closed":
        gens = [scaled(d) for _ in range(draw(st.integers(1, 3)))]
        return gens + [g.conj().T for g in gens]
    if kind == "with_identity":
        return [np.eye(d)] + [scaled(d) for _ in range(draw(st.integers(0, 2)))]
    if kind == "mixed_scale":
        return [np.diag(np.arange(1.0, d + 1)), 10.0 ** rng.uniform(-6.5, -6) * rand_mat(d, rng)]
    if kind == "near_identity":
        return [np.eye(d) + 10.0 ** rng.uniform(-7, -6) * rand_mat(d, rng)]
    if kind == "units":
        pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
        picks = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3))
        return [unit(d, i, j) for i, j in picks]
    # commuting diagonals with repeated entries span a rank-deficient set
    levels = rng.integers(0, draw(st.integers(1, d)), size=(draw(st.integers(1, 3)), d))
    return [np.diag(row.astype(float)) for row in levels]


class TestClosureKernel:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(generator_sets())
    def test_matches_reference_closure(self, gens):
        got, rounds = span_closure(gens)
        want, _ = reference_span_closure(gens)
        assert len(got) == len(want)
        assert (len(got), rounds) == reference_word_closure(gens)
        b, r = flat_rows(got), flat_rows(want)
        assert np.abs(b @ b.conj().T - np.eye(len(got))).max() < 1e-10
        # orthogonal projectors onto the two spans
        assert np.abs(b.T @ b.conj() - r.T @ r.conj()).max() < 1e-8

    def test_small_scale_generator_is_not_starved(self):
        # 1e-6 Z is judged against its own block, so its directions enter
        # in the rounds their word length gives; a cut over the whole
        # round's candidates left the closure open past CLOSURE_ROUNDS
        z = rand_mat(8, np.random.default_rng(0))
        gens = [np.diag(np.arange(1.0, 9.0)), 1e-6 * z]
        basis, rounds = span_closure(gens)
        assert (len(basis), rounds) == reference_word_closure(gens)
        assert len(basis) == 64

    def test_memory_is_one_multiplier_block(self):
        # 20 random generators of M_16 and I: 40 multipliers, whose round
        # of candidates together held about 100 MiB
        rng = np.random.default_rng(16)
        gens = [rand_mat(16, rng) for _ in range(20)] + [np.eye(16)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            basis, _ = span_closure(gens)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(basis) == 256
        assert peak < 16 * 2**20

    def test_identity_alone(self):
        # the only multiplier is skipped, so the one round sees no candidates
        basis, rounds = span_closure([np.eye(3)])
        assert (len(basis), rounds) == (1, 1)

    def test_open_closure_raises(self, monkeypatch):
        monkeypatch.setattr(algebra_tools, "CLOSURE_ROUNDS", 1)
        with pytest.raises(NumericError):
            span_closure([rand_mat(3)])

    def test_block_past_the_target_raises(self):
        # round 1 admits g and g*, round 2's first block g^2 and g* g: 5 > 4
        g = rand_mat(3, np.random.default_rng(3))
        with pytest.raises(NumericError, match="passes its target"):
            algebra_tools._closure(np.eye(3), [g, g.conj().T], algebra_tools.CLOSURE_ROUNDS, 4)

    def test_stops_in_the_round_that_reaches_the_target(self):
        g = rand_mat(3, np.random.default_rng(3))
        mults = [g, g.conj().T]
        full, full_rounds = algebra_tools._closure(np.eye(3), mults, algebra_tools.CLOSURE_ROUNDS)
        stopped, rounds = algebra_tools._closure(np.eye(3), mults, algebra_tools.CLOSURE_ROUNDS, 9)
        assert len(full) == 9 and np.array_equal(stopped, full)
        assert rounds < full_rounds

    def test_target_out_of_reach_runs_to_the_end(self):
        # the closure ends below the target as it would without one
        d = np.diag([1.0, 2.0, 2.0])
        assert np.array_equal(
            algebra_tools._closure(np.eye(3), [d], algebra_tools.CLOSURE_ROUNDS, 9)[0],
            algebra_tools._closure(np.eye(3), [d], algebra_tools.CLOSURE_ROUNDS)[0])

    def test_mixed_scale_generators_agree(self):
        # both routes see z at unit 2-norm, so neither cuts it as residue
        rng = np.random.default_rng(0)
        d = np.diag([1.0, 2.0, 3.0, 4.0])
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        z *= 1.3e-7 / np.linalg.norm(z, 2)
        dim, _ = generated_algebra_dim([d @ d, z])
        assert dim == 16

    @pytest.mark.parametrize("p, N", [(2, 2), (3, 2), (2, 3)])
    def test_span_growth_matches_reference_loop(self, p, N):
        rep = span_growth_check(p, N)
        assert (rep.cyclic_dim, rep.rounds) == reference_cyclic_growth(p, N)
        assert rep.rounds == p and rep.agree


# -- block structure against the loop it replaced ---------------------------------


def reference_block_structure(generators, rng=None):
    """The block structure before the array bookkeeping: an ``np.ix_``
    block test per cluster pair and coupler, a hand-written DFS over the
    cluster graph and per-component scans of the cluster sizes."""
    mats = [np.asarray(g, dtype=np.complex128) for g in generators]
    d = mats[0].shape[0]
    rng = np.random.default_rng(0xA15EB) if rng is None else rng
    hermm = [g for g in mats]
    hermm += [g.conj().T for g in mats]
    couplers = hermm + algebra_tools._sample_words(hermm, rng, min(8, 2 * len(mats)))

    for _ in range(3):
        h = np.zeros((d, d), dtype=np.complex128)
        for g in mats + algebra_tools._sample_words(mats, rng, 4):
            c = rng.standard_normal() + 1j * rng.standard_normal()
            h += c * g + np.conj(c) * g.conj().T
        h = (h + h.conj().T) / 2
        vals, vecs = np.linalg.eigh(h)
        span = max(float(vals[-1] - vals[0]), 1.0)
        clusters = [[0]]
        for i in range(1, d):
            if vals[i] - vals[i - 1] > 1e-8 * span:
                clusters.append([])
            clusters[-1].append(i)
        nclust = len(clusters)
        adj = np.zeros((nclust, nclust), dtype=bool)
        for g in couplers:
            gv = vecs.conj().T @ g @ vecs
            scale = max(float(np.abs(gv).max()), 1.0)
            for u in range(nclust):
                for v in range(nclust):
                    if u == v or adj[u, v]:
                        continue
                    blk = gv[np.ix_(clusters[u], clusters[v])]
                    if np.abs(blk).max() > 1e-8 * scale:
                        adj[u, v] = adj[v, u] = True
        comp = [-1] * nclust
        ncomp = 0
        for s in range(nclust):
            if comp[s] >= 0:
                continue
            stack = [s]
            comp[s] = ncomp
            while stack:
                u = stack.pop()
                for v in range(nclust):
                    if adj[u, v] and comp[v] < 0:
                        comp[v] = ncomp
                        stack.append(v)
            ncomp += 1
        blocks = []
        ok = True
        for c in range(ncomp):
            sizes = {len(clusters[i]) for i in range(nclust) if comp[i] == c}
            count = sum(1 for i in range(nclust) if comp[i] == c)
            if len(sizes) != 1:
                ok = False
                break
            blocks.append((count, sizes.pop()))
        if ok:
            dim_alg = sum(k * k for k, _ in blocks)
            dim_comm = sum(m * m for _, m in blocks)
            return blocks, dim_alg, dim_comm
    raise NumericError("block structure inconsistent after retries")


BLOCK_KINDS = ("generic", "hidden", "diagonal", "acting", "left_average", "weak_path", "split_diagonal")


@st.composite
def block_generator_sets(draw, kinds=BLOCK_KINDS):
    """Generic sets, scrambled direct sums of matrix blocks with
    multiplicities, commuting diagonals with repeated entries, Haar
    acting factors and the left averages, or those of ``kinds``.

    Two kinds sit near the cuts.  In "weak_path" a diagonal with
    distinct entries plus a tridiagonal coupling 1e-9 to 1e-5 times
    smaller couples only neighbouring clusters above the cut, so the
    cluster graph is a path that one squaring does not close, and some
    couplings straddle the 1e-8 threshold.  In "split_diagonal" a
    diagonal on three levels has entries 1e-9 to 1e-6 apart,
    straddling the 1e-8 cluster gap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(kinds))
    if kind == "generic":
        d = draw(st.integers(1, 7))
        return [rand_mat(d, rng) for _ in range(draw(st.integers(1, 3)))]
    if kind == "hidden":
        shape = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3))
        d = sum(k * m for k, m in shape)
        u = haar_unitary(d, rng)

        def emb():
            blk = np.zeros((d, d), dtype=np.complex128)
            at = 0
            for k, m in shape:
                a = rand_mat(k, rng)
                for _ in range(m):
                    blk[at:at + k, at:at + k] = a
                    at += k
            return u @ blk @ u.conj().T

        return [emb() for _ in range(draw(st.integers(1, 2)))]
    if kind == "diagonal":
        d = draw(st.integers(2, 8))
        levels = rng.integers(0, draw(st.integers(1, d)), size=(draw(st.integers(1, 3)), d))
        return [np.diag(row.astype(float)) for row in levels]
    if kind == "weak_path":
        d = draw(st.integers(4, 8))
        off = np.diag(rng.standard_normal(d - 1) + 1j * rng.standard_normal(d - 1), 1)
        return [np.diag(np.arange(1.0, d + 1)), 10.0 ** rng.uniform(-9, -5) * (off + off.conj().T)]
    if kind == "split_diagonal":
        d = draw(st.integers(4, 8))
        levels = rng.integers(0, 3, size=d) + 10.0 ** rng.uniform(-9, -6, size=d) * rng.standard_normal(d)
        return [np.diag(levels)]
    if kind == "acting":
        p, q, N = draw(st.sampled_from(((1, 0, 2), (1, 1, 2), (2, 0, 2), (2, 1, 2), (1, 1, 3))))
        return [algebra_tools._acting_factor(haar_unitary(N, rng), p, q)
                for _ in range(draw(st.integers(1, 4)))]
    p, N = draw(st.sampled_from(((1, 2), (2, 2), (3, 2), (2, 3))))
    return left_average_generators(p, N)


def unit_norm(gens):
    """Each generator over its 2-norm, a zero one left as it is: the
    input that block_structure's rank cuts see."""
    out = []
    for g in gens:
        n = np.linalg.norm(g, 2)
        out.append(g / n if n else g)
    return out


def block_outcome(fn, gens, seed):
    try:
        return fn(gens, rng=np.random.default_rng(seed))
    except NumericError:
        return "NumericError"


class TestBlockStructureArrays:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(block_generator_sets(), st.integers(0, 2**32 - 1))
    def test_matches_reference_loop(self, gens, seed):
        got = block_outcome(block_structure, gens, seed)
        # with unit inputs the reference's scale max(|gv|.max(), 1) is 1
        assert got == block_outcome(reference_block_structure, unit_norm(gens), seed)
        if got != "NumericError":
            blocks, _, _ = got
            assert all(type(k) is int and type(m) is int for k, m in blocks)

    def test_default_rng_matches_reference(self):
        gens = [rand_mat(5), rand_mat(5)]
        assert block_structure(gens) == reference_block_structure(gens)


class TestScaleInvariance:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(block_generator_sets(("generic", "hidden", "acting")), st.integers(0, 2**32 - 1))
    def test_results_do_not_depend_on_generator_scale(self, gens, seed):
        # each generator scaled by a factor log-uniform in [1e-9, 1e9]: every
        # route sees it at unit 2-norm, so nothing it generates may change
        factors = 10.0 ** np.random.default_rng(seed).uniform(-9, 9, size=len(gens))
        scaled = [c * g for c, g in zip(factors, gens)]
        assert block_structure(scaled) == block_structure(gens)
        assert len(span_closure(scaled)[0]) == len(span_closure(gens)[0])
        # the closure kernel as crossed and span_growth_check call it, on raw multipliers
        d, rounds = gens[0].shape[0], algebra_tools.CLOSURE_ROUNDS
        assert (len(algebra_tools._closure(np.eye(d), scaled, rounds)[0])
                == len(algebra_tools._closure(np.eye(d), gens, rounds)[0]))
        assert generated_algebra_dim(scaled)[0] == generated_algebra_dim(gens)[0]
        assert commutant_basis(scaled).dim == commutant_basis(gens).dim

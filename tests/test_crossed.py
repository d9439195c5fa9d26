"""Crossed-product blocks, traces, and the finite group machinery.

The l2(G, H) representation doubles as the oracle: block-level
products, adjoints, and traces must match plain matrix algebra after
densification, and conventions that drift (twist side, inverse
placement) break that agreement immediately.
"""

import math

import numpy as np
import pytest

from duallab import algebra_tools, crossed, legops
from duallab.crossed import (
    CrossedOperator,
    ProductGroupElement,
    center_basis,
    compression_check,
    equivalence_criterion,
    group_conjugacy_classes,
    group_elements,
    l2_probes,
    leg_unitary,
    tau_prime_table,
    theta_apply,
    trace_inequality_check,
    trace_tau_prime,
)
from duallab.duality_core import haar_unitary
from duallab.legops import CapExceededError, ModelSpace, NumericError, StructuredOperator
from duallab.symcomb import Partition, enumerate_partitions

from fractions import Fraction
from math import comb, factorial

RNG = np.random.default_rng(0xC505)


def rand_mat(n, rng=RNG):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def rand_crossed(space, rng=RNG, n_blocks=2):
    elems = group_elements(space.p, space.q)
    picks = rng.choice(len(elems), size=min(n_blocks, len(elems)), replace=False)
    return CrossedOperator(
        space, {elems[i]: rand_mat(space.dim, rng) for i in picks}
    )


def leg_perm_dense(space, sigma):
    D = space.leg_dim
    dims = [D] * space.m
    mat = np.zeros((space.dim, space.dim))
    for idx in np.ndindex(*dims):
        out = [0] * space.m
        for k in range(space.m):
            out[sigma[k]] = idx[k]
        mat[np.ravel_multi_index(out, dims), np.ravel_multi_index(idx, dims)] = 1.0
    return mat


# -- group elements ------------------------------------------------------------


class TestGroupElements:
    def test_order(self):
        for p, q in [(2, 0), (2, 1), (3, 2)]:
            assert len(group_elements(p, q)) == factorial(p) * factorial(q)

    def test_compose_inverse_identity(self):
        g = ProductGroupElement((1, 2, 0), (1, 0))
        e = ProductGroupElement.identity(3, 2)
        assert g.compose(g.inverse()) == e
        assert g.inverse().compose(g) == e
        assert e.is_identity and not g.is_identity

    def test_compose_matches_combined(self):
        g = ProductGroupElement((1, 0, 2), (1, 0))
        h = ProductGroupElement((2, 0, 1), (0, 1))
        gh = g.compose(h)
        comb = tuple(g.combined()[h.combined()[k]] for k in range(5))
        assert gh.combined() == comb

    def test_not_a_permutation_raises(self):
        with pytest.raises(ValueError):
            ProductGroupElement((0, 0), ())

    def test_class_key_conjugation_invariant(self):
        elems = group_elements(3, 2)
        h = ProductGroupElement((1, 2, 0), (1, 0))
        for g in elems[:10]:
            conj = g.compose(h).compose(g.inverse())
            assert conj.class_key() == h.class_key()

    def test_class_count(self):
        for p, q in [(2, 0), (2, 1), (3, 2)]:
            want = len(enumerate_partitions(p)) * len(enumerate_partitions(q))
            assert len(group_conjugacy_classes(p, q)) == want

    def test_classes_partition_the_group(self):
        classes = group_conjugacy_classes(3, 1)
        seen = [g for cls in classes for g in cls]
        assert len(seen) == len(set(seen)) == 6


# -- the theta action -----------------------------------------------------------


class TestThetaAction:
    def test_leg_unitary_matches_permutation_matrix(self):
        # S_3 has 3-cycles, so a gather built from g instead of g^-1 shows
        for p, q in [(2, 1), (3, 0)]:
            sp = ModelSpace(2, p, q)
            for g in group_elements(p, q):
                oracle = leg_perm_dense(sp, g.combined())
                assert np.array_equal(leg_unitary(sp, g), oracle)

    def test_theta_apply_matches_oracle_conjugation(self):
        for p, q in [(2, 1), (3, 0)]:
            sp = ModelSpace(2, p, q)
            a = rand_mat(sp.dim)
            for g in group_elements(p, q):
                u = leg_perm_dense(sp, g.combined())
                assert np.array_equal(theta_apply(sp, g, a), u @ a @ u.T)

    def test_leg_unitary_shape_mismatch(self):
        with pytest.raises(ValueError):
            leg_unitary(ModelSpace(2, 2, 1), ProductGroupElement((1, 0), ()))

    def test_group_action(self):
        sp = ModelSpace(2, 2, 0)
        a = rand_mat(sp.dim)
        g = ProductGroupElement((1, 0), ())
        h = ProductGroupElement((1, 0), ())
        lhs = theta_apply(sp, g, theta_apply(sp, h, a))
        rhs = theta_apply(sp, g.compose(h), a)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_multiplicative(self):
        sp = ModelSpace(2, 2, 0)
        a, b = rand_mat(sp.dim), rand_mat(sp.dim)
        g = ProductGroupElement((1, 0), ())
        lhs = theta_apply(sp, g, a @ b)
        rhs = theta_apply(sp, g, a) @ theta_apply(sp, g, b)
        assert np.allclose(lhs, rhs, atol=1e-10)


# -- crossed operator algebra -----------------------------------------------------


class TestCrossedAlgebra:
    SP = ModelSpace(2, 2, 0)

    def test_block_validation(self):
        with pytest.raises(ValueError):
            CrossedOperator(self.SP, {ProductGroupElement((1, 0), ()): np.eye(3)})
        with pytest.raises(ValueError):
            CrossedOperator(self.SP, {ProductGroupElement((0,), ()): np.eye(16)})

    def test_zero_blocks_dropped(self):
        op = CrossedOperator(self.SP, {ProductGroupElement.identity(2, 0): np.zeros((16, 16))})
        assert op.blocks == {}
        assert op.max_block_norm() == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)], ids=repr)
    def test_non_finite_block_rejected(self, bad):
        blk = np.eye(16, dtype=np.complex128)
        blk[3, 5] = bad
        with pytest.raises(NumericError):
            CrossedOperator(self.SP, {ProductGroupElement((1, 0), ()): blk})
        with pytest.raises(NumericError):
            CrossedOperator.embed(self.SP, np.full((16, 16), bad))

    @pytest.mark.parametrize("c", [np.nan, np.inf, complex(0.0, np.nan)], ids=repr)
    def test_non_finite_scale_rejected(self, c):
        x = CrossedOperator.embed(self.SP, np.eye(16))
        with pytest.raises(NumericError):
            x.scale(c)
        with pytest.raises(NumericError):
            c * x

    def test_shift_homomorphism(self):
        g = ProductGroupElement((1, 0), ())
        h = ProductGroupElement((1, 0), ())
        lhs = CrossedOperator.shift(self.SP, g) @ CrossedOperator.shift(self.SP, h)
        rhs = CrossedOperator.shift(self.SP, g.compose(h))
        assert (lhs - rhs).max_block_norm() < 1e-12

    def test_shift_unitary(self):
        g = ProductGroupElement((1, 0), ())
        lam = CrossedOperator.shift(self.SP, g)
        ident = CrossedOperator.embed(self.SP, np.eye(16))
        assert (lam.adjoint() @ lam - ident).max_block_norm() < 1e-12

    def test_covariance_relation(self):
        # lambda_g Pi(a) lambda_g* = Pi(theta_g(a))
        a = rand_mat(16)
        g = ProductGroupElement((1, 0), ())
        lam = CrossedOperator.shift(self.SP, g)
        lhs = lam @ CrossedOperator.embed(self.SP, a) @ lam.adjoint()
        rhs = CrossedOperator.embed(self.SP, theta_apply(self.SP, g, a))
        assert (lhs - rhs).max_block_norm() < 1e-10

    def test_embed_is_homomorphism(self):
        a, b = rand_mat(16), rand_mat(16)
        lhs = CrossedOperator.embed(self.SP, a).multiply(CrossedOperator.embed(self.SP, b))
        rhs = CrossedOperator.embed(self.SP, a @ b)
        assert (lhs - rhs).max_block_norm() < 1e-10

    def test_space_mismatch(self):
        other = CrossedOperator.embed(ModelSpace(2, 1, 1), np.eye(16))
        mine = CrossedOperator.embed(self.SP, np.eye(16))
        with pytest.raises(ValueError):
            mine @ other

    def test_linear_ops(self):
        x = rand_crossed(self.SP)
        y = rand_crossed(self.SP)
        assert ((x + y) - y - x).max_block_norm() < 1e-12
        assert (2.0 * x - x.scale(2.0)).max_block_norm() == 0.0
        assert (x * 0.0).max_block_norm() == 0.0


class TestDenseRepresentation:
    SP = ModelSpace(2, 2, 0)

    def test_multiplicative(self):
        rng = np.random.default_rng(31)
        for _ in range(4):
            x = rand_crossed(self.SP, rng)
            y = rand_crossed(self.SP, rng)
            lhs = (x @ y).to_dense_l2()
            rhs = x.to_dense_l2() @ y.to_dense_l2()
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_adjoint(self):
        x = rand_crossed(self.SP)
        assert np.abs(x.adjoint().to_dense_l2() - x.to_dense_l2().conj().T).max() < 1e-10

    def test_additive(self):
        x, y = rand_crossed(self.SP), rand_crossed(self.SP)
        assert np.abs((x + y).to_dense_l2() - x.to_dense_l2() - y.to_dense_l2()).max() < 1e-12

    def test_faithful(self):
        x = rand_crossed(self.SP)
        assert np.abs(x.to_dense_l2()).max() > 0
        assert np.abs(CrossedOperator.zero(self.SP).to_dense_l2()).max() == 0.0

    def test_tau_hat_is_dense_trace(self):
        x = rand_crossed(self.SP)
        dense = x.to_dense_l2()
        assert x.tau_hat() == pytest.approx(np.trace(dense) / dense.shape[0])

    def test_tau_hat_tracial(self):
        rng = np.random.default_rng(77)
        for _ in range(4):
            x = rand_crossed(self.SP, rng)
            y = rand_crossed(self.SP, rng)
            assert (x @ y).tau_hat() == pytest.approx((y @ x).tau_hat(), abs=1e-10)

    def test_tau_hat_positive_definite(self):
        x = rand_crossed(self.SP)
        val = (x.adjoint() @ x).tau_hat()
        assert val.imag == pytest.approx(0.0, abs=1e-12)
        assert val.real > 1e-8

    def test_cap(self):
        sp = ModelSpace(3, 2, 2)
        with pytest.raises(CapExceededError):
            CrossedOperator.embed(sp, np.eye(sp.dim)).to_dense_l2()


# -- center -------------------------------------------------------------------------


class TestCenter:
    def test_trivial_group(self):
        basis, witnesses = center_basis(ModelSpace(2, 1, 1))
        assert basis.dim == len(witnesses) == 1

    def test_two_leg_center(self):
        sp = ModelSpace(2, 2, 0)
        basis, witnesses = center_basis(sp)
        assert basis.dim == len(witnesses) == 2
        # identity-class witness is the fiberwise identity
        ident = CrossedOperator.embed(sp, np.eye(sp.dim))
        assert (witnesses[0] - ident).max_block_norm() < 1e-12
        # the other carries the swap unitary on the swap shift
        swap = ProductGroupElement((1, 0), ())
        blk = witnesses[1].blocks[swap]
        assert np.allclose(blk, leg_perm_dense(sp, swap.combined()))

    def test_witnesses_commute_with_samples(self):
        sp = ModelSpace(2, 2, 0)
        _, witnesses = center_basis(sp)
        g = ProductGroupElement((1, 0), ())
        probes = [
            CrossedOperator.embed(sp, rand_mat(sp.dim)),
            CrossedOperator.shift(sp, g),
            rand_crossed(sp),
        ]
        for w in witnesses:
            for x in probes:
                assert (w @ x - x @ w).max_block_norm() < 1e-8

    def test_class_counts_drive_dimension(self):
        basis, _ = center_basis(ModelSpace(2, 2, 1))
        assert basis.dim == len(group_conjugacy_classes(2, 1)) == 2

    def test_three_leg_center(self):
        basis, witnesses = center_basis(ModelSpace(2, 3, 0))
        assert basis.dim == len(witnesses) == len(group_conjugacy_classes(3, 0)) == 3

    def test_split_class_is_not_central(self, monkeypatch):
        # the sum over one transposition of S_3 is not a class sum
        def split(p, q):
            out = []
            for cls in group_conjugacy_classes(p, q):
                out += [cls[:1], cls[1:]] if len(cls) == 3 else [cls]
            return out

        monkeypatch.setattr(crossed, "group_conjugacy_classes", split)
        with pytest.raises(NumericError):
            center_basis(ModelSpace(2, 3, 0))

    @pytest.mark.parametrize("shape", [(2, 3, 0), (2, 2, 1)])
    def test_basis_is_the_normalized_class_sums(self, shape):
        # the Gram matrix read off the blocks scales each dense witness
        # to unit norm under hs_inner
        basis, witnesses = center_basis(ModelSpace(*shape))
        assert basis.gram_defect() < 1e-12
        for b, w in zip(basis.elements, witnesses):
            dense = w.to_dense_l2()
            assert np.abs(b - dense * math.sqrt(b.shape[0] / np.vdot(dense, dense).real)).max() < 1e-14

    def test_duplicate_class_is_not_independent(self, monkeypatch):
        # a repeated class sum is central but overlaps its twin: the block
        # Gram matrix has an off-diagonal entry equal to the diagonal ones
        def doubled(p, q):
            classes = group_conjugacy_classes(p, q)
            return classes + classes[-1:]

        monkeypatch.setattr(crossed, "group_conjugacy_classes", doubled)
        with pytest.raises(NumericError, match="not orthogonal"):
            center_basis(ModelSpace(2, 3, 0))

    @pytest.mark.parametrize("shape", [(2, 2, 0), (2, 1, 1)])
    def test_block_commutator_entry_is_the_dense_one(self, shape):
        # the block-form check of center_basis reads the largest entry of
        # the dense commutator from its blocks
        sp = ModelSpace(*shape)
        rng = np.random.default_rng(41)
        for _ in range(3):
            x, y = rand_crossed(sp, rng), rand_crossed(sp, rng)
            comm = x @ y - y @ x
            assert comm.max_entry() == np.abs(comm.to_dense_l2()).max()
            xd, yd = x.to_dense_l2(), y.to_dense_l2()
            dense = np.abs(xd @ yd - yd @ xd).max()
            assert comm.max_entry() == pytest.approx(dense, rel=1e-12)
            assert x.max_entry() == np.abs(xd).max()

    def test_l2_probes_densify_the_block_probes(self):
        sp = ModelSpace(2, 2, 0)
        dense = l2_probes(sp, np.random.default_rng(3))
        blocks = crossed._probes(sp, np.random.default_rng(3))
        assert len(dense) == len(blocks) == 5
        for d, b in zip(dense, blocks):
            assert np.array_equal(d, b.to_dense_l2())

    def test_cap(self):
        with pytest.raises(CapExceededError):
            center_basis(ModelSpace(3, 2, 2))


def averaged_samples(space, samples, rng):
    """Group averages of random fiber elements, as compression_check draws them."""
    elems = group_elements(space.p, space.q)
    return [sum(theta_apply(space, g, a) for g in elems) / len(elems)
            for a in (rand_mat(space.dim, rng) for _ in range(samples))]


def dense_relation_defects(space, samples, seed):
    """compression_check's relation defects as it took them before block
    form, from dense products of the l2(G, H) matrices: the reference
    for the block route."""
    elems = group_elements(space.p, space.q)
    n, d = len(elems), space.dim
    rng = np.random.default_rng(seed)
    lams = [CrossedOperator.shift(space, g).to_dense_l2() for g in elems]
    pmat = sum(lams) / n
    projection_defect = max(float(np.abs(x).max()) for x in (pmat @ pmat - pmat, pmat.conj().T - pmat))
    shift_defect = max(float(np.abs(pmat @ lam @ pmat - pmat).max()) for lam in lams)
    average_defect = 0.0
    for _ in range(samples):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        abar = sum(theta_apply(space, g, a) for g in elems) / n
        lhs = pmat @ CrossedOperator.embed(space, a).to_dense_l2() @ pmat
        rhs = CrossedOperator.embed(space, abar).to_dense_l2() @ pmat
        average_defect = max(average_defect, float(np.abs(lhs - rhs).max()))
    return projection_defect, shift_defect, average_defect


def burnside_target(N, p, q):
    return algebra_tools.fixed_point_dimension(p, N * N) * algebra_tools.fixed_point_dimension(q, N * N)


class TestCompression:
    def test_two_leg_values(self):
        rep = compression_check(ModelSpace(2, 2, 0), samples=12)
        assert rep.passed and rep.certified_stop
        assert rep.fixed_dim_span == rep.fixed_dim_commutant == 136
        assert max(rep.projection_defect, rep.shift_defect, rep.average_defect) <= 1e-10

    def test_trivial_group_projection_is_identity(self):
        rep = compression_check(ModelSpace(2, 1, 1), samples=6)
        assert rep.passed
        assert rep.fixed_dim_span == rep.fixed_dim_commutant == 256
        assert rep.projection_defect <= 1e-12

    def test_cap(self):
        with pytest.raises(CapExceededError):
            compression_check(ModelSpace(3, 2, 2))

    @pytest.mark.parametrize("N,p,q", [(2, 1, 1), (2, 2, 0), (2, 2, 1), (2, 3, 0)])
    def test_block_relations_match_the_dense_route(self, N, p, q, monkeypatch):
        # only the relations are under test: the closure is replaced by an empty one
        monkeypatch.setattr(crossed, "_fixed_closure", lambda space, mats, target: ([], False))
        space = ModelSpace(N, p, q)
        rep = compression_check(space, samples=12, seed=0xC0DA)
        got = (rep.projection_defect, rep.shift_defect, rep.average_defect)
        want = dense_relation_defects(space, 12, 0xC0DA)
        assert np.abs(np.subtract(got, want)).max() <= 1e-15
        assert max(got) <= 1e-10

    @pytest.mark.parametrize("N,p,q", [(2, 1, 0), (2, 2, 0), (2, 1, 1), (2, 2, 1), (2, 3, 0)])
    def test_leg_commutant_dim_by_block_structure(self, N, p, q):
        # a leg's operators form C^(N^4), and the operators commuting
        # with the side permutations are Sym^p (x) Sym^q of it
        sp = ModelSpace(N, p, q)
        legs = [leg_unitary(sp, g) for g in group_elements(p, q)]
        _, _, fixed_dim = algebra_tools.block_structure(legs)
        D = N**4
        assert fixed_dim == comb(D + p - 1, p) * comb(D + q - 1, q)

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("p,q", [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (2, 2), (3, 1)])
    def test_burnside_class_sum_is_the_closed_form(self, N, p, q):
        # the commutant of g -> U_g has dimension (1/|G|) sum_g |tr U_g|^2,
        # and tr U_g = N^(2 cycles(g)) on legs of dimension N^2
        total = sum(len(cls) * N ** (4 * sum(map(len, cls[0].class_key())))
                    for cls in group_conjugacy_classes(p, q))
        order = factorial(p) * factorial(q)
        assert total % order == 0
        assert total // order == burnside_target(N, p, q)

    def test_burnside_hand_checks(self):
        assert (burnside_target(2, 2, 0), burnside_target(2, 3, 0)) == (136, 816)

    @pytest.mark.parametrize("N,p,q,samples", [
        (2, 1, 0, 12), (2, 2, 0, 12), (2, 2, 0, 20), (2, 1, 1, 12), (3, 1, 0, 12), (2, 0, 2, 12)])
    def test_stopped_basis_is_the_full_closure(self, N, p, q, samples):
        space = ModelSpace(N, p, q)
        mats = averaged_samples(space, samples, np.random.default_rng(samples)) + [np.eye(space.dim)]
        # span_closure's multipliers: each generator and its adjoint
        start, mults = np.eye(space.dim), mats + [g.conj().T for g in mats]
        target = burnside_target(N, p, q)
        full, full_rounds = algebra_tools._closure(start, mults, algebra_tools.CLOSURE_ROUNDS)
        stopped, rounds = algebra_tools._closure(start, mults, algebra_tools.CLOSURE_ROUNDS, target)
        assert len(full) == target
        assert np.array_equal(stopped, full)
        assert rounds < full_rounds
        basis, certified = crossed._fixed_closure(space, mats[:-1], target)
        assert certified and np.array_equal(basis, full)

    @pytest.mark.parametrize("N,p,q", [(2, 2, 0), (2, 0, 2)])
    @pytest.mark.parametrize("where", [0, -1])
    def test_unaveraged_sample_raises(self, N, p, q, where):
        # one raw sample generates all of M_d, past the fixed-point count
        space, rng = ModelSpace(N, p, q), np.random.default_rng(7)
        mats = averaged_samples(space, 12, rng)
        mats.insert(where % (len(mats) + 1), rand_mat(space.dim, rng))
        with pytest.raises(NumericError):
            crossed._fixed_closure(space, mats, burnside_target(N, p, q))

    def test_stop_on_a_moved_row_raises(self):
        # a generic diagonal generates the 16 diagonal matrices, which the
        # leg swap moves: a closure that stops at 16 rows is not certified
        space = ModelSpace(2, 2, 0)
        diag = np.diag(np.arange(1.0, space.dim + 1))
        with pytest.raises(NumericError, match="moves"):
            crossed._fixed_closure(space, [diag], space.dim)

    def test_disagreeing_counts_run_the_full_closure(self, monkeypatch):
        block_structure, closure = algebra_tools.block_structure, algebra_tools._closure
        targets, rounds = [], []

        def off_by_one(gens, rng=None):
            blocks, dim_alg, dim_comm = block_structure(gens, rng)
            return blocks, dim_alg, dim_comm + 1

        def spy(start, mults, max_rounds, target=None):
            basis, r = closure(start, mults, max_rounds, target)
            targets.append(target)
            rounds.append(r)
            return basis, r

        monkeypatch.setattr(crossed, "block_structure", off_by_one)
        monkeypatch.setattr(crossed, "_closure", spy)
        rep = compression_check(ModelSpace(2, 2, 0), samples=12)
        assert targets == [None]
        assert not rep.certified_stop and not rep.passed
        assert (rep.fixed_dim_span, rep.fixed_dim_commutant) == (136, 137)
        monkeypatch.setattr(crossed, "block_structure", block_structure)
        assert compression_check(ModelSpace(2, 2, 0), samples=12).certified_stop
        assert targets == [None, 136] and rounds[1] < rounds[0]


# -- complementary trace table ---------------------------------------------------------


class TestTauPrime:
    def test_weight_two_values(self):
        lam = Partition((2,))
        mu = Partition(())
        vals = trace_tau_prime(lam, mu)
        assert vals.from_delta_trace == Fraction(1, 2)
        assert vals.dim_linear == Fraction(1, 2)

    def test_hook_partition_disagreement(self):
        vals = trace_tau_prime(Partition((2, 1)), Partition(()))
        assert vals.from_delta_trace == Fraction(2, 3)
        assert vals.dim_linear == Fraction(1, 3)

    def test_mixed_weights(self):
        vals = trace_tau_prime(Partition((2, 1)), Partition((1, 1)))
        # dims 2 and 1, order 3! * 2! = 12
        assert vals.from_delta_trace == Fraction(4, 12)
        assert vals.dim_linear == Fraction(2, 12)

    def test_table_rows_and_classes(self):
        rows = tau_prime_table(3, 0)
        assert len(rows) == 3
        by_lam = {r.lam.parts: r for r in rows}
        assert by_lam[(3,)].equiv_class == by_lam[(1, 1, 1)].equiv_class
        assert by_lam[(2, 1)].equiv_class != by_lam[(3,)].equiv_class
        assert by_lam[(2, 1)].tau_delta_trace != by_lam[(2, 1)].tau_dim_linear

    def test_class_matches_criterion(self):
        rows = tau_prime_table(3, 2)
        assert len(rows) == 3 * 2
        for a in rows:
            for b in rows:
                same = a.equiv_class == b.equiv_class
                assert same == equivalence_criterion(a.lam, a.mu, b.lam, b.mu)

    def test_criterion_weight_mismatch(self):
        with pytest.raises(ValueError):
            equivalence_criterion(
                Partition((2,)), Partition(()), Partition((3,)), Partition(())
            )


class TestTraceInequality:
    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            trace_inequality_check(
                ProductGroupElement.identity(2, 0), [[np.eye(2)] * 2], 2
            )

    def test_transposition_equality_at_identity(self):
        s = ProductGroupElement((1, 0), ())
        rep = trace_inequality_check(s, [[np.eye(2), np.eye(2)]], 2)
        assert rep.max_abs_trace == pytest.approx(0.5)
        assert rep.equality_attained and rep.all_within

    def test_three_cycle_value(self):
        s = ProductGroupElement((1, 2, 0), ())
        rep = trace_inequality_check(s, [[np.eye(2)] * 3], 2)
        assert rep.max_abs_trace == pytest.approx(0.25)
        assert not rep.equality_attained

    def test_orthogonal_pair_vanishes(self):
        s = ProductGroupElement((1, 0), ())
        rep = trace_inequality_check(s, [[np.diag([1.0, -1.0]), np.eye(2)]], 2)
        assert rep.max_abs_trace == 0.0

    def test_haar_samples_within_bound(self):
        rng = np.random.default_rng(404)
        s = ProductGroupElement((1, 0), (0,))
        tuples = [[haar_unitary(2, rng) for _ in range(3)] for _ in range(50)]
        rep = trace_inequality_check(s, tuples, 2)
        assert rep.all_within
        assert rep.samples == 50

    def test_tuple_length_validated(self):
        s = ProductGroupElement((1, 0), ())
        with pytest.raises(ValueError):
            trace_inequality_check(s, [[np.eye(2)]], 2)

    def test_matrix_size_validated(self):
        # 3 x 3 identities at N = 2 read as a false violation, 0.75 > 0.5
        s = ProductGroupElement((1, 0), ())
        with pytest.raises(ValueError, match="2x2"):
            trace_inequality_check(s, [[np.eye(3), np.eye(3)]], 2)
        with pytest.raises(ValueError, match=r"\(2,\)"):
            trace_inequality_check(s, [[np.eye(2), np.ones(2)]], 2)


# -- the one dense cap ------------------------------------------------------------


SMALL_SPACE = ModelSpace(2, 1, 1)  # dimension 16, and 16 on l2(G, H): |G| = 1
CAP_ENTRY_POINTS = {
    "to_dense": (lambda: StructuredOperator.identity(SMALL_SPACE).to_dense(), "dense"),
    "span_closure": (lambda: algebra_tools.span_closure([np.eye(16)]), "acting"),
    "fixed_point_basis": (lambda: algebra_tools.fixed_point_basis(2, 2), "model"),
    "relative_gap": (lambda: algebra_tools.relative_gap(1, 1, 2), "model"),
    "span_growth_check": (lambda: algebra_tools.span_growth_check(2, 2), "model"),
    "to_dense_l2": (
        lambda: CrossedOperator.embed(SMALL_SPACE, np.eye(16)).to_dense_l2(), "l2"),
    "center_basis": (lambda: center_basis(SMALL_SPACE), "l2"),
    "compression_check": (lambda: compression_check(SMALL_SPACE), "l2"),
}


@pytest.mark.parametrize("entry", sorted(CAP_ENTRY_POINTS))
def test_every_dense_entry_point_obeys_the_cap(entry, monkeypatch):
    call, what = CAP_ENTRY_POINTS[entry]
    call()  # runs under the default cap
    monkeypatch.setattr(legops, "DENSE_CAP", 8)
    with pytest.raises(CapExceededError, match=f"^{what} dimension 16 exceeds cap 8$"):
        call()

"""Acceptance gate: twelve numbered end-to-end checks.

Each test prints exactly one ``[Cnn] PASS`` or ``[Cnn] FAIL`` line
(run with ``pytest tests/test_acceptance.py -v -s`` to see all of
them) and then asserts the same verdict, so the pytest outcome and the
printed line always agree.

C03 and C05 state what is true of the exact Haar averages; README.md
("What C03 and C05 state") carries the analysis:

* C03: the mixed left/right pair average P is an exact orthogonal
  projection (P* = P, P^2 = P) with normalized trace 1/N^2, so the
  scaled relation P^2 = P/N is off by exactly (1 - 1/N)/N.
* C05: the residual against the difference form has operator norm
  |tau(a)| + sqrt(tau(a^2)), which does not shrink with N; what decays
  as 1/N is the 2-norm of the averaged cross-leg remainder, exactly
  sqrt(2 (tau(a)^2 + tau(a^2))) / N.
"""

import math
import time

import numpy as np
import pytest

from duallab.algebra_tools import (
    fixed_point_dimension,
    generated_algebra_dim,
    relative_gap,
    span_growth_check,
)
from duallab.crossed import (
    CrossedOperator,
    ProductGroupElement,
    center_basis,
    group_elements,
    tau_prime_table,
    theta_apply,
    trace_inequality_check,
)
from duallab.duality_core import (
    HaarConfig,
    SubfactorTower,
    conditional_expectation,
    haar_pair_average_exact,
    haar_pair_average_mc,
    haar_unitary,
    limit_formula_check,
    sigma_residual,
    spectral_binning,
    t_minus,
    t_mixed,
    t_plus,
    young_projection,
)
from duallab.legops import ModelSpace, StructuredOperator
from duallab.symcomb import (
    CharacterTable,
    CycleType,
    dimension,
    enumerate_partitions,
)


def _verdict(num: int, ok: bool) -> bool:
    print(f"[C{num:02d}] {'PASS' if ok else 'FAIL'}")
    return ok


def _rand_herm(rng, n, unit=False):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (z + z.conj().T) / 2
    return h / np.linalg.norm(h, 2) if unit else h


def test_c01_symmetric_group_suite():
    t0 = time.perf_counter()
    ok = True
    for p in range(1, 7):
        table = CharacterTable.build(p)
        ident = table.classes.index(CycleType((1,) * p))
        dims = [row[ident] for row in table.values]
        ok = ok and dims == [dimension(lam) for lam in table.partitions]
        ok = ok and sum(d * d for d in dims) == math.factorial(p)
        ok = ok and table.column_orthogonality_defect() == 0
        # row orthogonality in exact integers
        fact = math.factorial(p)
        for i, row_i in enumerate(table.values):
            for j, row_j in enumerate(table.values):
                lhs = sum(
                    s * a * b
                    for s, a, b in zip(table.class_sizes, row_i, row_j)
                )
                ok = ok and lhs == (fact if i == j else 0)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    assert _verdict(1, ok), f"elapsed={elapsed:.2f}s"


def test_c02_young_projection_properties():
    t0 = time.perf_counter()
    tol = 1e-10
    worst = 0.0
    rng = np.random.default_rng(0x02)
    for N in (2, 3):
        for p in (1, 2, 3, 4):
            sp = ModelSpace(N, p, 0)
            projs = [young_projection(sp, lam) for lam in enumerate_partitions(p)]
            tp = t_plus(sp, _rand_herm(rng, N))
            for i, P in enumerate(projs):
                worst = max(worst, (P.adjoint() - P).hs_norm())
                worst = max(worst, (P @ P - P).hs_norm())
                worst = max(worst, (P @ tp - tp @ P).hs_norm())
                for Q in projs[i + 1 :]:
                    worst = max(worst, (P @ Q).hs_norm())
            total = StructuredOperator.zero(sp)
            for P in projs:
                total = total + P
            worst = max(worst, (total - StructuredOperator.identity(sp)).hs_norm())
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and elapsed < 30.0
    assert _verdict(2, ok), f"worst defect={worst:.3e}, elapsed={elapsed:.2f}s"


def test_c03_haar_matrix_unit_relations():
    # the mixed pair average P is an orthogonal projection of normalized
    # trace 1/N^2, so P^2 = P/N misses by exactly (1 - 1/N)/N
    tol = 1e-12
    square_ok = True
    projection_ok = True
    for N in (2, 3, 4):
        sp = ModelSpace(N, 1, 1)
        ident = StructuredOperator.identity(sp)
        T = haar_pair_average_exact(sp, 0, 1, "ll")
        square_ok = square_ok and (T @ T - ident.scale(1.0 / N**2)).hs_norm() <= tol
        P = haar_pair_average_exact(sp, 0, 1, "lr")
        PP = P @ P
        projection_ok = (
            projection_ok
            and (P.adjoint() - P).hs_norm() <= tol
            and (PP - P).hs_norm() <= tol
            and abs(P.normalized_trace() - 1.0 / N**2) <= tol
            and abs((PP - P.scale(1.0 / N)).hs_norm() - (1.0 - 1.0 / N) / N) <= tol
        )
    mc_ok = True
    for N in (2, 3, 4):
        sp = ModelSpace(N, 1, 1)
        for mode in ("ll", "lr"):
            exact = haar_pair_average_exact(sp, 0, 1, mode).to_dense().matrix
            mc = haar_pair_average_mc(sp, 0, 1, mode, HaarConfig(samples=10_000, seed=300 + N, N=N))
            diff = float(np.linalg.norm(mc.mean.matrix - exact))
            mc_ok = mc_ok and diff <= 3 * mc.stderr
    ok = square_ok and projection_ok and mc_ok
    assert _verdict(3, ok), (
        f"square_ok={square_ok}, projection_ok={projection_ok}, mc_ok={mc_ok}"
    )


def test_c04_product_identity_exact():
    tol = 1e-10
    rng = np.random.default_rng(0x04)
    worst = 0.0
    for N, p, q in [(2, 1, 1), (2, 2, 1), (3, 1, 1)]:
        sp = ModelSpace(N, p, q)
        for _ in range(20):
            a = _rand_herm(rng, N)
            u = haar_unitary(N, rng)
            resid = (
                t_mixed(sp, a @ u.conj().T) @ t_mixed(sp, u)
                - t_plus(sp, a)
                - t_minus(sp, u @ a @ u.conj().T)
                - sigma_residual(sp, a, u)
            )
            worst = max(worst, resid.hs_norm())
    ok = worst <= tol
    assert _verdict(4, ok), f"worst defect={worst:.3e}"


def test_c05_limit_formula_envelope_and_decay():
    # at p = q = 1 on the full group, with t = tau(a) and s = tau(a^2):
    # the residual has operator norm |t| + sqrt(s), which does not decay,
    # and the averaged cross-leg remainder has 2-norm sqrt(2(t^2 + s))/N
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xACC5)
    scaled = {}
    bounds_ok = True
    op_norm_ok = True
    sigma_ok = True
    for N in (2, 4, 8):
        a = _rand_herm(rng, N, unit=True)
        t = np.trace(a).real / N
        s = np.trace(a @ a).real / N
        rep = limit_formula_check(ModelSpace(N, 1, 1), a)
        bounds_ok = bounds_ok and rep.residual_op_norm <= rep.stated_bound
        op_norm = abs(t) + math.sqrt(s)
        op_norm_ok = op_norm_ok and (
            abs(rep.residual_op_norm - op_norm) <= 1e-10 * op_norm
        )
        sigma_scale = math.sqrt(2 * (t * t + s))
        sigma_ok = sigma_ok and (
            abs(N * rep.sigma_average_hs_norm - sigma_scale) <= 1e-10
        )
        scaled[N] = rep.sigma_average_hs_norm / sigma_scale
    ratios = (scaled[4] / scaled[2], scaled[8] / scaled[4])
    decay_ok = all(0.4 <= r <= 0.6 for r in ratios)
    elapsed = time.perf_counter() - t0
    ok = bounds_ok and op_norm_ok and sigma_ok and decay_ok and elapsed < 120.0
    assert _verdict(5, ok), (
        f"bounds_ok={bounds_ok}, op_norm_ok={op_norm_ok}, sigma_ok={sigma_ok}, "
        f"ratios={ratios[0]:.3f},{ratios[1]:.3f} (required in [0.4, 0.6]), "
        f"elapsed={elapsed:.1f}s"
    )


def test_c06_conditional_expectation_tower():
    tol = 1e-10
    rng = np.random.default_rng(0x06)
    worst = 0.0
    for N in (4, 8):
        tower = SubfactorTower.for_leg_size(N)
        for level in (1, 2):
            D = 2**level
            K = N // D
            x = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            e = conditional_expectation(tower, level, x)
            worst = max(worst, abs(np.trace(e) - np.trace(x)))
            y = np.kron(np.eye(D), rng.standard_normal((K, K)))
            worst = max(
                worst,
                np.abs(
                    conditional_expectation(tower, level, y @ x)
                    - y @ conditional_expectation(tower, level, x)
                ).max(),
            )
            worst = max(
                worst,
                np.abs(
                    conditional_expectation(tower, level, x @ y)
                    - conditional_expectation(tower, level, x) @ y
                ).max(),
            )
        # at the top of the tower the expectation is the scalar trace
        a = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        top = conditional_expectation(tower, tower.levels, a)
        worst = max(worst, np.abs(top - (np.trace(a) / N) * np.eye(N)).max())
    ok = worst <= tol
    assert _verdict(6, ok), f"worst defect={worst:.3e}"


def test_c07_fixed_point_dimensions():
    t0 = time.perf_counter()
    ok = True
    for p, N in [(2, 2), (3, 2), (2, 3)]:
        sp = ModelSpace(N, p, 0)
        gens = []
        for i in range(N):
            for j in range(N):
                e = np.zeros((N, N))
                e[i, j] = 1.0
                gens.append(t_plus(sp, e))
        dim, _ = generated_algebra_dim(gens)
        want = fixed_point_dimension(p, N)
        rep = span_growth_check(p, N)
        ok = ok and dim == want and rep.cyclic_dim == want and rep.agree
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    assert _verdict(7, ok), f"elapsed={elapsed:.1f}s"


def test_c08_relative_gap_decreasing():
    reps = {N: relative_gap(1, 1, N) for N in (2, 3, 4)}
    dims_ok = (
        reps[2].generated_dim == 10
        and reps[3].generated_dim == 65
        and reps[4].generated_dim == 226
        and reps[2].fixed_dim == 16
        and reps[3].fixed_dim == 81
        and reps[4].fixed_dim == 256
    )
    oracle_ok = all(
        reps[N].generated_dim == N**4 - 2 * N**2 + 2 for N in (2, 3, 4)
    )
    gaps = [reps[N].relative_gap for N in (2, 3, 4)]
    ok = dims_ok and oracle_ok and gaps[0] > gaps[1] > gaps[2]
    assert _verdict(8, ok), f"gaps={gaps}"


def test_c09_trace_inequality():
    rng = np.random.default_rng(0x09)
    cases = [
        (ProductGroupElement((1, 0), ()), 2),
        (ProductGroupElement((1, 0), ()), 3),
        (ProductGroupElement((1, 2, 0), ()), 2),
        (ProductGroupElement((1, 2, 0), ()), 3),
        (ProductGroupElement((1, 0), (0,)), 2),
        (ProductGroupElement((1, 0), (0,)), 3),
    ]
    ok = True
    for s, N in cases:
        m = len(s.combined())
        tuples = [[np.eye(N)] * m]
        tuples += [[haar_unitary(N, rng) for _ in range(m)] for _ in range(99)]
        rep = trace_inequality_check(s, tuples, N)
        ok = ok and rep.all_within
        if s.s == (1, 0):  # transposition: identity tuple attains 1/N
            ok = ok and rep.equality_attained
            ok = ok and abs(rep.max_abs_trace - 1.0 / N) <= 1e-12
    assert _verdict(9, ok)


def test_c10_crossed_product_suite():
    tol = 1e-10
    rng = np.random.default_rng(0x10)
    sp = ModelSpace(2, 2, 0)
    worst = 0.0
    elems = group_elements(2, 0)
    for g in elems:
        lam = CrossedOperator.shift(sp, g)
        ident = CrossedOperator.embed(sp, np.eye(sp.dim))
        worst = max(worst, (lam.adjoint() @ lam - ident).max_block_norm())
        a = rng.standard_normal((sp.dim, sp.dim)) + 1j * rng.standard_normal(
            (sp.dim, sp.dim)
        )
        cov = lam @ CrossedOperator.embed(sp, a) @ lam.adjoint()
        worst = max(
            worst,
            (cov - CrossedOperator.embed(sp, theta_apply(sp, g, a))).max_block_norm(),
        )
    relations_ok = worst <= tol

    def rand_crossed():
        return CrossedOperator(
            sp,
            {
                g: rng.standard_normal((sp.dim, sp.dim))
                + 1j * rng.standard_normal((sp.dim, sp.dim))
                for g in elems
            },
        )

    tracial = max(
        abs((x @ y).tau_hat() - (y @ x).tau_hat())
        for x, y in [(rand_crossed(), rand_crossed()) for _ in range(5)]
    )
    faithful = min(
        (x.adjoint() @ x).tau_hat().real for x in [rand_crossed() for _ in range(5)]
    )
    trace_ok = tracial <= tol and faithful > 1e-8

    trivial_dim = center_basis(ModelSpace(2, 1, 1))[0].dim
    recorded_dim = center_basis(sp)[0].dim
    center_ok = trivial_dim == 1 and recorded_dim == 2

    ok = relations_ok and trace_ok and center_ok
    assert _verdict(10, ok), (
        f"relations worst={worst:.3e}, tracial defect={tracial:.3e}, "
        f"min tau(x*x)={faithful:.3e}, center dims=({trivial_dim},{recorded_dim})"
    )


def test_c11_complementary_trace_table():
    ok = True
    for p in range(0, 4):
        for q in range(0, 4):
            if p == q == 0:
                continue
            rows = tau_prime_table(p, q)
            for a in rows:
                for b in rows:
                    same_class = a.equiv_class == b.equiv_class
                    same_product = a.dim_lam * a.dim_mu == b.dim_lam * b.dim_mu
                    ok = ok and same_class == same_product
                    if same_class:
                        ok = ok and a.tau_dim_linear == b.tau_dim_linear
    # the hook row carries both candidate normalizations; they disagree
    # and the table must keep both rather than pick one silently
    from fractions import Fraction

    hook = next(
        r for r in tau_prime_table(3, 0) if r.lam.parts == (2, 1)
    )
    reported = (hook.tau_delta_trace, hook.tau_dim_linear)
    ok = ok and reported == (Fraction(2, 3), Fraction(1, 3))
    print(
        f"  note: (2,1) row keeps both normalizations: "
        f"delta-trace {reported[0]} vs dimension-linear {reported[1]}"
    )
    assert _verdict(11, ok), f"hook row values={reported}"


def test_c12_spectral_binning_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0x12)
    ok = True
    for _ in range(50):
        n = int(rng.integers(4, 17))
        A = _rand_herm(rng, n)
        for eps in (0.3, 0.1, 0.03):
            a_eps, _, _ = spectral_binning(A, eps)
            # exact operator norm of the Hermitian difference
            ok = ok and float(np.linalg.norm(A - a_eps, 2)) < eps
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    assert _verdict(12, ok), f"elapsed={elapsed:.2f}s"

"""Named, reproducible verification experiments over the whole package.

Each experiment is a pure function from a resolved configuration to a
list of named checks; the registry at the bottom binds names, default
parameters and the heavier full-suite parameters.  Every check predicts
the value the mathematics actually produces, so a failing check means a
broken implementation rather than a known limitation.

Determinism contract: for a fixed (experiment, N, p, q, seed, samples)
the produced report body is byte-identical across runs.  All randomness
flows through a generator seeded from ``derive_seed`` on the config
seed and the experiment name; wall-clock duration stays outside the
canonical body.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .algebra_tools import (
    block_structure,
    commutant_basis,
    fixed_point_dimension,
    generated_algebra_dim,
    left_average_generators,
    relative_gap,
    span_growth_check,
)
from .crossed import (
    CrossedOperator,
    ProductGroupElement,
    center_basis,
    compression_check,
    equivalence_criterion,
    group_elements,
    l2_probes,
    tau_prime_table,
    trace_inequality_check,
)
from .duality_core import (
    HaarConfig,
    SubfactorTower,
    conditional_expectation,
    haar_pair_average_exact,
    haar_pair_average_mc,
    haar_unitary,
    limit_formula_check,
    product_average_exact,
    product_average_mc,
    sigma_average_exact,
    spectral_binning,
    t_plus,
    young_projection,
)
from .legops import ModelSpace, StructuredOperator
from .reporting import (
    CheckResult,
    ExperimentConfig,
    ExperimentReport,
    bound_check,
    derive_seed,
    exact_check,
    scalar_check,
    write_csv,
)
from .symcomb import Partition, dimension, enumerate_partitions

__all__ = [
    "ExperimentSpec",
    "EXPERIMENTS",
    "SUITES",
    "experiment_names",
    "get_experiment",
    "run_experiment",
    "suite_configs",
]


# Check tolerances.  Exact structured arithmetic and closed forms, where
# a few ulps remain:
EXACT_TOL = 1e-12
# identities computed through sums of many products, dense matrix
# products or eigendecompositions, whose rounding grows with the size,
# and Lanczos operator norms, certified to 1e-10 relative:
IDENTITY_TOL = 1e-10


def _random_hermitian(rng: np.random.Generator, n: int, unit: bool = True) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (z + z.conj().T) / 2
    if unit:
        h = h / np.linalg.norm(h, 2)
    return h


# -- young-check -----------------------------------------------------------


def _young_check(cfg, rng, out_dir) -> list[CheckResult]:
    """Central projections on the left legs: the complete system of
    mutually orthogonal self-adjoint idempotents summing to the
    identity and commuting with every averaged left multiplication."""
    space = ModelSpace(cfg.N, cfg.p, 0)
    parts = enumerate_partitions(cfg.p)
    projs = [young_projection(space, lam) for lam in parts]
    ident = StructuredOperator.identity(space)

    selfadj = max((P.adjoint() - P).hs_norm() for P in projs)
    idem = max((P @ P - P).hs_norm() for P in projs)
    ortho = 0.0
    for i, P in enumerate(projs):
        for Q in projs[i + 1 :]:
            ortho = max(ortho, (P @ Q).hs_norm())
    total = StructuredOperator.sum(projs)
    a = _random_hermitian(rng, cfg.N)
    T = t_plus(space, a)
    comm = max((P @ T - T @ P).hs_norm() for P in projs)

    return [
        scalar_check("self_adjoint_defect", selfadj, 0.0, IDENTITY_TOL),
        scalar_check("idempotent_defect", idem, 0.0, IDENTITY_TOL),
        scalar_check("pairwise_orthogonality", ortho, 0.0, IDENTITY_TOL),
        scalar_check("resolution_of_identity", (total - ident).hs_norm(), 0.0, IDENTITY_TOL),
        scalar_check("commutes_with_left_averages", comm, 0.0, IDENTITY_TOL),
        exact_check(
            "squared_dimension_sum",
            sum(dimension(lam) ** 2 for lam in parts),
            math.factorial(cfg.p),
        ),
    ]


# -- haar-relations ----------------------------------------------------------


def _haar_relations(cfg, rng, out_dir) -> list[CheckResult]:
    """Exact pair averages against their closed forms, on a ladder of
    leg sizes up to the configured N, plus a Monte Carlo consistency
    run at the top size.

    The same-side average squares to 1/N^2 times the identity; the
    mixed average is an orthogonal projection outright, and its defect
    against the 1/N-scaled variant is exactly (1 - 1/N)/N, recorded as
    such rather than wished away.
    """
    checks = []
    for n in range(2, cfg.N + 1):
        sp = ModelSpace(n, cfg.p, cfg.q)
        ident = StructuredOperator.identity(sp)
        tll = haar_pair_average_exact(sp, 0, 1, "ll")
        trr = haar_pair_average_exact(sp, 0, 1, "rr")
        proj = haar_pair_average_exact(sp, 0, 1, "lr")
        checks += [
            scalar_check(
                f"ll_square_is_inverse_square_N{n}",
                (tll @ tll - ident.scale(1.0 / n**2)).hs_norm(),
                0.0,
                EXACT_TOL,
            ),
            scalar_check(
                f"rr_square_is_inverse_square_N{n}",
                (trr @ trr - ident.scale(1.0 / n**2)).hs_norm(),
                0.0,
                EXACT_TOL,
            ),
            scalar_check(
                f"mixed_idempotent_N{n}",
                (proj @ proj - proj).hs_norm(),
                0.0,
                EXACT_TOL,
            ),
            scalar_check(
                f"mixed_self_adjoint_N{n}",
                (proj.adjoint() - proj).hs_norm(),
                0.0,
                EXACT_TOL,
            ),
            scalar_check(
                f"mixed_scaled_defect_N{n}",
                (proj @ proj - proj.scale(1.0 / n)).hs_norm(),
                (1.0 - 1.0 / n) / n,
                EXACT_TOL,
            ),
        ]
    # Monte Carlo cross-validation of the closed forms at the top size,
    # the ladder's last step
    samples = cfg.samples
    mc_ll = haar_pair_average_mc(
        sp, 0, 1, "ll", HaarConfig(samples, derive_seed(cfg.seed, "haar-relations:ll"), cfg.N)
    )
    mc_lr = haar_pair_average_mc(
        sp, 0, 1, "lr", HaarConfig(samples, derive_seed(cfg.seed, "haar-relations:lr"), cfg.N)
    )
    diff_ll = mc_ll.distance(tll.to_dense().matrix)
    diff_lr = mc_lr.distance(proj.to_dense().matrix)
    checks += [
        bound_check("mc_ll_within_3se", diff_ll, 3.0 * mc_ll.stderr),
        bound_check("mc_lr_within_3se", diff_lr, 3.0 * mc_lr.stderr),
    ]
    return checks


# -- sigma-decay -------------------------------------------------------------


def _sigma_decay(cfg, rng, out_dir) -> list[CheckResult]:
    """Cross-leg remainder of the identity element along a doubling
    ladder: the Hilbert-Schmidt norm is exactly 2/N and halves per
    doubling, while the operator norm stays pinned at 2."""
    if cfg.p != 1 or cfg.q != 1:
        raise ValueError("sigma-decay is defined for p = q = 1")
    ladder = [2]
    while 2 * ladder[-1] <= cfg.N:
        ladder.append(2 * ladder[-1])
    checks = []
    hs_vals = {}
    for n in ladder:
        sp = ModelSpace(n, 1, 1)
        sig = sigma_average_exact(sp, np.eye(n))
        hs_vals[n] = sig.hs_norm()
        checks.append(scalar_check(f"hs_norm_N{n}", hs_vals[n], 2.0 / n, EXACT_TOL))
        checks.append(scalar_check(f"op_norm_N{n}", sig.operator_norm(), 2.0, IDENTITY_TOL))
    for lo, hi in zip(ladder, ladder[1:]):
        checks.append(
            scalar_check(f"hs_ratio_N{lo}_to_N{hi}", hs_vals[hi] / hs_vals[lo], 0.5, EXACT_TOL)
        )
    return checks


# -- limit-formula -----------------------------------------------------------


def _limit_formula(cfg, rng, out_dir) -> list[CheckResult]:
    """Averaged mixed product against its split form for a random
    Hermitian contraction a, with t = tau(a) and s = tau(a^2): the
    remainder has operator norm |t| + sqrt(s), the cross-leg average
    has 2-norm sqrt(2 (t^2 + s)) / N, Monte Carlo reproduces the exact
    average, and killing the trace collapses the remainder onto the
    cross-leg average."""
    if cfg.p != 1 or cfg.q != 1:
        raise ValueError("limit-formula is defined for p = q = 1")
    space = ModelSpace(cfg.N, cfg.p, cfg.q)
    a = _random_hermitian(rng, cfg.N)
    rep = limit_formula_check(space, a)
    t = float(np.trace(a).real) / cfg.N
    s = float(np.trace(a @ a).real) / cfg.N
    op_norm = abs(t) + math.sqrt(s)
    hs_norm = math.sqrt(2.0 * (t * t + s)) / cfg.N
    checks = [
        scalar_check("residual_op_norm", rep.residual_op_norm, op_norm, IDENTITY_TOL * op_norm),
        scalar_check("cross_leg_hs_norm", rep.sigma_average_hs_norm, hs_norm, IDENTITY_TOL),
    ]
    samples = cfg.samples
    exact = product_average_exact(space, a).to_dense().matrix
    mc = product_average_mc(
        space, a, HaarConfig(samples, derive_seed(cfg.seed, "limit-formula:mc"), cfg.N)
    )
    diff = mc.distance(exact)
    checks.append(bound_check("mc_product_within_3se", diff, 3.0 * mc.stderr))

    traceless = a - (np.trace(a) / cfg.N) * np.eye(cfg.N)
    rep0 = limit_formula_check(space, traceless)
    checks.append(
        scalar_check(
            "traceless_residual_equals_cross_leg",
            abs(rep0.residual_hs_norm - rep0.sigma_average_hs_norm),
            0.0,
            EXACT_TOL,
        )
    )
    return checks


# -- cond-expectation --------------------------------------------------------


def _cond_expectation(cfg, rng, out_dir) -> list[CheckResult]:
    """Dyadic tower expectations: trace preservation, bimodule
    property over the target algebra, idempotence, adjoint
    compatibility, nesting, and the scalar collapse at the top level."""
    tower = SubfactorTower.for_leg_size(cfg.N)
    levels = list(range(1, min(2, tower.levels) + 1))
    samples = cfg.samples
    N = cfg.N

    trace_def = module_def = idem_def = adj_def = 0.0
    for _ in range(samples):
        a = _random_hermitian(rng, N, unit=False)
        x = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        for lvl in levels:
            D = 2**lvl
            K = N // D
            ea = conditional_expectation(tower, lvl, a)
            trace_def = max(trace_def, abs(np.trace(ea) - np.trace(a)) / N)
            y1 = np.kron(np.eye(D), rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K)))
            y2 = np.kron(np.eye(D), rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K)))
            lhs = conditional_expectation(tower, lvl, y1 @ x @ y2)
            rhs = y1 @ conditional_expectation(tower, lvl, x) @ y2
            scale = max(float(np.abs(rhs).max()), 1.0)
            module_def = max(module_def, float(np.abs(lhs - rhs).max()) / scale)
            idem_def = max(
                idem_def,
                float(np.abs(conditional_expectation(tower, lvl, ea) - ea).max()),
            )
            ex = conditional_expectation(tower, lvl, x)
            adj_def = max(
                adj_def,
                float(
                    np.abs(
                        conditional_expectation(tower, lvl, x.conj().T) - ex.conj().T
                    ).max()
                ),
            )
    checks = [
        scalar_check("trace_preserved", trace_def, 0.0, EXACT_TOL),
        scalar_check("bimodule_property", module_def, 0.0, IDENTITY_TOL),
        scalar_check("idempotent", idem_def, 0.0, IDENTITY_TOL),
        scalar_check("adjoint_compatible", adj_def, 0.0, IDENTITY_TOL),
    ]
    if len(levels) >= 2:
        nest_def = 0.0
        for _ in range(samples):
            x = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            e2 = conditional_expectation(tower, 2, x)
            nest_def = max(
                nest_def,
                float(np.abs(conditional_expectation(tower, 1, e2) - e2).max()),
                float(
                    np.abs(
                        conditional_expectation(
                            tower, 2, conditional_expectation(tower, 1, x)
                        )
                        - e2
                    ).max()
                ),
            )
        checks.append(scalar_check("tower_nesting", nest_def, 0.0, EXACT_TOL))
    if tower.complement == 1:
        scalar_def = 0.0
        for _ in range(samples):
            a = _random_hermitian(rng, N, unit=False)
            top = conditional_expectation(tower, tower.levels, a)
            scalar_def = max(
                scalar_def,
                float(np.abs(top - (np.trace(a) / N) * np.eye(N)).max()),
            )
        checks.append(scalar_check("top_level_scalar", scalar_def, 0.0, EXACT_TOL))
    return checks


# -- commutant-dims ----------------------------------------------------------


def _commutant_dims(cfg, rng, out_dir) -> list[CheckResult]:
    """Commutant and generated-algebra dimensions with exact
    combinatorial predictions.

    The commutant of two-fold tensor copies of generic unitaries is
    the group algebra of the flip, dimension 2 at any N >= 2.  The
    algebra generated by averaged left multiplications on p legs has
    dimension C(N^2 + p - 1, p), the multiset count of its spanning
    symmetrized words; the double commutant recovers the generators.
    """
    checks = []
    # two-fold tensor commutant
    tensors = [np.kron(u, u) for u in (haar_unitary(cfg.N, rng) for _ in range(4))]
    comm = commutant_basis(tensors)
    checks.append(exact_check(f"tensor_square_commutant_dim_N{cfg.N}", comm.dim, 2))
    bicomm = commutant_basis(comm.elements)
    checks.append(
        exact_check(
            "double_commutant_contains_generators",
            all(bicomm.contains(t) for t in tensors),
            True,
        )
    )

    pairs = [(2, 2), (3, 2)]
    if cfg.N >= 3:
        pairs.append((2, 3))
    for p, n in pairs:
        dim, _ = generated_algebra_dim(left_average_generators(p, n))
        checks.append(
            exact_check(
                f"left_average_algebra_dim_p{p}_N{n}",
                dim,
                fixed_point_dimension(p, n),
            )
        )
    return checks


# -- span-growth -------------------------------------------------------------


def _span_growth(cfg, rng, out_dir) -> list[CheckResult]:
    """Cyclic-vector growth under averaged left multiplications:
    the reached subspace saturates at C(N^2 + p - 1, p) in exactly p
    rounds and matches the generated-algebra dimension."""
    pairs = [(2, 2)]
    if cfg.p >= 3 or cfg.N >= 3:
        pairs += [(3, 2), (2, 3)]
    checks = []
    for p, n in pairs:
        rep = span_growth_check(p, n)
        checks += [
            exact_check(f"cyclic_dim_p{p}_N{n}", rep.cyclic_dim, rep.expected_dim),
            exact_check(f"generated_dim_p{p}_N{n}", rep.generated_dim, rep.expected_dim),
            exact_check(f"rounds_p{p}_N{n}", rep.rounds, p),
            exact_check(f"routes_agree_p{p}_N{n}", rep.agree, True),
        ]
    return checks


# -- relative-gap ------------------------------------------------------------


def _relative_gap(cfg, rng, out_dir) -> list[CheckResult]:
    """Generated versus invariant-product dimensions for mixed leg
    actions on a ladder of leg sizes: N^4 - 2N^2 + 2 against N^4, with
    the relative gap shrinking strictly as N grows."""
    if cfg.p != 1 or cfg.q != 1:
        raise ValueError("relative-gap is defined for p = q = 1")
    checks = []
    gaps = []
    for n in range(2, cfg.N + 1):
        rep = relative_gap(1, 1, n)
        gaps.append(rep.relative_gap)
        checks += [
            exact_check(f"generated_dim_N{n}", rep.generated_dim, n**4 - 2 * n**2 + 2),
            exact_check(f"fixed_dim_N{n}", rep.fixed_dim, n**4),
        ]
    checks.append(
        exact_check(
            "gap_strictly_decreasing",
            all(b < a for a, b in zip(gaps, gaps[1:])),
            True,
        )
    )
    return checks


# -- crossed-center ----------------------------------------------------------


def _crossed_center(cfg, rng, out_dir) -> list[CheckResult]:
    """Center of the crossed product: dimension equals the number of
    conjugacy classes (the product of partition counts), certified on
    the oracle case by an independent spectral block count, with the
    canonical trace tracial and faithful on the center."""
    cases = [(1, 1), (2, 0)]
    if (cfg.p, cfg.q) not in cases:
        cases.append((cfg.p, cfg.q))
    checks = []
    for p, q in cases:
        sp = ModelSpace(cfg.N, p, q)
        basis, witnesses = center_basis(sp)
        expected = len(enumerate_partitions(p)) * len(enumerate_partitions(q))
        checks.append(exact_check(f"center_dim_p{p}q{q}", basis.dim, expected))
        # faithfulness of the canonical trace on the center
        gram = np.zeros((len(witnesses), len(witnesses)), dtype=np.complex128)
        for i, wi in enumerate(witnesses):
            for j, wj in enumerate(witnesses):
                gram[i, j] = wj.adjoint().multiply(wi).tau_hat()
        lam_min = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2)[0])
        checks.append(
            exact_check(f"trace_faithful_on_center_p{p}q{q}", lam_min > 1e-12, True)
        )
    # independent spectral certification of the oracle case
    sp = ModelSpace(cfg.N, 2, 0)
    probes = l2_probes(sp, rng)
    blocks, _, _ = block_structure(probes)
    checks.append(exact_check("center_dim_blocks_p2q0", len(blocks), 2))

    # traciality and positivity of the canonical trace on random elements
    trac = 0.0
    pos_ok = True
    for _ in range(3):
        x = _random_crossed(sp, rng)
        y = _random_crossed(sp, rng)
        trac = max(
            trac, abs(x.multiply(y).tau_hat() - y.multiply(x).tau_hat())
        )
        val = x.adjoint().multiply(x).tau_hat()
        pos_ok = pos_ok and val.real > 0 and abs(val.imag) <= 1e-12
    checks += [
        scalar_check("trace_tracial_defect", trac, 0.0, IDENTITY_TOL),
        exact_check("trace_positive_on_nonzero", pos_ok, True),
    ]
    return checks


def _random_crossed(space: ModelSpace, rng: np.random.Generator) -> CrossedOperator:
    d = space.dim
    return CrossedOperator(
        space,
        {
            g: (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / d
            for g in group_elements(space.p, space.q)
        },
    )


# -- compression-check -------------------------------------------------------


def _compression_check(cfg, rng, out_dir) -> list[CheckResult]:
    """Averaging projection on l2 of the group: projection law,
    absorption of the shifts, compression of fiber elements onto their
    group averages, and the span/commutant agreement of the fixed
    algebra, whose dimension is Burnside's count C(N^4 + p - 1, p)
    C(N^4 + q - 1, q)."""
    sp = ModelSpace(cfg.N, cfg.p, cfg.q)
    rep = compression_check(
        sp,
        samples=cfg.samples,
        seed=derive_seed(cfg.seed, "compression-check:probes"),
    )
    return [
        bound_check("projection_defect", rep.projection_defect, IDENTITY_TOL),
        bound_check("shift_absorption_defect", rep.shift_defect, IDENTITY_TOL),
        bound_check("average_compression_defect", rep.average_defect, IDENTITY_TOL),
        exact_check(
            "fixed_dim_span_equals_commutant",
            rep.fixed_dim_span,
            rep.fixed_dim_commutant,
        ),
        exact_check(
            "fixed_dim_value",
            rep.fixed_dim_span,
            fixed_point_dimension(sp.p, sp.N**2) * fixed_point_dimension(sp.q, sp.N**2),
        ),
    ]


# -- trace-table -------------------------------------------------------------

TRACE_TABLE_COLUMNS = (
    "lam",
    "mu",
    "dim_lam",
    "dim_mu",
    "tau_delta_trace",
    "tau_dim_linear",
    "equiv_class",
)


def _trace_table(cfg, rng, out_dir) -> list[CheckResult]:
    """Complementary-trace table over all partition pairs of (p, q).

    Both normalization candidates are tabulated side by side; they
    disagree exactly on the rows whose dimension product exceeds 1,
    and that disagreement count is reported as a check of its own so
    the discrepancy stays visible in every run.  Equivalence classes
    from the table must reproduce the dimension-product criterion.
    """
    rows = tau_prime_table(cfg.p, cfg.q)
    n_lam = len(enumerate_partitions(cfg.p))
    n_mu = len(enumerate_partitions(cfg.q))
    checks = [
        exact_check("row_count", len(rows), n_lam * n_mu),
        exact_check(
            "class_count",
            len({r.equiv_class for r in rows}),
            len({r.dim_lam * r.dim_mu for r in rows}),
        ),
    ]
    crit_ok = True
    for r1 in rows:
        for r2 in rows:
            same = r1.equiv_class == r2.equiv_class
            crit = equivalence_criterion(r1.lam, r1.mu, r2.lam, r2.mu)
            crit_ok = crit_ok and (same == crit)
    checks.append(exact_check("classes_match_equivalence_criterion", crit_ok, True))

    disagree = sum(1 for r in rows if r.tau_delta_trace != r.tau_dim_linear)
    nontrivial = sum(1 for r in rows if r.dim_lam * r.dim_mu > 1)
    checks.append(
        exact_check("normalization_disagreement_rows", disagree, nontrivial)
    )

    if out_dir is not None:
        path = Path(out_dir) / f"trace-table-p{cfg.p}q{cfg.q}.csv"
        write_csv(
            path,
            TRACE_TABLE_COLUMNS,
            [
                (
                    str(r.lam),
                    str(r.mu),
                    r.dim_lam,
                    r.dim_mu,
                    str(r.tau_delta_trace),
                    str(r.tau_dim_linear),
                    r.equiv_class,
                )
                for r in rows
            ],
        )
    return checks


# -- trace-inequality --------------------------------------------------------


def _trace_inequality(cfg, rng, out_dir) -> list[CheckResult]:
    """Permuted-product traces on plain tensor legs stay within 1/N
    for every non-trivial permutation; a transposition with identity
    legs attains the bound, a 3-cycle tops out at 1/N^2."""
    N = cfg.N
    samples = cfg.samples
    tuples = [[np.eye(N)] * 3]
    for _ in range(samples - 1):
        tuples.append([haar_unitary(N, rng) for _ in range(3)])
    swap = ProductGroupElement((1, 0, 2), ())
    cycle = ProductGroupElement((1, 2, 0), ())
    rep_swap = trace_inequality_check(swap, tuples, N)
    rep_cycle = trace_inequality_check(cycle, tuples, N)
    return [
        exact_check("bound_holds_transposition", rep_swap.all_within, True),
        exact_check("equality_at_identity_legs", rep_swap.equality_attained, True),
        scalar_check("transposition_max", rep_swap.max_abs_trace, 1.0 / N, EXACT_TOL),
        exact_check("bound_holds_3cycle", rep_cycle.all_within, True),
        exact_check("no_equality_3cycle", rep_cycle.equality_attained, False),
        scalar_check("cycle_max", rep_cycle.max_abs_trace, 1.0 / N**2, EXACT_TOL),
    ]


# -- spectral-binning --------------------------------------------------------


def _spectral_binning(cfg, rng, out_dir) -> list[CheckResult]:
    """Spectral discretization across random Hermitians: the binned
    operator stays strictly within epsilon in operator norm, bin
    projections resolve the identity orthogonally, and a spectrum of
    isolated eigenvalues is reproduced exactly."""
    count = cfg.samples
    eps_grid = (0.3, 0.1, 0.03)
    max_ratio = 0.0
    mesh_ok = True
    for _ in range(count):
        n = int(rng.integers(4, 17))
        A = _random_hermitian(rng, n, unit=False)
        for eps in eps_grid:
            a_eps, grid, _ = spectral_binning(A, eps)
            max_ratio = max(max_ratio, float(np.linalg.norm(A - a_eps, 2)) / eps)
            mesh_ok = mesh_ok and bool(np.max(np.diff(grid.cuts)) < eps)
    checks = [
        bound_check("max_norm_over_eps", max_ratio, 0.99, tol=1e-9),
        exact_check("mesh_below_eps", mesh_ok, True),
    ]

    proj_def = 0.0
    for _ in range(5):
        n = int(rng.integers(4, 17))
        A = _random_hermitian(rng, n, unit=False)
        _, _, projs = spectral_binning(A, 0.1)
        # the projections of empty bins are zero and add exactly 0
        projs = [P for P in projs if P.any()]
        total = sum(projs)
        proj_def = max(proj_def, float(np.abs(total - np.eye(n)).max()))
        for i, P in enumerate(projs):
            proj_def = max(proj_def, float(np.abs(P @ P - P).max()))
            for Q in projs[i + 1 :]:
                proj_def = max(proj_def, float(np.abs(P @ Q).max()))
    checks.append(
        scalar_check("projections_resolve_identity", proj_def, 0.0, IDENTITY_TOL)
    )

    isolated = np.diag(np.arange(4, dtype=float))
    a_eps, _, _ = spectral_binning(isolated, 0.3)
    checks.append(
        scalar_check(
            "isolated_spectrum_exact",
            float(np.linalg.norm(isolated - a_eps, 2)),
            0.0,
            EXACT_TOL,
        )
    )
    return checks


# -- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry row: runner, defaults, and full-suite overrides."""

    name: str
    func: Callable
    defaults: dict
    full: dict
    summary: str


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        ExperimentSpec(
            "young-check",
            _young_check,
            {"N": 2, "p": 3},
            {"N": 3, "p": 4},
            "central projection system on the left legs",
        ),
        ExperimentSpec(
            "haar-relations",
            _haar_relations,
            {"N": 2, "p": 1, "q": 1, "samples": 2000},
            {"N": 3, "samples": 4000},
            "exact pair averages and Monte Carlo consistency",
        ),
        ExperimentSpec(
            "sigma-decay",
            _sigma_decay,
            {"N": 4, "p": 1, "q": 1},
            {"N": 16},
            "cross-leg remainder decay along doubling leg sizes",
        ),
        ExperimentSpec(
            "limit-formula",
            _limit_formula,
            {"N": 2, "p": 1, "q": 1, "samples": 800},
            {"N": 4},
            "averaged product against its split form, closed-form norms",
        ),
        ExperimentSpec(
            "cond-expectation",
            _cond_expectation,
            {"N": 4, "samples": 6},
            {"N": 8},
            "dyadic tower expectations and their module laws",
        ),
        ExperimentSpec(
            "commutant-dims",
            _commutant_dims,
            {"N": 2},
            {"N": 3},
            "commutant and generated-algebra dimension counts",
        ),
        ExperimentSpec(
            "span-growth",
            _span_growth,
            {"N": 2, "p": 2},
            {"N": 3, "p": 3},
            "cyclic subspace growth of averaged multiplications",
        ),
        ExperimentSpec(
            "relative-gap",
            _relative_gap,
            {"N": 3, "p": 1, "q": 1},
            {"N": 4},
            "generated versus invariant-product dimension gap",
        ),
        ExperimentSpec(
            "crossed-center",
            _crossed_center,
            {"N": 2, "p": 2, "q": 0},
            {"p": 2, "q": 1},
            "crossed-product center and canonical trace",
        ),
        ExperimentSpec(
            "compression-check",
            _compression_check,
            {"N": 2, "p": 2, "q": 0, "samples": 12},
            {"samples": 24},
            "averaging projection relations on l2 of the group",
        ),
        ExperimentSpec(
            "trace-table",
            _trace_table,
            {"p": 3, "q": 0},
            {"p": 3, "q": 3},
            "complementary-trace normalization table",
        ),
        ExperimentSpec(
            "trace-inequality",
            _trace_inequality,
            {"N": 2, "samples": 100},
            {"N": 3},
            "permuted-product trace bound with equality case",
        ),
        ExperimentSpec(
            "spectral-binning",
            _spectral_binning,
            {"samples": 50},
            {},
            "epsilon spectral discretization of Hermitians",
        ),
    )
}

SUITES = ("smoke", "full")


def experiment_names() -> list[str]:
    return list(EXPERIMENTS)


def get_experiment(name: str) -> ExperimentSpec:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise ValueError(f"unknown experiment {name!r}; known: {known}") from None


def run_experiment(
    config: ExperimentConfig, out_dir: Path | None = None
) -> ExperimentReport:
    """Resolve defaults, seed the experiment stream, and run the checks."""
    spec = get_experiment(config.experiment)
    cfg = config.resolved(**spec.defaults)
    rng = np.random.default_rng(derive_seed(cfg.seed, cfg.experiment))
    start = time.perf_counter()
    checks = spec.func(cfg, rng, out_dir)
    return ExperimentReport(cfg, checks, duration_s=time.perf_counter() - start)


def suite_configs(suite: str, seed: int = 20240) -> list[ExperimentConfig]:
    """One config per experiment; the full suite applies the heavier
    parameter overrides on top of the defaults."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
    configs = []
    for spec in EXPERIMENTS.values():
        params = dict(spec.defaults)
        if suite == "full":
            params.update(spec.full)
        configs.append(
            ExperimentConfig(
                experiment=spec.name,
                N=params.get("N"),
                p=params.get("p"),
                q=params.get("q"),
                seed=seed,
                samples=params.get("samples"),
            )
        )
    return configs

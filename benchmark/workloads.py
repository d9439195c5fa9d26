"""The four benchmark workloads: inputs from a seed, the timed work, and
the output checks against the mathematics.

Each workload is a :class:`Workload`.  ``make_inputs`` derives every
random input from the benchmark seed; the package only ever sees the
generated arrays, seeds and generators.  ``run`` is the timed work.
``check`` compares the outputs with closed forms or with values recorded
at commit a236ef6 and returns one ``(name, passed, detail)`` row per
check; ``trace_check`` does the same for the call counts of a traced
pass.  The package is called through module attributes at call time, so
the tracing wrappers see every call.

``SIZES["full"]`` is what the benchmark measures; ``SIZES["tiny"]`` is a
seconds-long variant for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import duallab as dl
from duallab import cli

# tolerances the package's experiments use for the same quantities
EXACT_TOL = 1e-12  # exact structured arithmetic (experiments "exact")
OP_NORM_TOL = 1e-6  # power-iteration operator norm (sigma-decay "op_norm")
PROJECTION_TOL = 1e-10  # Young projection identities (young-check "projection")


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Hermitian matrix of unit operator norm, as the experiments draw it."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (z + z.conj().T) / 2
    return h / np.linalg.norm(h, 2)


def _child_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**63))


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int, dict, Path], dict]
    run: Callable[[dict], dict]
    check: Callable[[dict, dict], list[tuple[str, bool, str]]]
    check_names: Callable[[dict], list[str]]
    # (size, span-name counts, per-layer metrics) -> rows: call counts the
    # inputs fix, so a wrapper that misses a binding fails the traced run
    trace_check: Callable[[dict, dict, dict], list[tuple[str, bool, str]]]


def _row(name: str, ok: bool, detail: str) -> tuple[str, bool, str]:
    return (name, bool(ok), detail)


def _count_row(calls: dict, span: str, expected: int, at_least: bool = False):
    got = calls.get(span, 0)
    ok = got >= expected if at_least else got == expected
    return _row(f"trace_{span}_calls", ok, f"{got} {'>=' if at_least else '=='} {expected}")


# -- exact-residual ----------------------------------------------------------


# Residual norms of limit_formula_check at each N, recorded with the code
# at commit a236ef6.  They depend only on the spectrum of a, which is
# fixed per N (see _er_inputs), not on the seed-drawn eigenbasis.
RECORDED_RESIDUALS = {  # N: (residual_op_norm, residual_hs_norm)
    2: (1.1334214660052317, 0.8310886948689211),
    3: (0.7842346121282748, 0.3634005318940382),
    4: (0.7840950130790629, 0.3530134891091189),
    5: (0.7720968425258501, 0.3667182349384126),
}


def fixed_spectrum(N: int) -> np.ndarray:
    """Eigenvalues of the first unit-norm Hermitian drawn from generator N."""
    return np.linalg.eigvalsh(random_hermitian(np.random.default_rng(N), N))


def _er_inputs(seed: int, size: dict, out_dir: Path) -> dict:
    # a = V diag(lambda) V* with a seed-drawn Haar V.  The Haar averages
    # are unitarily invariant, so the residual is a unitary conjugate of
    # one operator per N: its norms, and the power-iteration work, do not
    # depend on the seed, while every input matrix does.
    rng = np.random.default_rng(seed)
    a = {}
    for N in size["limit_N"]:
        v = dl.haar_unitary(N, rng)
        a[N] = (v * fixed_spectrum(N)) @ v.conj().T
    return {"a": a, "sigma_N": size["sigma_N"], "young_p": size["young_p"]}


def _er_run(inp: dict) -> dict:
    reports = {N: dl.limit_formula_check(dl.ModelSpace(N, 1, 1), a) for N, a in inp["a"].items()}
    sigma = {}
    for N in inp["sigma_N"]:
        op = dl.sigma_average_exact(dl.ModelSpace(N, 1, 1), np.eye(N))
        sigma[N] = (op.hs_norm(), op.operator_norm())
    space = dl.ModelSpace(2, inp["young_p"], 0)
    projs = [dl.young_projection(space, lam) for lam in dl.enumerate_partitions(inp["young_p"])]
    idem = max((P @ P - P).hs_norm() for P in projs)
    return {"reports": reports, "sigma": sigma, "projs": projs, "idempotent": idem}


def _er_check(inp: dict, out: dict) -> list[tuple[str, bool, str]]:
    rows = []
    for N, rep in out["reports"].items():
        op, hs = RECORDED_RESIDUALS[N]
        rows.append(_row(
            f"residual_within_envelope_N{N}", rep.residual_op_norm <= rep.stated_bound,
            f"{rep.residual_op_norm:.6g} <= {rep.stated_bound:.6g}",
        ))
        rows.append(_row(
            f"residual_op_norm_recorded_N{N}", abs(rep.residual_op_norm - op) <= OP_NORM_TOL,
            f"{rep.residual_op_norm!r} vs {op!r}",
        ))
        rows.append(_row(
            f"residual_hs_norm_recorded_N{N}", abs(rep.residual_hs_norm - hs) <= EXACT_TOL,
            f"{rep.residual_hs_norm!r} vs {hs!r}",
        ))
    for N, (hs, op) in out["sigma"].items():
        rows.append(_row(f"sigma_hs_norm_N{N}", abs(hs - 2.0 / N) <= EXACT_TOL, f"{hs!r} vs {2.0 / N!r}"))
        rows.append(_row(f"sigma_op_norm_N{N}", abs(op - 2.0) <= OP_NORM_TOL, f"{op!r} vs 2"))
    projs = out["projs"]
    space = projs[0].space
    selfadj = max((P.adjoint() - P).hs_norm() for P in projs)
    total = projs[0]
    for P in projs[1:]:
        total = total + P
    resolution = (total - dl.StructuredOperator.identity(space)).hs_norm()
    rows.append(_row("young_idempotent", out["idempotent"] <= PROJECTION_TOL, repr(out["idempotent"])))
    rows.append(_row("young_self_adjoint", selfadj <= PROJECTION_TOL, repr(selfadj)))
    rows.append(_row("young_resolves_identity", resolution <= PROJECTION_TOL, repr(resolution)))
    return rows


def _er_check_names(size: dict) -> list[str]:
    names = []
    for N in size["limit_N"]:
        names += [f"residual_within_envelope_N{N}", f"residual_op_norm_recorded_N{N}",
                  f"residual_hs_norm_recorded_N{N}"]
    for N in size["sigma_N"]:
        names += [f"sigma_hs_norm_N{N}", f"sigma_op_norm_N{N}"]
    return names + ["young_idempotent", "young_self_adjoint", "young_resolves_identity"]


def _er_trace_check(size: dict, calls: dict, metrics: dict):
    p = size["young_p"]
    n_parts = len(dl.enumerate_partitions(p))
    n_limit, n_sigma = len(size["limit_N"]), len(size["sigma_N"])
    return [
        # young_projection evaluates one character per permutation of S_p
        _count_row(calls, "symcomb.character", n_parts * math.factorial(p)),
        _count_row(calls, "duality_core.young_projection", n_parts),
        _count_row(calls, "duality_core.limit_formula_check", n_limit),
        # limit_formula_check reaches sigma_average_exact directly and
        # through product_average_exact
        _count_row(calls, "duality_core.sigma_average_exact", 2 * n_limit + n_sigma),
        _count_row(calls, "legops.operator_norm", 2 * n_limit + n_sigma),
        _count_row(calls, "legops.hs_norm", 2 * n_limit + n_sigma + n_parts),
    ]


# -- haar-mc -----------------------------------------------------------------


def _mc_inputs(seed: int, size: dict, out_dir: Path) -> dict:
    rng = np.random.default_rng(seed)
    jobs = []
    for N, samples in size["product"]:
        jobs.append(("product", N, samples, random_hermitian(rng, N), _child_seed(rng)))
    for mode in ("ll", "lr"):
        N, samples = size["pair"]
        jobs.append((mode, N, samples, None, _child_seed(rng)))
    return {"jobs": jobs}


def _integrand(kind: str, space, a):
    if kind == "product":
        return lambda u: dl.t_mixed(space, a @ u.conj().T) @ dl.t_mixed(space, u)
    right = dl.left_mult if kind == "ll" else dl.right_mult
    return lambda u: dl.left_mult(space, u.conj().T, 0) @ right(space, u, 1)


def _mc_run(inp: dict) -> dict:
    results = []
    for kind, N, samples, a, seed in inp["jobs"]:
        space = dl.ModelSpace(N, 1, 1)
        results.append(dl.haar_average_mc(_integrand(kind, space, a), dl.HaarConfig(samples, seed, N)))
    return {"results": results}


def _mc_name(kind: str, N: int) -> str:
    return f"mc_{kind}_N{N}_within_3se"


def _mc_check(inp: dict, out: dict) -> list[tuple[str, bool, str]]:
    rows = []
    for (kind, N, samples, a, _), mc in zip(inp["jobs"], out["results"]):
        space = dl.ModelSpace(N, 1, 1)
        if kind == "product":
            exact = dl.product_average_exact(space, a)
        else:
            exact = dl.haar_pair_average_exact(space, 0, 1, kind)
        diff = float(np.linalg.norm(mc.mean.matrix - exact.to_dense().matrix))
        ok = mc.samples == samples and diff <= 3.0 * mc.stderr
        rows.append(_row(_mc_name(kind, N), ok, f"|mean - exact| = {diff:.4g}, 3 se = {3 * mc.stderr:.4g}"))
    return rows


def _mc_check_names(size: dict) -> list[str]:
    names = [_mc_name("product", N) for N, _ in size["product"]]
    return names + [_mc_name(kind, size["pair"][0]) for kind in ("ll", "lr")]


def _mc_trace_check(size: dict, calls: dict, metrics: dict):
    product = sum(samples for _, samples in size["product"])
    total = product + 2 * size["pair"][1]
    return [
        _count_row(calls, "duality_core.haar_average_mc", len(size["product"]) + 2),
        _count_row(calls, "duality_core.haar_unitary", total),
        _count_row(calls, "duality_core.integrand", total),
        _count_row(calls, "legops.to_dense", total, at_least=True),
        _count_row(calls, "duality_core.t_mixed", 2 * product),
    ]


# -- algebra-closure ---------------------------------------------------------


def _ac_inputs(seed: int, size: dict, out_dir: Path) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "gap_rngs": {N: np.random.default_rng(_child_seed(rng)) for N in size["gap_N"]},
        "compression": (size["compression_space"], size["compression_samples"], _child_seed(rng)),
        "growth": size["growth"],
        "center_space": size["center_space"],
    }


def _ac_run(inp: dict) -> dict:
    gaps = {N: dl.relative_gap(1, 1, N, rng=r) for N, r in inp["gap_rngs"].items()}
    (N, p, q), samples, seed = inp["compression"]
    compression = dl.compression_check(dl.ModelSpace(N, p, q), samples=samples, seed=seed)
    growth = {(p, N): dl.span_growth_check(p, N) for p, N in inp["growth"]}
    center, witnesses = dl.center_basis(dl.ModelSpace(*inp["center_space"]))
    return {"gaps": gaps, "compression": compression, "growth": growth,
            "center": (center.dim, len(witnesses))}


def _ac_check(inp: dict, out: dict) -> list[tuple[str, bool, str]]:
    rows = []
    for N, rep in out["gaps"].items():
        rows.append(_row(f"generated_dim_N{N}", rep.generated_dim == N**4 - 2 * N**2 + 2,
                         f"{rep.generated_dim} vs {N**4 - 2 * N**2 + 2}"))
        rows.append(_row(f"fixed_dim_N{N}", rep.fixed_dim == N**4, f"{rep.fixed_dim} vs {N**4}"))
    comp = out["compression"]
    (N, p, q), _, _ = inp["compression"]
    # the fixed points of S_p x S_q on M_N^(p+q) with the leg action by
    # conjugation: symmetric tensors of M_(N^2) on each side
    fixed = dl.fixed_point_dimension(p, N * N) * dl.fixed_point_dimension(q, N * N)
    rows.append(_row("compression_span_equals_commutant",
                     comp.fixed_dim_span == comp.fixed_dim_commutant == fixed,
                     f"span {comp.fixed_dim_span}, commutant {comp.fixed_dim_commutant}, expected {fixed}"))
    rows.append(_row("compression_relations", comp.passed,
                     f"defects {comp.projection_defect:.3g} {comp.shift_defect:.3g} {comp.average_defect:.3g}"))
    for (p, N), rep in out["growth"].items():
        expected = dl.fixed_point_dimension(p, N)
        rows.append(_row(f"span_growth_dims_p{p}_N{N}",
                         rep.cyclic_dim == rep.generated_dim == expected,
                         f"cyclic {rep.cyclic_dim}, generated {rep.generated_dim}, expected {expected}"))
        rows.append(_row(f"span_growth_rounds_p{p}_N{N}", rep.rounds == p, f"{rep.rounds} vs {p}"))
    dim, count = out["center"]
    n_classes = len(dl.group_conjugacy_classes(inp["center_space"][1], inp["center_space"][2]))
    rows.append(_row("center_dim_is_class_count", dim == count == n_classes, f"{dim}, {count} vs {n_classes}"))
    return rows


def _ac_check_names(size: dict) -> list[str]:
    names = []
    for N in size["gap_N"]:
        names += [f"generated_dim_N{N}", f"fixed_dim_N{N}"]
    names += ["compression_span_equals_commutant", "compression_relations"]
    for p, N in size["growth"]:
        names += [f"span_growth_dims_p{p}_N{N}", f"span_growth_rounds_p{p}_N{N}"]
    return names + ["center_dim_is_class_count"]


def _ac_trace_check(size: dict, calls: dict, metrics: dict):
    (_, p, q), samples = size["compression_space"], size["compression_samples"]
    n_group = math.factorial(p) * math.factorial(q)
    draws = metrics["algebra_tools.generated_algebra_dim.sampler_draws"]
    return [
        _count_row(calls, "algebra_tools.relative_gap", len(size["gap_N"])),
        # each relative-gap draw is one Haar unitary, reached through
        # algebra_tools' own binding of haar_unitary
        _row("trace_haar_unitary_calls_equal_sampler_draws",
             draws > 0 and calls.get("duality_core.haar_unitary", 0) == draws,
             f"{calls.get('duality_core.haar_unitary', 0)} vs {draws}"),
        _count_row(calls, "algebra_tools.generated_algebra_dim",
                   len(size["gap_N"]) + len(size["growth"])),
        _count_row(calls, "algebra_tools.span_growth_check", len(size["growth"])),
        _count_row(calls, "crossed.compression_check", 1),
        _count_row(calls, "crossed.center_basis", 1),
        _count_row(calls, "crossed.theta_apply", samples * n_group, at_least=True),
    ]


# -- suite-smoke ---------------------------------------------------------------


def _ss_inputs(seed: int, size: dict, out_dir: Path) -> dict:
    return {"argv": ["run-all", "--suite", "smoke", "--seed", str(seed), "--out", str(out_dir)],
            "out_dir": out_dir}


def _ss_run(inp: dict) -> dict:
    return {"exit_code": cli.main(inp["argv"])}


def report_digest(out_dir: Path) -> str:
    """Hash of every artifact with the wall-clock durations removed.

    Two runs with one seed must give the same digest: this is the
    package's determinism contract for report bodies.
    """
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            body = json.loads(data)
            body.pop("duration_s", None)
            for row in body.get("experiments", ()):
                row.pop("duration_s", None)
            data = json.dumps(body, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def _ss_check(inp: dict, out: dict) -> list[tuple[str, bool, str]]:
    out_dir = inp["out_dir"]
    summary = json.loads((out_dir / "summary.json").read_text())
    by_name = {row["experiment"]: row for row in summary["experiments"]}
    rows = [
        _row("exit_code_zero", out["exit_code"] == 0, str(out["exit_code"])),
        _row("summary_passed", summary["passed"] is True, str(summary["passed"])),
    ]
    for name in dl.experiment_names():
        row = by_name.get(name, {})
        rows.append(_row(f"{name}_passed", row.get("passed") is True, str(row.get("failed"))))
    artifacts = [p for p in out_dir.iterdir() if p.name != "summary.json"]
    rows.append(_row("artifact_count", len(artifacts) == 27, str(len(artifacts))))
    return rows


def _ss_check_names(size: dict) -> list[str]:
    return (["exit_code_zero", "summary_passed"]
            + [f"{name}_passed" for name in dl.experiment_names()] + ["artifact_count"])


def _ss_trace_check(size: dict, calls: dict, metrics: dict):
    names = dl.experiment_names()
    rows = [_count_row(calls, f"experiments.{name}", 1) for name in names]
    defaults = {name: dl.experiments.EXPERIMENTS[name].defaults for name in names}
    # haar-relations averages two pair products, limit-formula one product
    mc_samples = 2 * defaults["haar-relations"]["samples"] + defaults["limit-formula"]["samples"]
    return rows + [
        _count_row(calls, "reporting.records", len(names)),
        _count_row(calls, "reporting.write_jsonl", len(names)),
        _count_row(calls, "duality_core.haar_unitary", mc_samples, at_least=True),
        _count_row(calls, "symcomb.character", 1, at_least=True),
    ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("exact-residual", _er_inputs, _er_run, _er_check, _er_check_names,
                 _er_trace_check),
        Workload("haar-mc", _mc_inputs, _mc_run, _mc_check, _mc_check_names, _mc_trace_check),
        Workload("algebra-closure", _ac_inputs, _ac_run, _ac_check, _ac_check_names,
                 _ac_trace_check),
        Workload("suite-smoke", _ss_inputs, _ss_run, _ss_check, _ss_check_names,
                 _ss_trace_check),
    )
}

SIZES: dict[str, dict[str, dict]] = {
    "full": {
        "exact-residual": {"limit_N": (2, 3, 4, 5), "sigma_N": (2, 4, 8), "young_p": 5},
        "haar-mc": {"product": ((3, 2000), (4, 600)), "pair": (4, 600)},
        "algebra-closure": {
            "gap_N": (2, 3),
            "compression_space": (2, 2, 0),
            "compression_samples": 20,
            "growth": ((3, 2), (2, 3), (4, 2)),
            "center_space": (2, 3, 0),
        },
        "suite-smoke": {},
    },
    "tiny": {
        "exact-residual": {"limit_N": (2, 3), "sigma_N": (2, 4), "young_p": 3},
        "haar-mc": {"product": ((3, 40), (4, 10)), "pair": (4, 10)},
        "algebra-closure": {
            "gap_N": (2,),
            "compression_space": (2, 1, 0),
            "compression_samples": 4,
            "growth": ((2, 2),),
            "center_space": (2, 2, 0),
        },
        "suite-smoke": {},
    },
}

"""Report plumbing, the experiment registry, and the CLI surface."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import duallab
from duallab import cli
from duallab.experiments import (
    EXPERIMENTS,
    experiment_names,
    run_experiment,
    suite_configs,
)
from duallab.reporting import (
    REPORT_RECORD_SCHEMA,
    _certified,
    CheckResult,
    ExperimentConfig,
    ExperimentReport,
    bound_check,
    default_output_dir,
    derive_seed,
    exact_check,
    scalar_check,
    validate_record,
    write_csv,
    write_jsonl,
)

EXPECTED_NAMES = [
    "young-check",
    "haar-relations",
    "sigma-decay",
    "limit-formula",
    "cond-expectation",
    "commutant-dims",
    "span-growth",
    "relative-gap",
    "crossed-center",
    "compression-check",
    "trace-table",
    "trace-inequality",
    "spectral-binning",
]


class TestSeeds:
    def test_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_distinct_by_name_and_master(self):
        seeds = {
            derive_seed(m, n)
            for m in (0, 1, 20240)
            for n in ("young-check", "sigma-decay", "x")
        }
        assert len(seeds) == 9

    def test_range(self):
        for m in (0, 2**62, 123456789):
            s = derive_seed(m, "probe")
            assert 0 <= s < 2**63


class TestChecks:
    def test_scalar_check(self):
        assert scalar_check("x", 1.0, 1.05, 0.1).passed
        assert not scalar_check("x", 1.0, 1.2, 0.1).passed

    def test_bound_check(self):
        assert bound_check("x", 0.5, 1.0).passed
        assert not bound_check("x", 1.5, 1.0).passed
        # zero extra tolerance is stored as None (exact bound)
        assert bound_check("x", 0.5, 1.0).tolerance is None
        assert bound_check("x", 0.5, 1.0, tol=1e-9).tolerance == 1e-9

    def test_exact_check(self):
        assert exact_check("n", 3, 3).passed
        assert not exact_check("n", 3, 4).passed
        assert exact_check("n", 3, 3).tolerance is None

    def test_complex_measured_serializes(self):
        rec = CheckResult("c", complex(1, 0), 1.0, 1e-9, True).to_record()
        assert rec["measured"] == 1.0
        rec = CheckResult("c", complex(1, 2), 0.0, None, False).to_record()
        assert rec["measured"] == "1.0+2.0j"

    def test_numpy_scalars_serialize(self):
        rec = CheckResult("c", np.float64(0.5), np.float64(0.5), 0.0, True).to_record()
        assert isinstance(rec["measured"], float)


class TestRecordSchema:
    BASE = {
        "experiment": "young-check",
        "N": 2,
        "p": 3,
        "q": 0,
        "seed": 1,
        "samples": 0,
        "check": "c",
        "measured": 0.0,
        "predicted": 0.0,
        "tolerance": 1e-9,
        "pass": True,
    }

    def test_valid(self):
        validate_record(self.BASE)

    def test_missing_field_rejected(self):
        bad = dict(self.BASE)
        del bad["check"]
        with pytest.raises(jsonschema.ValidationError):
            validate_record(bad)

    def test_wrong_type_rejected(self):
        bad = dict(self.BASE, N="two")
        with pytest.raises(jsonschema.ValidationError):
            validate_record(bad)

    def test_error_matches_jsonschema_validate(self):
        # two faults: the best match is the one jsonschema.validate raises
        bad = dict(self.BASE, N="two", seed=-1)
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(bad, REPORT_RECORD_SCHEMA)
        for _ in range(2):  # the second call reuses the cached validator
            with pytest.raises(jsonschema.ValidationError) as got:
                validate_record(bad)
            assert got.value.message == want.value.message
            assert list(got.value.path) == list(want.value.path)


JSON_TYPES = (type(None), bool, int, float, str, list, dict)
EDGE_VALUES = st.sampled_from([
    None, True, False, -1, 0, 1, 2, 3, 2**70, -1.0, -0.0, 0.0, 2.0, 2.5, float("nan"), float("inf"),
    float("-inf"), "", "x", [], {}, np.float64(2.0), np.float64(-1.0), np.float64("nan"), np.int64(2),
    np.int64(-1), np.bool_(True), np.float32(1.0),
])
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=2), st.lists(st.integers(), max_size=1),
    st.floats(allow_nan=True, allow_infinity=True),
)
NUMPY_VALUES = st.one_of(
    st.floats().map(np.float64), st.floats(width=32).map(np.float32), st.integers(-3, 9).map(np.int64),
    st.booleans().map(np.bool_),
)


@st.composite
def schema_records(draw):
    """A valid record with a few fields changed or removed and some
    added: bools, numpy scalars, NaN and infinities, integral floats,
    negative values and empty strings in any field."""
    rec = dict(TestRecordSchema.BASE)
    values = st.one_of(EDGE_VALUES, JSON_VALUES, NUMPY_VALUES)
    for key in draw(st.lists(st.sampled_from(sorted(rec)), unique=True, min_size=1, max_size=3)):
        if draw(st.integers(0, 5)):
            rec[key] = draw(values)
        else:
            del rec[key]
    rec.update(draw(st.dictionaries(st.sampled_from(["extra", "", "N "]), values, max_size=2)))
    return rec


class TestRecordCertificate:
    """validate_record decides a record by reading the schema itself and
    hands jsonschema only what that reading cannot certify."""

    @settings(max_examples=400, deadline=None)
    @given(rec=schema_records())
    def test_certifies_only_what_jsonschema_accepts(self, rec):
        try:
            jsonschema.validate(rec, REPORT_RECORD_SCHEMA)
            accepted = True
        except jsonschema.ValidationError as exc:
            accepted, want = False, exc
        if _certified(REPORT_RECORD_SCHEMA, rec):
            assert accepted
        if all(type(v) in JSON_TYPES for v in rec.values()):
            # on exact JSON types the reading is complete: nothing valid reaches jsonschema
            assert _certified(REPORT_RECORD_SCHEMA, rec) == accepted
        if accepted:
            validate_record(rec)
        else:
            with pytest.raises(jsonschema.ValidationError) as got:
                validate_record(rec)
            assert got.value.message == want.message
            assert list(got.value.path) == list(want.path)

    @pytest.mark.parametrize(
        "schema, value",
        [
            ({"maxLength": 3}, "ab"),  # a keyword not known here
            ({"type": ["integer", "decimal"]}, 1),  # a type name jsonschema does not know
            ({"minimum": 0}, np.float64(-1.0)),  # a subclass of float, placed by no keyword here
            ({"additionalProperties": False}, {}),
            ({"$schema": "http://json-schema.org/draft-04/schema#"}, 1),
        ],
    )
    def test_fails_closed(self, schema, value):
        assert not _certified(schema, value)

    def test_valid_cli_run_leaves_jsonschema_unloaded(self, tmp_path):
        src = Path(duallab.__file__).resolve().parents[1]
        code = (
            "import sys\n"
            "from duallab import cli\n"
            f"code = cli.main(['run', 'sigma-decay', '--out', {str(tmp_path)!r}])\n"
            "print(code, 'jsonschema' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
        ).stdout
        assert out.splitlines()[-1] == "0 False"
        records = (tmp_path / "sigma-decay.checks.jsonl").read_text().splitlines()
        assert records
        for line in records:
            jsonschema.validate(json.loads(line), REPORT_RECORD_SCHEMA)


class TestConfigAndReport:
    def test_resolved_fills_only_none(self):
        cfg = ExperimentConfig(experiment="e", N=5).resolved(N=2, p=3)
        assert (cfg.N, cfg.p) == (5, 3)

    def test_resolved_noop_returns_self(self):
        cfg = ExperimentConfig(experiment="e", N=2, p=1, q=1, samples=1)
        assert cfg.resolved(N=9) is cfg

    def test_body_excludes_duration(self):
        cfg = ExperimentConfig(experiment="e", N=2, p=1, q=0)
        checks = [scalar_check("x", 0.0, 0.0, 1e-9)]
        one = ExperimentReport(cfg, checks, duration_s=0.1)
        two = ExperimentReport(cfg, checks, duration_s=9.9)
        assert one.body_json() == two.body_json()
        assert "duration" not in one.body_json()

    def test_records_carry_config_echo(self):
        cfg = ExperimentConfig(experiment="e", N=3, p=2, q=1, seed=7, samples=10)
        rep = ExperimentReport(cfg, [exact_check("n", 1, 1)], 0.0)
        (rec,) = rep.records()
        assert (rec["N"], rec["p"], rec["q"], rec["seed"], rec["samples"]) == (
            3,
            2,
            1,
            7,
            10,
        )
        validate_record(rec)
        assert set(rep.body()["config"]) == {"experiment", "N", "p", "q", "seed", "samples"}

    @pytest.mark.parametrize("name", ["trace-table", "spectral-binning"])
    def test_records_echo_config_unchanged(self, name):
        # these experiments leave N or samples (spectral-binning also p
        # and q) None; a record must say None too, not invent a value
        (cfg,) = [c for c in suite_configs("smoke", seed=1) if c.experiment == name]
        rep = run_experiment(cfg)
        echo = rep.body()["config"]
        assert None in echo.values()
        records = rep.records()
        assert records
        for rec in records:
            assert {key: rec[key] for key in echo} == echo
            validate_record(rec)

    def test_passed_aggregates(self):
        cfg = ExperimentConfig(experiment="e")
        good = exact_check("a", 1, 1)
        bad = exact_check("b", 1, 2)
        assert ExperimentReport(cfg, [good], 0.0).passed
        assert not ExperimentReport(cfg, [good, bad], 0.0).passed


class TestWriters:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "sub" / "x.jsonl"
        records = [{"b": 1, "a": 2}, {"a": 3, "b": 4}]
        write_jsonl(path, records)
        lines = path.read_text().strip().split("\n")
        assert [json.loads(l) for l in lines] == records
        # canonical: keys sorted, compact separators
        assert lines[0] == '{"a":2,"b":1}'

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["x", "y"], [[1, "a"], [2, "b"]])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x,y"
        assert lines[1:] == ["1,a", "2,b"]

    def test_default_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DUALLAB_OUT", str(tmp_path / "env-out"))
        assert default_output_dir() == tmp_path / "env-out"
        monkeypatch.delenv("DUALLAB_OUT")
        assert default_output_dir().name == "duallab-out"


class TestRegistry:
    def test_names(self):
        assert experiment_names() == EXPECTED_NAMES

    def test_specs_have_defaults_and_summary(self):
        for spec in EXPERIMENTS.values():
            assert spec.summary
            assert isinstance(spec.defaults, dict)

    def test_unknown_experiment_raises(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(experiment="nope"))

    def test_suite_configs_cover_registry(self):
        for suite in ("smoke", "full"):
            names = [c.experiment for c in suite_configs(suite)]
            assert names == EXPECTED_NAMES
        with pytest.raises(ValueError):
            suite_configs("typo")

    def test_full_overrides_apply(self):
        cfgs = {c.experiment: c for c in suite_configs("full")}
        assert cfgs["sigma-decay"].N == 16


class TestRunExperiment:
    def test_deterministic_body(self):
        cfg = ExperimentConfig(experiment="trace-table", p=3, q=0)
        one = run_experiment(cfg)
        two = run_experiment(cfg)
        assert one.body_json() == two.body_json()
        assert one.passed

    def test_invalid_shape_rejected(self):
        # sigma-decay is specific to one left and one right leg
        cfg = ExperimentConfig(experiment="sigma-decay", N=4, p=2, q=1)
        with pytest.raises(ValueError):
            run_experiment(cfg)

    def test_artifact_written(self, tmp_path):
        cfg = ExperimentConfig(experiment="trace-table", p=2, q=0)
        run_experiment(cfg, out_dir=tmp_path)
        csv_path = tmp_path / "trace-table-p2q0.csv"
        assert csv_path.exists()
        header = csv_path.read_text().strip().split("\n")[0]
        assert header.split(",")[0] == "lam"


def _without_durations(path: Path) -> bytes:
    data = path.read_bytes()
    if path.suffix != ".json":
        return data
    body = json.loads(data)
    body.pop("duration_s", None)
    for row in body.get("experiments", ()):
        row.pop("duration_s", None)
    return json.dumps(body, sort_keys=True, indent=2).encode()


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED_NAMES:
            assert name in out

    def test_run_writes_report(self, tmp_path, capsys):
        code = cli.main(
            ["run", "trace-table", "--p", "2", "--q", "0", "--out", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "trace-table.report.json").read_text())
        assert report["passed"] is True
        assert report["config"]["experiment"] == "trace-table"
        assert "duration_s" in report
        checks = [
            json.loads(line)
            for line in (tmp_path / "trace-table.checks.jsonl").read_text().splitlines()
        ]
        assert checks and all(c["pass"] for c in checks)
        for c in checks:
            validate_record(c)
        out = capsys.readouterr().out
        assert "trace-table: PASS" in out

    def test_run_bad_params_exits_2(self, tmp_path, capsys):
        code = cli.main(
            ["run", "sigma-decay", "--p", "2", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "young-check", "--seed", "-1"],
            ["run", "young-check", "--samples", "-3"],
            ["run", "young-check", "--samples", "0"],
            ["run-all", "--seed", "-1"],
        ],
    )
    def test_bad_seed_or_samples_exit_2_before_running(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "PASS" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "sigma-decay", "--n", "1"],
            ["run", "spectral-binning", "--q", "-2"],
            ["run", "young-check", "--p", "-1"],
        ],
    )
    def test_bad_shape_exits_2_writing_nothing(self, tmp_path, capsys, argv):
        # the config rejects what the record schema would, before any
        # report is written
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_limit_formula_needs_one_leg_each_side(self, tmp_path, capsys):
        assert cli.main(["run", "limit-formula", "--p", "2", "--out", str(tmp_path)]) == 2
        assert "p = q = 1" in capsys.readouterr().err

    def test_unknown_experiment_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            cli.main(["run", "nope"])

    def test_out_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DUALLAB_OUT", str(tmp_path / "ignored"))
        explicit = tmp_path / "explicit"
        code = cli.main(
            ["run", "trace-table", "--p", "2", "--q", "0", "--out", str(explicit)]
        )
        assert code == 0
        assert (explicit / "trace-table.report.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_run_all_smoke(self, tmp_path, capsys):
        one, two = tmp_path / "one", tmp_path / "two"
        code = cli.main(["run-all", "--suite", "smoke", "--out", str(one)])
        assert code == 0
        summary = json.loads((one / "summary.json").read_text())
        assert summary["passed"] is True
        assert [row["experiment"] for row in summary["experiments"]] == EXPECTED_NAMES
        out = capsys.readouterr().out
        lines = [out.index(f"{name}: PASS") for name in EXPECTED_NAMES]
        assert lines == sorted(lines)
        # determinism contract: a second run writes the same files, byte
        # for byte once the wall-clock durations are removed
        assert cli.main(["run-all", "--suite", "smoke", "--out", str(two)]) == 0
        assert sorted(p.name for p in one.iterdir()) == sorted(p.name for p in two.iterdir())
        for path in one.iterdir():
            assert _without_durations(path) == _without_durations(two / path.name), path.name

    def test_run_all_contains_a_failure(self, tmp_path, monkeypatch, capsys):
        def boom(cfg, rng, out_dir):
            raise RuntimeError("boom")

        failing = "crossed-center"
        monkeypatch.setitem(
            EXPERIMENTS, failing, dataclasses.replace(EXPERIMENTS[failing], func=boom)
        )
        code = cli.main(["run-all", "--suite", "smoke", "--out", str(tmp_path)])
        assert code == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["passed"] is False
        rows = {row["experiment"]: row for row in summary["experiments"]}
        assert list(rows) == EXPECTED_NAMES
        assert rows[failing] == {
            "experiment": failing,
            "passed": False,
            "checks": 0,
            "failed": [],
            "error": "RuntimeError: boom",
        }
        assert not (tmp_path / f"{failing}.report.json").exists()
        assert not (tmp_path / f"{failing}.checks.jsonl").exists()
        for name in EXPECTED_NAMES:
            if name != failing:
                assert rows[name]["passed"] is True
                assert (tmp_path / f"{name}.report.json").exists()
        assert f"{failing}: ERROR (RuntimeError: boom)" in capsys.readouterr().out


def test_import_leaves_jsonschema_unloaded():
    # jsonschema is loaded only for a record the package cannot certify
    src = Path(duallab.__file__).resolve().parents[1]
    code = "import sys, duallab; print('jsonschema' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout
    assert out.strip() == "False"

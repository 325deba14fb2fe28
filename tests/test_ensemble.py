import dataclasses
import io
import json
import os
import tempfile
from contextlib import contextmanager, redirect_stderr
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleflow import (
    ConfigError,
    RunConfig,
    inclusion_hs_norm,
    q_lambda_trace,
    run_ensemble,
    run_experiment,
    validation_checks,
)
from circleflow import basis, ensemble
from circleflow.cli import main as cli_main
from circleflow.ensemble import _percentile, _safe_ratio

SEED = 20240817
DOCS = Path(__file__).resolve().parent.parent / "docs"
SCHEMA = json.loads((DOCS / "summary.schema.json").read_text())

# Values a hand-edited or generated config can carry in any one field.
MUTATION_POOL = (
    float("nan"), float("inf"), float("-inf"), -1, 0, 1.5, "x", None, [], 2**64, True,
)


def _mutable_fields():
    doc = json.loads((DOCS / "example-config.json").read_text())
    fields = [(key,) for key in doc] + [("flow_tolerance",)]
    fields += [("solver", key) for key in doc["solver"]]
    fields += [("solver", "alpha", key) for key in doc["solver"]["alpha"]]
    return fields


MUTABLE_FIELDS = _mutable_fields()


@contextmanager
def _inside(directory):
    """Run the block with ``directory`` as the working directory."""
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def base_config(tmp_path, **overrides):
    cfg = {
        "experiment": "simulate",
        "master_seed": SEED,
        "n_paths": 2,
        "record_every": 10,
        "output_dir": str(tmp_path / "out"),
        "solver": {
            "dt": 0.001,
            "horizon": 0.02,
            "mode_cutoff": 8,
            "grid_size": 64,
            "alpha": {"family": "exponential", "parameter": 1.0},
            "radius": 0.5,
            "k": 2,
            "scheme": "euler",
        },
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, name="config.json", **overrides):
    cfg = base_config(tmp_path, **overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestRunConfig:
    def test_round_trip_lossless(self, tmp_path):
        path, raw = write_config(tmp_path)
        cfg = RunConfig.from_file(path)
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert cfg.solver.dt == raw["solver"]["dt"]

    def test_unknown_experiment_rejected(self, tmp_path):
        path, _ = write_config(tmp_path, experiment="explode")
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)

    def test_solver_validation_propagates(self, tmp_path):
        path, _ = write_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["solver"]["grid_size"] = 8  # below 4N
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)


class TestSimulateExperiment:
    def test_zero_horizon_single_row_per_path(self, tmp_path):
        path, raw = write_config(tmp_path, n_paths=3)
        data = json.loads(path.read_text())
        data["solver"]["horizon"] = 0.0
        path.write_text(json.dumps(data))
        cfg = RunConfig.from_file(path)
        code, artifacts = run_experiment(cfg)
        assert code == 0
        rows = (Path(raw["output_dir"]) / "paths.csv").read_text().strip().splitlines()
        assert rows[0] == "path_id,t,hk,min_deriv,stopped"
        assert len(rows) == 1 + 3
        for pid, row in enumerate(rows[1:]):
            assert row == f"{pid},0.0,0.0,1.0,0"

    def test_rerun_byte_identical(self, tmp_path):
        path, raw = write_config(tmp_path)
        cfg = RunConfig.from_file(path)
        run_experiment(cfg)
        first_csv = (Path(raw["output_dir"]) / "paths.csv").read_bytes()
        first_json = (Path(raw["output_dir"]) / "summary.json").read_bytes()
        run_experiment(cfg)
        assert (Path(raw["output_dir"]) / "paths.csv").read_bytes() == first_csv
        assert (Path(raw["output_dir"]) / "summary.json").read_bytes() == first_json

    def test_parallel_equals_serial(self, tmp_path):
        serial, _ = write_config(
            tmp_path, name="serial.json", output_dir=str(tmp_path / "a"), n_paths=4
        )
        parallel, _ = write_config(
            tmp_path, name="parallel.json", output_dir=str(tmp_path / "b"), workers=2, n_paths=4
        )
        run_experiment(RunConfig.from_file(serial))
        run_experiment(RunConfig.from_file(parallel))
        assert (tmp_path / "a" / "paths.csv").read_bytes() == (tmp_path / "b" / "paths.csv").read_bytes()

    def test_summary_validates_against_schema(self, tmp_path):
        path, raw = write_config(tmp_path)
        run_experiment(RunConfig.from_file(path))
        summary = json.loads((Path(raw["output_dir"]) / "summary.json").read_text())
        jsonschema.validate(summary, SCHEMA)
        assert summary["n_paths"] == 2
        assert len(summary["tau_r"]) == 2
        assert summary["hk_quantiles"]["p05"] is not None

    def test_documented_config_quantiles_cover_the_record_grid(self, tmp_path):
        # paths cross the radius at different off-grid steps; the quantiles
        # still run over every recorded grid time, t = 0 .. 1 every 10 steps
        cfg = json.loads((DOCS / "example-config.json").read_text())
        cfg["n_paths"] = 4
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert any(t is not None for t in summary["tau_r"])
        assert len(summary["times"]) == 101
        assert summary["times"][0] == 0.0 and summary["times"][-1] == pytest.approx(1.0)
        for quantiles in (summary["hk_quantiles"], summary["min_deriv_quantiles"]):
            assert sorted(quantiles) == ["p05", "p50", "p95"]
            assert all(len(series) == 101 for series in quantiles.values())

    def test_quantile_times_end_at_the_last_step(self, tmp_path):
        path, raw = write_config(tmp_path)
        data = json.loads(path.read_text())
        data["solver"]["horizon"] = 0.023  # 23 steps at record_every 10
        path.write_text(json.dumps(data))
        run_experiment(RunConfig.from_file(path))
        summary = json.loads((Path(raw["output_dir"]) / "summary.json").read_text())
        assert [round(t / 0.001) for t in summary["times"]] == [0, 10, 20, 23]

    def test_percentile_equals_numpy(self, rng):
        for n_paths in range(1, 12):
            values = rng.normal(size=(n_paths, 7)) * rng.uniform(0.1, 10.0)
            ordered = np.sort(values, axis=0)
            for q in (0, 5, 33, 50, 95, 100):
                got = _percentile(ordered, q)
                assert np.array_equal(got, np.percentile(values, q, axis=0))

    def test_quantiles_monotone(self, tmp_path):
        path, raw = write_config(tmp_path, n_paths=5)
        run_experiment(RunConfig.from_file(path))
        summary = json.loads((Path(raw["output_dir"]) / "summary.json").read_text())
        q = summary["hk_quantiles"]
        for lo, hi in zip(q["p05"], q["p50"]):
            assert lo <= hi + 1e-15
        for lo, hi in zip(q["p50"], q["p95"]):
            assert lo <= hi + 1e-15


class TestRunEnsemble:
    @staticmethod
    def outcome(records):
        return [(r.samples, r.tau_r) for r in records]

    def test_solver_major_and_independent_of_workers(self, tmp_path):
        cfg = RunConfig.from_dict(base_config(tmp_path, n_paths=3, record_every=5))
        solvers = [dataclasses.replace(cfg.solver, radius=r) for r in (0.02, 0.5)]
        serial = run_ensemble(cfg, solvers, stop_after_hit=True)
        assert len(serial) == 6
        for i, solver in enumerate(solvers):
            alone = run_ensemble(cfg, [solver], stop_after_hit=True)
            assert self.outcome(serial[3 * i : 3 * i + 3]) == self.outcome(alone)
        pooled = run_ensemble(dataclasses.replace(cfg, workers=2), solvers, stop_after_hit=True)
        assert self.outcome(pooled) == self.outcome(serial)
        # the small radius is hit, and stop_after_hit ends those paths early
        assert all(r.tau_r is not None for r in serial[:3])
        assert all(r.samples[-1].t == r.tau_r for r in serial[:3])

    @staticmethod
    def fingerprint(records):
        """Everything a record holds, states as raw bytes."""
        def state(f):
            return None if f is None else f.grid_values.tobytes()

        return [
            (r.samples, r.tau_r, state(r.state_at_tau), state(r.final_state)) for r in records
        ]

    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    @pytest.mark.parametrize("stop_after_hit", [False, True])
    def test_paths_identical_across_block_sizes_and_workers(
        self, tmp_path, monkeypatch, scheme, stop_after_hit
    ):
        cfg = RunConfig.from_dict(base_config(tmp_path, n_paths=9, record_every=3))
        solvers = [
            dataclasses.replace(cfg.solver, radius=r, horizon=0.05, scheme=scheme)
            for r in (0.1, 1.0)
        ]
        runs = []
        for rows in (1, 7, cfg.n_paths):
            monkeypatch.setattr(ensemble, "BLOCK_ROWS", rows)
            for workers in (1, 2):
                pool_cfg = dataclasses.replace(cfg, workers=workers)
                runs.append(self.fingerprint(run_ensemble(pool_cfg, solvers, stop_after_hit)))
        assert all(run == runs[0] for run in runs[1:])
        # the small radius is hit at different steps (under stop_after_hit
        # the rows leave their block one by one)
        taus = {r[1] for r in runs[0][: cfg.n_paths]}
        assert None not in taus and len(taus) > 1

    def test_block_tasks_cover_the_paths(self):
        assert ensemble._blocks(4, 1) == [(0, 4)]
        assert ensemble._blocks(50, 2) == [(0, 25), (25, 50)]
        assert ensemble._blocks(3, 8) == [(0, 1), (1, 2), (2, 3)]
        for n_paths, workers in ((1, 1), (200, 1), (200, 2), (129, 3), (1000, 16)):
            blocks = ensemble._blocks(n_paths, workers)
            assert len(blocks) >= min(n_paths, workers)
            assert [b[0] for b in blocks[1:]] == [b[1] for b in blocks[:-1]]
            assert blocks[0][0] == 0 and blocks[-1][1] == n_paths
            assert max(stop - first for first, stop in blocks) <= ensemble.BLOCK_ROWS

    @pytest.mark.parametrize(
        "command", ["run", "validate", "flow-check", "hitting-times", "contrast"]
    )
    def test_artifacts_identical_across_workers(self, tmp_path, capsys, command):
        cfg = base_config(tmp_path, n_paths=3, radii=[0.02, 0.05])
        cfg["solver"].update(grid_size=256, mode_cutoff=32, horizon=0.01)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        blobs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert cli_main([command, str(path), "--workers", workers, "--out", str(out)]) == 0
            printed = capsys.readouterr().out.splitlines()
            assert sorted(printed) == sorted(str(p) for p in out.iterdir())
            blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert blobs[0] == blobs[1]
        if command in ("validate", "flow-check"):
            report = json.loads(blobs[0]["report.json"])
            summary = json.loads(blobs[0]["summary.json"])
            assert report["checks"] == summary["checks"] != []


class TestHittingExperiment:
    def test_tiny_radius_crosses_immediately(self, tmp_path):
        path, raw = write_config(tmp_path, experiment="hitting_times", radii=[1e-9], n_paths=4)
        code, _ = run_experiment(RunConfig.from_file(path))
        assert code == 0
        summary = json.loads((Path(raw["output_dir"]) / "summary.json").read_text())
        row = summary["extra"]["hitting_table"][0]
        assert row["mean_tau"] == pytest.approx(0.001)
        assert row["n_censored"] == 0

    def test_huge_radius_reported_as_lower_bound(self, tmp_path):
        path, raw = write_config(tmp_path, experiment="hitting_times", radii=[100.0], n_paths=3)
        code, _ = run_experiment(RunConfig.from_file(path))
        summary = json.loads((Path(raw["output_dir"]) / "summary.json").read_text())
        row = summary["extra"]["hitting_table"][0]
        assert row["n_censored"] == 3
        assert row["mean_tau"] == pytest.approx(0.02)  # the horizon
        assert row["mean_is_lower_bound"]

    def test_mean_nondecreasing_check_recorded(self, tmp_path):
        path, raw = write_config(
            tmp_path, experiment="hitting_times", radii=[0.02, 0.05], n_paths=6
        )
        data = json.loads(path.read_text())
        data["solver"]["horizon"] = 0.5
        path.write_text(json.dumps(data))
        code, _ = run_experiment(RunConfig.from_file(path))
        assert code == 0
        summary = json.loads((Path(raw["output_dir"]) / "summary.json").read_text())
        names = [c["name"] for c in summary["checks"]]
        assert "mean_tau_nondecreasing_in_radius" in names

    def test_fails_when_no_path_hits(self, tmp_path):
        # at horizon 0 every path is censored at t = 0: the means are all 0.0
        cfg = json.loads((DOCS / "example-config.json").read_text())
        cfg["n_paths"] = 2
        cfg["solver"]["horizon"] = 0.0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli_main(["hitting-times", str(path), "--out", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        check = summary["checks"][0]
        assert check["value"] == [0.0] * 4
        assert not check["passed"]
        assert all(row["n_censored"] == 2 for row in summary["extra"]["hitting_table"])


class TestContrastExperiment:
    def test_safe_ratio_zero_over_zero_is_one(self):
        assert _safe_ratio(0.0, 0.0) == 1.0
        assert _safe_ratio(1.0, 0.0) == float("inf")
        assert _safe_ratio(3.0, 2.0) == 1.5

    def test_dichotomy_recorded(self, tmp_path):
        path, raw = write_config(tmp_path, experiment="contrast_h32", n_paths=2)
        data = json.loads(path.read_text())
        data["solver"]["grid_size"] = 256
        data["solver"]["mode_cutoff"] = 32
        data["solver"]["horizon"] = 0.05
        path.write_text(json.dumps(data))
        code, _ = run_experiment(RunConfig.from_file(path))
        assert code == 0
        summary = json.loads((Path(raw["output_dir"]) / "summary.json").read_text())
        values = {c["name"]: c["value"] for c in summary["checks"]}
        assert values["exponential_cutoff_doubling_stable"] < 1.05
        assert values["powerlaw_cutoff_doubling_unstable"] > 1.20


class TestValidationBattery:
    def test_at_least_ten_checks_all_pass(self):
        checks = validation_checks(SEED)
        assert len(checks) >= 10
        failed = [c["name"] for c in checks if not c["passed"]]
        assert failed == []

    def test_trace_check_fails_on_a_wrong_partial_sum(self, monkeypatch):
        # The partial sum one term short, 1 + 2 sum_{n<=9} 1/n^2, inside the
        # definition q_lambda_trace squares: trace and squared HS norm still
        # agree, but the independently summed value does not.
        monkeypatch.setattr(basis, "inclusion_hs_norm", lambda n: inclusion_hs_norm(n - 1))
        assert q_lambda_trace(10) == inclusion_hs_norm(9) ** 2
        checks = {c["name"]: c["passed"] for c in validation_checks(SEED)}
        assert checks.pop("trace_matches_partial_sum") is False
        assert all(checks.values())

    def test_writes_report_with_values_and_bounds(self, tmp_path):
        path, raw = write_config(tmp_path, experiment="validate")
        code, artifacts = run_experiment(RunConfig.from_file(path))
        assert code == 0
        report = json.loads((Path(raw["output_dir"]) / "report.json").read_text())
        assert len(report["checks"]) >= 10
        for check in report["checks"]:
            assert {"name", "value", "bound", "passed"} <= set(check)


class TestFlowCheckExperiment:
    def test_sine_initial_map(self, tmp_path):
        path, raw = write_config(
            tmp_path, experiment="flow_check", xi_kind="sine", xi_amplitude=0.1, record_every=5,
        )
        data = json.loads(path.read_text())
        data["solver"]["grid_size"] = 256
        data["solver"]["horizon"] = 0.05
        path.write_text(json.dumps(data))
        code, _ = run_experiment(RunConfig.from_file(path))
        assert code == 0
        report = json.loads((Path(raw["output_dir"]) / "report.json").read_text())
        check = report["checks"][0]
        assert check["passed"]
        assert check["value"] <= 1e-4
        assert report["n_checked"] == 11  # t = 0 and every 5th of 50 steps
        assert report["window"] == pytest.approx(0.05)

    def test_documented_config_passes(self, tmp_path):
        out = tmp_path / "out"
        assert cli_main(["flow-check", str(DOCS / "example-config.json"), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_checked"] > 1
        assert report["window"] < 1.0  # both runs stop before the horizon

    def test_xi_at_the_radius_fails(self, tmp_path):
        # ||0.5 sin||_{H^2} = 0.5 = radius: the run from xi starts stopped
        path, raw = write_config(tmp_path, experiment="flow_check", xi_amplitude=0.5)
        assert cli_main(["flow-check", str(path)]) == 1
        report = json.loads((Path(raw["output_dir"]) / "report.json").read_text())
        assert not report["checks"][0]["passed"]
        assert report["n_checked"] == 0


class TestCli:
    def test_run_and_exit_codes(self, tmp_path, capsys):
        path, raw = write_config(tmp_path)
        assert cli_main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "paths.csv" in out and "summary.json" in out

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert cli_main(["run", str(bad)]) == 2

    @pytest.mark.parametrize(
        "command, solver, overrides",
        [
            pytest.param("run", {}, {"master_seed": -1}, id="seed-negative"),
            pytest.param("run", {}, {"master_seed": 2**64}, id="seed-2**64"),
            pytest.param("run", {"horizon": float("nan")}, {}, id="horizon-nan"),
            pytest.param("run", {"horizon": float("inf")}, {}, id="horizon-inf"),
            pytest.param("run", {"horizon": 0.0105, "dt": 0.001}, {}, id="horizon-off-grid"),
            pytest.param("run", {}, {"n_paths": 1.5}, id="n_paths-fractional"),
            pytest.param("hitting-times", {}, {"radii": []}, id="radii-empty"),
            pytest.param("run", {"k": 2.5}, {}, id="k-fractional"),
            pytest.param("hitting-times", {}, {"radii": ["a"]}, id="radii-string"),
            pytest.param("hitting-times", {}, {"radii": [-0.1]}, id="radii-negative"),
            pytest.param("hitting-times", {}, {"radii": [float("nan")]}, id="radii-nan"),
            pytest.param("flow-check", {}, {"xi_amplitude": "x"}, id="xi_amplitude-string"),
            pytest.param("flow-check", {}, {"xi_amplitude": float("nan")}, id="xi_amplitude-nan"),
            pytest.param("flow-check", {}, {"flow_tolerance": "x"}, id="flow_tolerance-string"),
            # the field is gone; the bound is derived from xi_kind
            pytest.param("flow-check", {}, {"flow_tolerance": 1e-4}, id="flow_tolerance-removed"),
            pytest.param(
                "run",
                {"alpha": {"family": "exponential", "parameter": float("inf")}},
                {},
                id="alpha-parameter-inf",
            ),
            pytest.param(
                "run",
                {"alpha": {"family": "exponential", "parameter": "1.5"}},
                {},
                id="alpha-parameter-string",
            ),
            # Sizes no run can finish go through `validate`, which starts no
            # pool and integrates nothing, should the validation ever let
            # them through.
            pytest.param("validate", {}, {"workers": 2**64}, id="workers-2**64"),
            pytest.param("validate", {}, {"n_paths": 2**64}, id="n_paths-2**64"),
            pytest.param("validate", {"grid_size": 2**64}, {}, id="grid_size-2**64"),
            pytest.param("validate", {"horizon": 2**64}, {}, id="horizon-2**64"),
            pytest.param("run", {"mode_cutoff": 0}, {}, id="mode_cutoff-zero"),
            pytest.param("run", {"k": 2**64}, {}, id="k-2**64"),
            pytest.param("run", {}, {"output_dir": True}, id="output_dir-bool"),
            # valid at grid 64, but n^(2k) overflows on contrast's grid 256
            pytest.param("contrast", {"k": 80}, {}, id="contrast-k-80"),
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, command, solver, overrides):
        cfg = base_config(tmp_path, **overrides)
        cfg["solver"].update(solver)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli_main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-a-file"])
    def test_uncreatable_output_dir_exits_2(self, tmp_path, capsys, monkeypatch, below):
        path, _ = write_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setattr(ensemble, "run_ensemble", mock.Mock(side_effect=AssertionError))
        assert cli_main(["run", str(path), "--out", str(blocker / below)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert blocker.read_text() == ""

    @pytest.mark.parametrize(
        "command, artifact", [("validate", "paths.csv"), ("flow-check", "summary.json")]
    )
    def test_unwritable_artifact_exits_2(self, tmp_path, capsys, command, artifact):
        path, _ = write_config(tmp_path)
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)  # a directory where the file goes
        assert cli_main([command, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write artifact:") and err.count("\n") == 1
        assert "Traceback" not in err

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(field=st.sampled_from(MUTABLE_FIELDS), value=st.sampled_from(MUTATION_POOL))
    def test_mutated_example_config_exits_cleanly(self, field, value):
        cfg = json.loads((DOCS / "example-config.json").read_text())
        cfg["n_paths"] = 1
        cfg["solver"]["horizon"] = 2 * cfg["solver"]["dt"]
        *parents, leaf = field
        target = cfg
        for key in parents:
            target = target[key]
        target[leaf] = value
        try:
            parsed = RunConfig.from_dict(cfg)
        except ConfigError:
            parsed = None
        rejected = parsed is None
        if not rejected:
            # The largest run the pool can make valid is horizon 1.5 (1500
            # steps); anything bigger means the validation let through a
            # size that no run finishes, so stop before starting it.
            assert parsed.workers == 1
            assert parsed.n_paths * parsed.solver.n_steps * parsed.solver.grid_size <= 1500 * 128
        with tempfile.TemporaryDirectory() as tmp, _inside(tmp):
            Path("config.json").write_text(json.dumps(cfg))
            for command in ("hitting-times", "flow-check"):
                err = io.StringIO()
                with redirect_stderr(err), mock.patch.dict(os.environ, {"CIRCLEFLOW_OUTDIR": "out"}):
                    code = cli_main([command, "config.json"])
                assert code in (0, 1, 2), (command, err.getvalue())
                assert (code == 2) == rejected, (command, err.getvalue())

    def test_seed_and_out_overrides(self, tmp_path):
        path, raw = write_config(tmp_path)
        alt = tmp_path / "alt"
        assert cli_main(["run", str(path), "--seed", "7", "--out", str(alt)]) == 0
        assert (alt / "paths.csv").exists()
        baseline = Path(raw["output_dir"])
        cli_main(["run", str(path)])
        assert (alt / "paths.csv").read_bytes() != (baseline / "paths.csv").read_bytes()

    def test_subcommand_forces_experiment(self, tmp_path):
        path, raw = write_config(tmp_path)  # experiment says simulate
        assert cli_main(["validate", str(path), "--out", str(tmp_path / "v")]) == 0
        assert (tmp_path / "v" / "report.json").exists()

    def test_env_var_default_outdir(self, tmp_path, monkeypatch):
        path, _ = write_config(tmp_path, output_dir="")
        monkeypatch.setenv("CIRCLEFLOW_OUTDIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert cli_main(["run", str(path)]) == 0
        assert (tmp_path / "envout" / "paths.csv").exists()

import csv
import dataclasses
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import uuid
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
    NoiseStream,
    RunConfig,
    ScaledBasis,
    ScalingSequence,
    diffeo_radius,
    grid_points,
    run_ensemble,
    run_experiment,
    validation_checks,
)
from circleflow import ensemble, flow
from circleflow.cli import build_parser, load_config
from circleflow.cli import main as cli_main
from circleflow.circlefn import CircleFunction, _analyze
from circleflow.ensemble import _decay_fit, _percentile, _safe_ratio
from conftest import columns

SEED = 20240817
ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"
SCHEMA = json.loads((DOCS / "summary.schema.json").read_text())

# Stands for a field removed from the config.
DELETE = mock.sentinel.DELETE

# Values a hand-edited or generated config can carry in any one field.
MUTATION_POOL = (
    float("nan"), float("inf"), float("-inf"), -1, 0, 1.5, "x", None, [], 2**64, True, DELETE,
)


def _mutable_fields():
    doc = json.loads((DOCS / "example-config.json").read_text())
    fields = [(key,) for key in doc] + [("flow_tolerance",)]
    fields += [("solver", key) for key in doc["solver"]]
    fields += [("solver", "alpha", key) for key in doc["solver"]["alpha"]]
    return fields


MUTABLE_FIELDS = _mutable_fields()


def _mutated(cfg, field, value):
    """``cfg`` with the value at the key path ``field`` set to ``value``, or
    removed for ``DELETE``; the empty path replaces the whole config."""
    if not field:
        return value
    *parents, leaf = field
    target = cfg
    for key in parents:
        target = target[key]
    if value is DELETE:
        target.pop(leaf, None)
    else:
        target[leaf] = value
    return cfg


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


def write_diffeo_config(tmp_path, **solver):
    """``write_config`` at R = diffeo_radius(2), the largest radius that
    `validate` accepts at k = 2, with the given solver fields overridden."""
    cfg = base_config(tmp_path)
    cfg["solver"].update({"radius": diffeo_radius(2), **solver})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestRunConfig:
    def test_unknown_experiment_rejected(self, tmp_path):
        path, _ = write_config(tmp_path, experiment="explode")
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)

    @pytest.mark.parametrize("output_dir", [DELETE, None], ids=["absent", "null"])
    def test_run_experiment_without_output_dir(self, tmp_path, monkeypatch, output_dir):
        cfg = _mutated(base_config(tmp_path), ("output_dir",), output_dir)
        monkeypatch.setenv("CIRCLEFLOW_OUTDIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert run_experiment(RunConfig.from_dict(cfg))[0] == 0
        assert (tmp_path / "envout" / "paths.csv").exists()
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize(
        "command", ["run", "validate", "flow-check", "hitting-times", "contrast"]
    )
    def test_summary_validates_against_schema(self, tmp_path, command):
        # hitting-times holds a record per path and radius (4 default radii)
        n_paths = {"validate": 0, "flow-check": 1, "hitting-times": 8}.get(command, 2)
        path, raw = write_config(tmp_path)
        assert cli_main([command, str(path)]) in (0, 1)
        summary = json.loads((Path(raw["output_dir"]) / "summary.json").read_text())
        jsonschema.validate(summary, SCHEMA)
        assert summary["n_paths"] == n_paths
        sampled = command in ("run", "hitting-times")
        assert len(summary["tau_r"]) == (n_paths if sampled else 0)
        assert sorted(summary["hk_quantiles"]) == (["p05", "p50", "p95"] if sampled else [])

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


def polyfit_decay(finals):
    """The decay exponent as ``np.polyfit`` fits it over the mean amplitudes
    that ``_decay_fit`` forms, with the fitted points ``(x, y)``."""
    a, b = _analyze(np.array([f.grid_values for f in finals]))
    mean_amp = np.mean(np.hypot(a[:, 1:], b[:, 1:]), axis=0)
    n = np.arange(1, mean_amp.size + 1, dtype=float)
    keep = mean_amp > 1e-300
    x, y = n[keep], np.log(mean_amp[keep])
    return -np.polyfit(x, y, 1)[0], x, y


def slope_tolerance(x, y):
    """Relative distance allowed between two double-precision least-squares
    slopes of ``(x, y)``.

    The slope is ``sum(dx * dy) / sum(dx * dx)`` with ``dx``, ``dy`` the
    centered points.  A sum of K terms is within ``K eps sum|terms|`` of its
    exact value, so its relative error is at most ``K eps`` times its
    condition number ``sum|terms| / |sum terms|``: 1 for ``sum(dx * dx)``,
    ``c = sum|dx dy| / |sum dx dy|`` for the numerator.  The centering
    itself adds at most ``K eps`` to each.  So one slope is within
    ``2 K eps (1 + c)`` of the exact one; LAPACK's SVD solver is backward
    stable, and on the two well-scaled columns of a line fit it meets a
    bound of the same order.  Two slopes: ``4 K eps (1 + c)``.
    """
    dx, dy = x - x.mean(), y - y.mean()
    cond = np.sum(np.abs(dx * dy)) / abs(np.sum(dx * dy))
    return 4 * x.size * np.finfo(float).eps * (1 + cond)


class TestDecayFit:
    def test_equals_polyfit_on_the_final_states_of_a_run(self, tmp_path):
        cfg = RunConfig.from_dict(base_config(tmp_path, n_paths=4))
        [records] = run_ensemble(cfg, [cfg.solver])
        finals = [r.final_state for r in records]
        expected, x, y = polyfit_decay(finals)
        assert math.isfinite(expected) and x.size >= 2
        assert _decay_fit(finals) == pytest.approx(expected, rel=slope_tolerance(x, y), abs=0)

    @pytest.mark.parametrize("p", [0.1, 0.5, 1.0, 3.0])
    def test_equals_polyfit_on_noisy_exponential_spectra(self, rng, p):
        # amplitudes exp(-p n) times log-normal noise, at random phases; at
        # p = 3 the high modes sink to rounding level, as in a long run
        m = 64
        n = np.arange(m // 2 + 1)
        finals = []
        for _ in range(3):
            amp = np.exp(-p * n) * np.exp(rng.normal(scale=0.3, size=n.size))
            phase = rng.uniform(0, 2 * np.pi, size=n.size)
            a, b = amp * np.cos(phase), amp * np.sin(phase)
            finals.append(CircleFunction.from_coefficients(a, b))
        expected, x, y = polyfit_decay(finals)
        assert _decay_fit(finals) == pytest.approx(expected, rel=slope_tolerance(x, y), abs=0)
        if p * (m // 2) < 20:  # every mode above rounding: the fit finds p
            assert _decay_fit(finals) == pytest.approx(p, rel=0.2)

    def test_fewer_than_two_modes_is_nan_and_null(self, tmp_path):
        zero = CircleFunction.zero(64)
        nyquist = CircleFunction.harmonic(64, 32, cos_amp=0.1)  # +-0.1: one exact mode
        for finals, n_modes in (([zero], 0), ([nyquist], 1), ([zero, nyquist], 1), ([None], None)):
            if n_modes is not None:
                a, b = _analyze(np.array([f.grid_values for f in finals]))
                assert np.count_nonzero(np.hypot(a[:, 1:], b[:, 1:]).mean(axis=0)) == n_modes
            assert math.isnan(_decay_fit(finals))
        # at horizon 0 every final state is the identity: no mode to fit
        path, raw = write_config(tmp_path)
        data = json.loads(path.read_text())
        data["solver"]["horizon"] = 0.0
        path.write_text(json.dumps(data))
        run_experiment(RunConfig.from_file(path))
        summary = json.loads((Path(raw["output_dir"]) / "summary.json").read_text())
        assert summary["decay_fit_exponent"] is None

    def test_summarize_calls_no_least_squares_solver(self, tmp_path, monkeypatch):
        cfg = RunConfig.from_dict(base_config(tmp_path))
        [records] = run_ensemble(cfg, [cfg.solver])

        def refused(*args, **kwargs):
            raise AssertionError("least-squares solver called")

        monkeypatch.setattr(np, "polyfit", refused)
        monkeypatch.setattr(np.linalg, "lstsq", refused)
        summary = ensemble.summarize(records, cfg)
        assert math.isfinite(summary["decay_fit_exponent"])


class TestPathsCsv:
    @pytest.mark.parametrize("experiment", ["simulate", "flow_check"])
    def test_rows_parse_back_to_the_read_only_record_columns(self, tmp_path, experiment):
        path, raw = write_config(tmp_path, experiment=experiment, n_paths=3, record_every=3)
        cfg = RunConfig.from_file(path)
        _, runs = ensemble.EXPERIMENTS[experiment](cfg)
        run_experiment(cfg)
        with open(Path(raw["output_dir"]) / "paths.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert sorted({int(row[0]) for row in rows}) == list(range(len(runs)))
        for pid, record in enumerate(runs):
            mine = [row[1:] for row in rows if int(row[0]) == pid]
            t, hk, md = (np.array([float(row[i]) for row in mine]) for i in range(3))
            stopped = np.array([int(row[3]) for row in mine], dtype=bool)
            assert columns(record) == tuple(c.tobytes() for c in (t, hk, md, stopped))
            for column in (record.t, record.hk, record.min_deriv, record.stopped):
                assert not column.flags.writeable
            with pytest.raises(ValueError):
                record.hk[0] = 1.0


class TestRunEnsemble:
    @staticmethod
    def outcome(records):
        return [(columns(r), r.tau_r) for r in records]

    def test_solver_major_and_independent_of_workers(self, tmp_path):
        cfg = RunConfig.from_dict(base_config(tmp_path, n_paths=3, record_every=5))
        solvers = [dataclasses.replace(cfg.solver, radius=r) for r in (0.02, 0.5)]
        serial = run_ensemble(cfg, solvers, stop_after_hit=True)
        assert [len(records) for records in serial] == [3, 3]
        for records, solver in zip(serial, solvers):
            [alone] = run_ensemble(cfg, [solver], stop_after_hit=True)
            assert self.outcome(records) == self.outcome(alone)
        pooled = run_ensemble(dataclasses.replace(cfg, workers=2), solvers, stop_after_hit=True)
        assert list(map(self.outcome, pooled)) == list(map(self.outcome, serial))
        # the small radius is hit, and stop_after_hit ends those paths early
        assert all(r.tau_r is not None for r in serial[0])
        assert all(r.t[-1] == r.tau_r for r in serial[0])

    @staticmethod
    def fingerprint(per_solver):
        """Everything the records of ``run_ensemble`` hold, solver after
        solver, states as raw bytes."""
        def state(f):
            return None if f is None else f.grid_values.tobytes()

        return [
            (columns(r), r.tau_r, state(r.state_at_tau), state(r.final_state))
            for records in per_solver
            for r in records
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

    @pytest.mark.parametrize("stop_after_hit", [False, True])
    def test_mixed_solvers_share_a_block_bitwise(self, tmp_path, monkeypatch, stop_after_hit):
        # Rows of different cutoffs, weight families and radii in one block:
        # each solver's records are bitwise those of its solo run, on its
        # own-cutoff streams, at every block size and worker count; a
        # block of three rows holds one path under all three solvers.
        cfg = RunConfig.from_dict(base_config(tmp_path, n_paths=4, record_every=3))
        base = dataclasses.replace(cfg.solver, horizon=0.05, grid_size=128)
        solvers = [
            dataclasses.replace(base, mode_cutoff=8, radius=0.05),
            dataclasses.replace(
                base, mode_cutoff=32, alpha=ScalingSequence.powerlaw(1.5), radius=10.0
            ),
            dataclasses.replace(
                base, mode_cutoff=16, alpha=ScalingSequence.exponential(0.5), radius=0.3
            ),
        ]
        solo = [
            r for s in solvers for r in self.fingerprint(run_ensemble(cfg, [s], stop_after_hit))
        ]
        for rows in (1, 3, cfg.n_paths * len(solvers)):
            monkeypatch.setattr(ensemble, "BLOCK_ROWS", rows)
            for workers in (1, 2):
                pool_cfg = dataclasses.replace(cfg, workers=workers)
                assert self.fingerprint(run_ensemble(pool_cfg, solvers, stop_after_hit)) == solo
        # the low-cutoff row stops while the others of its path step on
        taus = [r[1] for r in solo]
        assert all(t is not None for t in taus[: cfg.n_paths])
        assert any(t is None for t in taus[cfg.n_paths :])

    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    @pytest.mark.parametrize("stop_after_hit", [False, True])
    def test_radii_share_a_row_bitwise(self, tmp_path, monkeypatch, stop_after_hit, scheme):
        # Radii unsorted, 0.05 twice and 10.0 never reached: each radius's
        # records are bitwise those of its solo run, at every block size
        # and worker count, also at a record_every past the int64 range,
        # where only the start, the crossing and the last step are kept.
        # Under stop_after_hit and Euler the six solvers step as one row
        # per path; Heun, whose predictor may leave a ball first, keeps a
        # row per radius.
        radii = (0.3, 0.05, 10.0, 0.1, 0.05, 0.2)
        for every in (3, 2**64):
            cfg = RunConfig.from_dict(base_config(tmp_path, n_paths=4, record_every=every))
            base = dataclasses.replace(cfg.solver, horizon=0.05, scheme=scheme)
            solvers = [dataclasses.replace(base, radius=r) for r in radii]
            solo = [
                r
                for s in solvers
                for r in self.fingerprint(run_ensemble(cfg, [s], stop_after_hit))
            ]
            for rows in (1, 3, 64):
                monkeypatch.setattr(ensemble, "BLOCK_ROWS", rows)
                for workers in (1, 2):
                    pool_cfg = dataclasses.replace(cfg, workers=workers)
                    assert self.fingerprint(run_ensemble(pool_cfg, solvers, stop_after_hit)) == solo
            monkeypatch.undo()
        # every path reaches 0.05 and 0.1, at different steps; none reaches 10
        taus = [[r[1] for r in solo[i * cfg.n_paths : (i + 1) * cfg.n_paths]] for i in range(6)]
        assert None not in taus[1] + taus[3] and taus[1] != taus[3]
        assert taus[2] == [None] * cfg.n_paths

    def test_radii_step_the_rows_of_the_largest_alone(self, tmp_path, monkeypatch):
        # Under stop_after_hit a path's row under four radii is its row
        # under the largest: it steps as many rows, counted over the field
        # evaluations, as the largest radius alone.
        cfg = RunConfig.from_dict(base_config(tmp_path, n_paths=4))
        base = dataclasses.replace(cfg.solver, horizon=0.05)
        solvers = [dataclasses.replace(base, radius=r) for r in (0.1, 0.3, 0.05, 0.2)]
        field = flow.field_values
        stepped = []

        def counted(delta_b, weights, points):
            stepped.append(len(points))
            return field(delta_b, weights, points)

        monkeypatch.setattr(flow, "field_values", counted)
        run_ensemble(cfg, solvers, stop_after_hit=True)
        shared = sum(stepped)
        stepped.clear()
        run_ensemble(cfg, [solvers[1]], stop_after_hit=True)
        assert shared == sum(stepped) > 0

    @pytest.mark.parametrize("change", [{"grid_size": 128}, {"dt": 5e-4}])
    def test_solvers_that_cannot_share_a_block_raise(self, tmp_path, change):
        # Negative control: rows of one block share their grid and time steps.
        cfg = RunConfig.from_dict(base_config(tmp_path, n_paths=2))
        other = dataclasses.replace(cfg.solver, **change)
        with pytest.raises(ValueError, match=f"must share {next(iter(change))}"):
            run_ensemble(cfg, [cfg.solver, other])

    def test_block_tasks_cover_the_paths(self):
        assert ensemble._blocks(4, 1, 1) == [(0, 4)]
        assert ensemble._blocks(50, 1, 2) == [(0, 25), (25, 50)]
        assert ensemble._blocks(3, 1, 8) == [(0, 1), (1, 2), (2, 3)]
        # 50 paths of 4 rows: 16 paths (64 rows) per block at most
        assert ensemble._blocks(50, 4, 2) == [(0, 12), (12, 25), (25, 37), (37, 50)]
        # more rows per path than BLOCK_ROWS: one path per block
        assert ensemble._blocks(3, ensemble.BLOCK_ROWS + 1, 1) == [(0, 1), (1, 2), (2, 3)]
        cases = ((1, 1, 1), (200, 1, 1), (200, 4, 2), (129, 3, 3), (1000, 2, 16), (7, 70, 2))
        for n_paths, n_rows, workers in cases:
            blocks = ensemble._blocks(n_paths, n_rows, workers)
            assert len(blocks) >= min(n_paths, workers)
            assert [b[0] for b in blocks[1:]] == [b[1] for b in blocks[:-1]]
            assert blocks[0][0] == 0 and blocks[-1][1] == n_paths
            most = max(stop - first for first, stop in blocks)
            assert most <= max(1, ensemble.BLOCK_ROWS // n_rows)

    @pytest.mark.parametrize("block_rows", [64, 1])
    def test_each_path_is_drawn_by_one_task(self, tmp_path, monkeypatch, block_rows):
        # 3 paths under 2 solvers (2 rows each) on 2 workers: each path's
        # stream is built by exactly one block task, so no path straddles
        # two tasks, also when its rows exceed BLOCK_ROWS.  Pool workers
        # fork after the patches, and each task logs to a file.
        monkeypatch.setattr(ensemble, "BLOCK_ROWS", block_rows)
        cfg = RunConfig.from_dict(base_config(tmp_path, n_paths=3, workers=2))
        solvers = [dataclasses.replace(cfg.solver, radius=r) for r in (0.1, 1.0)]
        log = tmp_path / "tasks"
        log.mkdir()
        built = []  # path ids of the streams the running task built
        task = ensemble._run_one_path

        class Recorded(NoiseStream):
            def __post_init__(self):
                super().__post_init__()
                built.append(self.path_id)

        @functools.wraps(task)  # pickled by name, as the task it replaces
        def logged(args):
            built.clear()
            result = task(args)
            (log / f"{uuid.uuid4().hex}.json").write_text(json.dumps(built))
            return result

        monkeypatch.setattr(ensemble, "NoiseStream", Recorded)
        monkeypatch.setattr(ensemble, "_run_one_path", logged)
        run_ensemble(cfg, solvers)
        tasks = [json.loads(path.read_text()) for path in log.iterdir()]
        assert len(tasks) == len(ensemble._blocks(3, 2, 2))
        assert sorted(pid for paths in tasks for pid in paths) == list(range(cfg.n_paths))

    def test_pool_starts_one_worker_per_task(self, tmp_path, monkeypatch):
        # 3 paths make 3 tasks (``_blocks``): at 4 workers the pool forks 3
        # processes, not 4 with one idle, and the artifacts stay those of
        # one worker
        started = []

        class Recorded(ensemble.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", Recorded)
        path, _ = write_config(tmp_path, n_paths=3)
        blobs = []
        for workers in ("1", "4"):
            out = tmp_path / f"w{workers}"
            assert cli_main(["run", str(path), "--workers", workers, "--out", str(out)]) == 0
            blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert started == [3]
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize(
        "command", ["run", "validate", "flow-check", "hitting-times", "contrast"]
    )
    def test_artifacts_identical_across_workers(self, tmp_path, capsys, command):
        cfg = base_config(tmp_path, n_paths=3, radii=[0.02, 0.05])
        # R inside the H^2 ball where every state is a diffeomorphism, as
        # `validate` asks
        cfg["solver"].update(grid_size=256, mode_cutoff=32, horizon=0.01, radius=diffeo_radius(2))
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
            # the checks live in summary.json alone; validate steps no path
            written = {"summary.json"} if command == "validate" else {"paths.csv", "summary.json"}
            assert set(blobs[0]) == written
            assert json.loads(blobs[0]["summary.json"])["checks"] != []


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

    def test_order_check_reads_the_table_by_radius(self, tmp_path):
        # Descending radii give the ascending table reversed, and the order
        # check passes on both: it compares the means in radius order.
        tables = []
        for radii in ([0.02, 0.05], [0.05, 0.02]):
            out = tmp_path / "-".join(map(str, radii))
            path, _ = write_config(
                tmp_path, experiment="hitting_times", radii=radii, n_paths=6, output_dir=str(out)
            )
            data = json.loads(path.read_text())
            data["solver"]["horizon"] = 0.5
            path.write_text(json.dumps(data))
            code, _ = run_experiment(RunConfig.from_file(path))
            summary = json.loads((out / "summary.json").read_text())
            assert code == 0, summary["checks"]
            tables.append(summary["extra"]["hitting_table"])
        assert tables[1] == tables[0][::-1]
        assert tables[0][0]["mean_tau"] < tables[0][1]["mean_tau"]

    def test_summary_times_end_at_the_earliest_crossing(self, tmp_path):
        # Rows leave at their own crossing steps, so the times every row
        # recorded are the record-grid steps up to the earliest crossing.
        # n_paths, tau_r and path_id run over the (radius, path) rows,
        # radius-major.
        path, raw = write_config(
            tmp_path, experiment="hitting_times", radii=[0.3, 0.5], n_paths=3, record_every=5
        )
        data = json.loads(path.read_text())
        data["solver"]["horizon"] = 0.5
        path.write_text(json.dumps(data))
        assert run_experiment(RunConfig.from_file(path))[0] == 0
        out = Path(raw["output_dir"])
        summary = json.loads((out / "summary.json").read_text())
        tau = summary["tau_r"]
        assert summary["n_paths"] == len(tau) == 6 and None not in tau
        assert all(a <= b for a, b in zip(tau[:3], tau[3:]))  # radius 0.3 first
        crossing = [round(t / 0.001) for t in tau]
        assert len(set(crossing)) > 1 and min(crossing) % 5  # the earliest is off the grid
        assert [round(t / 0.001) for t in summary["times"]] == list(range(0, min(crossing) + 1, 5))
        with open(out / "paths.csv", newline="", encoding="utf-8") as fh:
            last = {int(row[0]): float(row[1]) for row in list(csv.reader(fh))[1:]}
        assert [last[pid] for pid in range(6)] == tau

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

    @staticmethod
    def run_contrast(tmp_path):
        """Exit code and checks of the contrast experiment at 2 paths to
        t = 0.05 on a grid of 256 points."""
        path, raw = write_config(tmp_path, experiment="contrast_h32", n_paths=2)
        data = json.loads(path.read_text())
        data["solver"]["grid_size"] = 256
        data["solver"]["mode_cutoff"] = 32
        data["solver"]["horizon"] = 0.05
        path.write_text(json.dumps(data))
        code, _ = run_experiment(RunConfig.from_file(path))
        summary = json.loads((Path(raw["output_dir"]) / "summary.json").read_text())
        return code, {c["name"]: c for c in summary["checks"]}

    def test_dichotomy_recorded(self, tmp_path):
        code, checks = self.run_contrast(tmp_path)
        assert code == 0
        assert checks["exponential_cutoff_doubling_stable"]["value"] < 1.05
        assert checks["powerlaw_cutoff_doubling_unstable"]["value"] > 1.20

    @pytest.mark.parametrize(
        "seq, failed, value",
        [
            # slow decay under the name of the rapidly decreasing family
            pytest.param(
                ScalingSequence.powerlaw(1.5), "exponential_cutoff_doubling_stable", 4.02,
                id="both-powerlaw",
            ),
            # rapid decay under the name of the slow family
            pytest.param(
                ScalingSequence.exponential(1.0), "powerlaw_cutoff_doubling_unstable", 1.00,
                id="both-exponential",
            ),
        ],
    )
    def test_negative_control_fails_its_check(self, tmp_path, monkeypatch, seq, failed, value):
        families = (("exponential", seq), ("powerlaw", seq))
        monkeypatch.setattr(ensemble, "_CONTRAST_FAMILIES", families)
        code, checks = self.run_contrast(tmp_path)
        assert code == 1
        assert [name for name, c in checks.items() if not c["passed"]] == [failed]
        assert checks[failed]["value"] == pytest.approx(value, abs=0.01)


VALIDATE_CHECKS = [
    "alpha_rapidly_decreasing",
    "radius_within_diffeo_ball",
    "hs_zero_state_closed_form",
    "hs_certificate_on_pilot",
    "lipschitz_on_pilot",
    "stratonovich_correction_zero",
]
PILOT_CHECKS = {"hs_certificate_on_pilot", "lipschitz_on_pilot", "stratonovich_correction_zero"}
POWERLAW = {"family": "powerlaw", "parameter": 1.5}


def validate_failures(path, out):
    """Exit code of `circleflow validate` on ``path`` and the names of the
    checks its summary marks failed."""
    code = cli_main(["validate", str(path), "--out", str(out)])
    checks = json.loads((out / "summary.json").read_text())["checks"]
    assert [c["name"] for c in checks] == VALIDATE_CHECKS
    return code, {c["name"] for c in checks if not c["passed"]}


class TestValidationChecks:
    def test_documented_config_passes_all_six(self):
        cfg = RunConfig.from_file(DOCS / "example-config.json")
        assert cfg.solver.radius == diffeo_radius(2)  # the radius check passes on equality
        checks = validation_checks(cfg)
        assert [c["name"] for c in checks] == VALIDATE_CHECKS
        assert [c["name"] for c in checks if not c["passed"]] == []

    def test_writes_report_with_values_and_bounds(self, tmp_path):
        path, _ = write_diffeo_config(tmp_path)
        assert validate_failures(path, tmp_path / "v") == (0, set())
        assert [p.name for p in (tmp_path / "v").iterdir()] == ["summary.json"]
        summary = json.loads((tmp_path / "v" / "summary.json").read_text())
        for check in summary["checks"]:
            assert {"name", "value", "bound", "passed"} == set(check)

    @pytest.mark.parametrize(
        "solver, failed",
        [
            pytest.param({"alpha": POWERLAW}, {"alpha_rapidly_decreasing"}, id="powerlaw-1.5"),
            # at N = 32 the pilot crosses R at step 1 as well: nothing compared
            pytest.param(
                {"alpha": POWERLAW, "mode_cutoff": 32, "grid_size": 128},
                {"alpha_rapidly_decreasing", *PILOT_CHECKS},
                id="powerlaw-1.5-N32",
            ),
            pytest.param({"radius": 1.0}, {"radius_within_diffeo_ball"}, id="radius-1"),
            pytest.param({"radius": 1e-9}, PILOT_CHECKS, id="radius-1e-9"),
            # no ball of diffeomorphisms below k = 2, no certificate outside
            # the orders 1..12 of the Bell table
            pytest.param({"k": 1}, {"radius_within_diffeo_ball"}, id="k-1"),
            pytest.param({"k": 0}, set(VALIDATE_CHECKS[1:]), id="k-0"),
            pytest.param({"k": 13}, set(VALIDATE_CHECKS[2:]), id="k-13"),
        ],
    )
    def test_negative_control_fails_its_check(self, tmp_path, capsys, solver, failed):
        path, _ = write_diffeo_config(tmp_path, **solver)
        assert validate_failures(path, tmp_path / "v") == (1, failed)
        assert capsys.readouterr().err == ""

    def test_tiny_radius_keeps_one_pilot_state(self, tmp_path):
        path, _ = write_diffeo_config(tmp_path, radius=1e-9)
        assert len(ensemble._pilot(RunConfig.from_file(path))) == 1

    def test_closed_form_fails_on_another_family(self, tmp_path, monkeypatch):
        # The certificates run on a basis of weights other than the configured
        # ones; the closed form, summed from the configured weights, disagrees.
        other = ScalingSequence.gaussian(1.0)
        monkeypatch.setattr(ensemble, "ScaledBasis", lambda _, n, m: ScaledBasis(other, n, m))
        path, _ = write_diffeo_config(tmp_path)
        assert validate_failures(path, tmp_path / "v") == (1, {"hs_zero_state_closed_form"})


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
        summary = json.loads((Path(raw["output_dir"]) / "summary.json").read_text())
        check = summary["checks"][0]
        assert check["passed"]
        assert check["value"] <= 1e-4
        compared = summary["extra"]["flow_check"]
        assert compared["n_checked"] == 11  # t = 0 and every 5th of 50 steps
        assert compared["window"] == pytest.approx(0.05)

    @pytest.mark.parametrize("xi_kind", ["identity", "rotation"])
    def test_exact_initial_maps_meet_the_tight_bound(self, tmp_path, xi_kind):
        path, raw = write_config(tmp_path, experiment="flow_check", xi_kind=xi_kind)
        assert cli_main(["flow-check", str(path)]) == 0
        summary = json.loads((Path(raw["output_dir"]) / "summary.json").read_text())
        [check] = summary["checks"]
        assert check["name"] == f"flow_compose_sup_error_{xi_kind}"
        assert check["passed"] and check["value"] <= check["bound"] == 1e-10

    def test_numpy_scalar_amplitude_is_written_as_a_number(self, tmp_path):
        # the amplitude lands in summary.json as given: a float32 goes through
        # the writer's NumPy fallback
        path, raw = write_config(tmp_path, experiment="flow_check")
        cfg = dataclasses.replace(RunConfig.from_file(path), xi_amplitude=np.float32(0.1))
        assert run_experiment(cfg)[0] == 0
        summary = json.loads((Path(raw["output_dir"]) / "summary.json").read_text())
        assert summary["extra"]["flow_check"]["xi_amplitude"] == float(np.float32(0.1))
        with pytest.raises(TypeError, match="not JSON serializable"):
            ensemble._json_default(object())

    def test_documented_config_passes(self, tmp_path):
        out = tmp_path / "out"
        assert cli_main(["flow-check", str(DOCS / "example-config.json"), "--out", str(out)]) == 0
        compared = json.loads((out / "summary.json").read_text())["extra"]["flow_check"]
        assert compared["n_checked"] > 1
        assert compared["window"] < 1.0  # both runs stop before the horizon

    def test_xi_at_the_radius_fails(self, tmp_path):
        # ||0.5 sin||_{H^2} = 0.5 = radius: the run from xi starts stopped
        path, raw = write_config(tmp_path, experiment="flow_check", xi_amplitude=0.5)
        assert cli_main(["flow-check", str(path)]) == 1
        summary = json.loads((Path(raw["output_dir"]) / "summary.json").read_text())
        assert not summary["checks"][0]["passed"]
        assert summary["extra"]["flow_check"]["n_checked"] == 0

    def test_comparison_at_the_wrong_points_fails(self, tmp_path, monkeypatch):
        # read x at theta instead of at theta + xi(theta): the error bound itself fails
        path, raw = write_config(tmp_path, experiment="flow_check")
        data = json.loads(path.read_text())
        data["solver"]["grid_size"] = 256
        data["solver"]["horizon"] = 0.05
        path.write_text(json.dumps(data))
        summary_path = Path(raw["output_dir"]) / "summary.json"
        assert cli_main(["flow-check", str(path)]) == 0
        assert json.loads(summary_path.read_text())["checks"][0]["value"] < 1e-15
        monkeypatch.setattr(flow, "_warp_points", lambda f, m: grid_points(m))
        assert cli_main(["flow-check", str(path)]) == 1
        summary = json.loads(summary_path.read_text())
        check = summary["checks"][0]
        assert check["name"] == "flow_compose_sup_error_sine" and not check["passed"]
        assert check["value"] == pytest.approx(0.0131, abs=1e-4)
        # t = 0 and every 10th of 50 steps
        assert summary["extra"]["flow_check"]["n_checked"] == 6


class TestCli:
    def test_run_and_exit_codes(self, tmp_path, capsys):
        path, raw = write_config(tmp_path)
        assert cli_main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "paths.csv" in out and "summary.json" in out

    def test_documented_entry_point_on_the_documented_config(self, tmp_path):
        # `python -m circleflow.cli` on docs/example-config.json as shipped
        # (output_dir "out", below the working directory)
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        config = str(DOCS / "example-config.json")
        for args in (["validate"], ["flow-check"], ["hitting-times", "--workers", "2"]):
            proc = subprocess.run(
                [sys.executable, "-m", "circleflow.cli", args[0], config, *args[1:]],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            printed = proc.stdout.split()
            assert printed and all((tmp_path / p).is_file() for p in printed), printed

    def test_artifacts_identical_across_blas_threads(self, tmp_path):
        # The step's field sums its chunks by BLAS products, and the CLI
        # takes a BLAS thread count set in the environment.  On a 2048-point
        # grid a chunk product is large enough for OpenBLAS to split it
        # between threads.
        cfg = base_config(tmp_path, n_paths=1)
        cfg["solver"].update(grid_size=2048, mode_cutoff=32, horizon=0.01)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-m", "circleflow.cli", "contrast", str(path), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert blobs[0] == blobs[1] and blobs[0]

    @pytest.mark.parametrize("given, expected", [(None, ["1", "1"]), ("3", ["3", "1"])])
    def test_blas_runs_on_one_thread_unless_set(self, given, expected):
        # Pool workers stepping large blocks would each start a BLAS thread
        # per core; the CLI sets one before numpy loads, and a count the
        # caller set wins.
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in names}
        env["PYTHONPATH"] = str(ROOT / "src")
        if given is not None:
            env[names[0]] = given
        probe = f"import os, circleflow.cli; print(*(os.environ[n] for n in {names!r}))"
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == expected

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert cli_main(["run", str(bad)]) == 2

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte order mark
        assert cli_main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "Traceback" not in err

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
            pytest.param("run", {"typo": 3}, {}, id="solver-unknown-key"),
            pytest.param("run", {"n_steps": 10}, {}, id="solver-derived-n_steps"),
            pytest.param(
                "run",
                {"alpha": {"family": "exponential", "parameter": 1.0, "typo": 3}},
                {},
                id="alpha-unknown-key",
            ),
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
            # pool and integrates at most PILOT_STEPS steps, should the
            # validation ever let them through.
            pytest.param("validate", {}, {"workers": 2**64}, id="workers-2**64"),
            pytest.param("validate", {}, {"n_paths": 2**64}, id="n_paths-2**64"),
            pytest.param("validate", {"grid_size": 2**64}, {}, id="grid_size-2**64"),
            pytest.param("validate", {"horizon": 2**64}, {}, id="horizon-2**64"),
            pytest.param("run", {"mode_cutoff": 0}, {}, id="mode_cutoff-zero"),
            pytest.param("run", {"k": 2**64}, {}, id="k-2**64"),
            pytest.param("run", {}, {"output_dir": True}, id="output_dir-bool"),
            # Path.mkdir raises ValueError on a null byte, not OSError
            pytest.param("run", {}, {"output_dir": "a\u0000b"}, id="output_dir-null-byte"),
            # a list is unhashable, so no registry key
            pytest.param("run", {}, {"experiment": ["simulate"]}, id="experiment-list"),
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

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"output_dir": "a\u0000b"}, "cannot create output_dir: embedded null byte"),
            (
                {"experiment": ["simulate"]},
                "experiment must be one of simulate, validate, hitting_times, flow_check, "
                "contrast_h32, got ['simulate']",
            ),
        ],
        ids=["output_dir-null-byte", "experiment-list"],
    )
    def test_malformed_value_names_its_key(self, tmp_path, capsys, monkeypatch, overrides, message):
        # Negative control: the null byte escaped Path.mkdir as a ValueError
        # traceback, and the list failed the registry lookup as
        # "unhashable type: 'list'", naming no key.  Both stop before any
        # path is stepped.
        path, _ = write_config(tmp_path, **overrides)
        monkeypatch.setattr(ensemble, "run_ensemble", mock.Mock(side_effect=AssertionError))
        assert cli_main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "scheme, most", [pytest.param("euler", 2, id="euler"), pytest.param("heun", 100, id="heun")]
    )
    def test_hitting_times_with_100_radii_steps_each_path_in_one_block(
        self, tmp_path, monkeypatch, scheme, most
    ):
        # Any number of radii loads, and a path steps all its rows in one
        # block: under Euler a path's radii share one row, so both paths
        # fit one block of 2 rows; under Heun each radius is a row, so a
        # path's 100 rows step alone.
        path, cfg = write_config(tmp_path, radii=np.linspace(0.01, 0.2, 100).tolist())
        cfg["solver"]["scheme"] = scheme
        path.write_text(json.dumps(cfg))
        field = flow.field_values
        rows = []

        def counted(delta_b, weights, points):
            rows.append(len(points))
            return field(delta_b, weights, points)

        monkeypatch.setattr(flow, "field_values", counted)
        assert cli_main(["hitting-times", str(path)]) == 0
        assert max(rows) == most

    @pytest.mark.parametrize(
        "command, workers",
        [(c, "1") for c in ("run", "hitting-times", "contrast", "flow-check", "validate")]
        + [(c, "2") for c in ("run", "hitting-times", "contrast")],
    )
    def test_non_finite_state_exits_3(self, tmp_path, capsys, monkeypatch, command, workers):
        # A field that is not finite aborts at the first step, with one line
        # and no traceback; pool workers fork after the patch.
        path, _ = write_config(tmp_path)

        def nan_field(delta_b, weights, points):
            return np.full(points.shape, np.nan)

        monkeypatch.setattr(flow, "field_values", nan_field)
        assert cli_main([command, str(path), "--workers", workers]) == 3
        assert capsys.readouterr().err == "numerical abort: non-finite state at t=0.001\n"

    def test_hitting_order_check_compares_step_counts(self, tmp_path):
        # A path that crosses at the last step and a censored path both enter
        # the table at the horizon, so neighbouring radii tie instead of
        # ordering on the rounding of a running sum of dt.
        path, _ = write_config(tmp_path, radii=np.linspace(0.01, 1.0, 100).tolist())
        assert cli_main(["hitting-times", str(path)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        [check] = summary["checks"]
        assert check["passed"] and check["value"][-1] == 0.02

    def test_sample_times_are_step_counts(self, tmp_path):
        # docs/example-config.json ends at 1000 steps of 0.001: the last
        # sample time is the horizon exactly, not a running sum of dt.
        cfg = json.loads((DOCS / "example-config.json").read_text())
        cfg.update(n_paths=1, output_dir=str(tmp_path / "out"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["run", str(path)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["times"][-1] == cfg["solver"]["horizon"] == 1.0

    @pytest.mark.parametrize(
        "where, key",
        [((), "flow_tolerance"), (("solver",), "weights"), (("solver", "alpha"), "typo")],
    )
    def test_unknown_config_key_is_named(self, tmp_path, capsys, where, key):
        cfg = base_config(tmp_path)
        target = cfg
        for name in where:
            target = target[name]
        target[key] = 1
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["run", str(path)]) == 2
        dotted = ".".join((*where, key))
        assert capsys.readouterr().err == f"config error: unknown config key '{dotted}'\n"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (("solver", "dt"), DELETE, "missing config key 'solver.dt'"),
            (("solver", "alpha"), DELETE, "missing config key 'solver.alpha'"),
            (("solver",), DELETE, "missing config key 'solver'"),
            (("solver", "alpha", "family"), DELETE, "missing config key 'solver.alpha.family'"),
            (("solver",), 5, "config key 'solver' must be an object"),
            (("solver", "alpha"), "x", "config key 'solver.alpha' must be an object"),
            (("radii",), 5, "radii must be a list of numbers"),
            ((), [1, 2], "config must be a JSON object"),
            # a constructor's message is prefixed with its section
            (("solver", "dt"), math.nan, "solver: dt must be a finite number, got nan"),
            (
                ("solver", "alpha", "parameter"),
                math.inf,
                "solver.alpha: parameter must be a finite number, got inf",
            ),
        ],
        ids=[
            "no-dt", "no-alpha", "no-solver", "no-family",
            "solver-int", "alpha-string", "radii-int", "top-level-list",
            "dt-nan", "alpha-parameter-inf",
        ],
    )
    def test_malformed_shape_is_named(self, tmp_path, capsys, field, value, message):
        cfg = json.loads((DOCS / "example-config.json").read_text())
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_mutated(cfg, field, value)))
        assert cli_main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "command, overrides, flags",
        [("run", {"workers": 0}, ["--workers", "1"]), ("validate", {"experiment": "explode"}, [])],
        ids=["workers", "experiment"],
    )
    def test_file_is_validated_before_overrides(self, tmp_path, capsys, command, overrides, flags):
        path, _ = write_config(tmp_path, **overrides)
        assert cli_main([command, str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

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
        "command, artifact", [("validate", "summary.json"), ("flow-check", "summary.json")]
    )
    def test_unwritable_artifact_exits_2(self, tmp_path, capsys, command, artifact):
        path, _ = write_config(tmp_path)
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)  # a directory where the file goes
        assert cli_main([command, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write artifact:") and err.count("\n") == 1
        assert "Traceback" not in err
        # no artifact of the failed run is left behind, the blocker stays
        assert [p.name for p in out.iterdir()] == [artifact]

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(field=st.sampled_from(MUTABLE_FIELDS), value=st.sampled_from(MUTATION_POOL))
    def test_mutated_example_config_exits_cleanly(self, field, value):
        cfg = json.loads((DOCS / "example-config.json").read_text())
        cfg["n_paths"] = 1
        cfg["solver"]["horizon"] = 2 * cfg["solver"]["dt"]
        cfg = _mutated(cfg, field, value)
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
                if code == 2:
                    lines = err.getvalue().splitlines()
                    assert len(lines) == 1 and lines[0].startswith("config error:"), lines

    def test_seed_and_out_overrides(self, tmp_path):
        path, raw = write_config(tmp_path)
        alt = tmp_path / "alt"
        assert cli_main(["run", str(path), "--seed", "7", "--out", str(alt)]) == 0
        assert (alt / "paths.csv").exists()
        baseline = Path(raw["output_dir"])
        cli_main(["run", str(path)])
        assert (alt / "paths.csv").read_bytes() != (baseline / "paths.csv").read_bytes()

    def test_subcommand_forces_experiment(self, tmp_path):
        path, raw = write_diffeo_config(tmp_path)  # experiment says simulate
        assert validate_failures(path, tmp_path / "v") == (0, set())

    def test_validate_outside_the_diffeo_ball_exits_1(self, tmp_path):
        path, raw = write_config(tmp_path)  # R = 0.5 > diffeo_radius(2)
        assert raw["solver"]["radius"] > diffeo_radius(2)
        assert validate_failures(path, tmp_path / "v") == (1, {"radius_within_diffeo_ball"})

    @pytest.mark.parametrize("output_dir", [DELETE, None, ""], ids=["absent", "null", "empty"])
    def test_env_var_default_outdir(self, tmp_path, monkeypatch, output_dir):
        cfg = _mutated(base_config(tmp_path), ("output_dir",), output_dir)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        monkeypatch.setenv("CIRCLEFLOW_OUTDIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert cli_main(["run", str(path)]) == 0
        assert (tmp_path / "envout" / "paths.csv").exists()
        assert not (tmp_path / "out").exists()
        # --out beats the variable
        assert cli_main(["run", str(path), "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "paths.csv").exists()
        # an empty variable counts as unset
        monkeypatch.setenv("CIRCLEFLOW_OUTDIR", "")
        assert cli_main(["run", str(path)]) == 0
        assert (tmp_path / "out" / "paths.csv").exists()
        assert not (tmp_path / "paths.csv").exists()

    def test_load_config_applies_each_override(self, tmp_path):
        path, raw = write_config(tmp_path)
        from_file = RunConfig.from_file(path)
        assert from_file.solver.dt == raw["solver"]["dt"]
        assert load_config(build_parser().parse_args(["run", str(path)])) == from_file
        out = str(tmp_path / "flag")
        flags = ["--seed", "7", "--out", out, "--workers", "2"]
        cfg = load_config(build_parser().parse_args(["hitting-times", str(path), *flags]))
        given = dict(master_seed=7, output_dir=out, workers=2, experiment="hitting_times")
        assert {key: getattr(cfg, key) for key in given} == given
        assert dataclasses.replace(from_file, **given) == cfg

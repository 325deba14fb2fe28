"""Correctness gate for one benchmark invocation.

An invocation passes only if all of these hold:

* the exit code is 0;
* every ``checks[].passed`` in ``summary.json`` is true (every certificate
  holds, for the certify workload);
* ``summary.json`` validates against ``docs/summary.schema.json``;
* its artifacts are byte-identical to those of the first invocation of the
  run;
* its key scalars match ``reference.json`` within ``rel_tol``.

Key scalars are compared with a relative tolerance, not bit for bit, so that
a change that only reorders floating-point work still passes.  The tolerance
is derived from a perturbation experiment: scaling every noise-field and
``evaluate`` result by (1 + 1e-13), coherently over all 1000 steps, moved
no key scalar by more than 1.5e-12 relative (simulate final min 1 + x';
contrast 3e-13, certify 2e-13, the hitting scalars not at all).  Reordered
floating-point sums change each evaluation by a few ulp (< 1e-15), which by
the same linear response moves a scalar by < 1.5e-14.  The stored
``rel_tol`` of 1e-10 is 7e3 times that, and far below any change in the
mathematics.
Integers (hitting steps, censored counts) must match exactly.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import jsonschema

FAMILIES = ("exponential", "powerlaw")


def artifact_hashes(paths):
    """File name -> SHA-256 of its bytes."""
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[Path(path).name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _n_steps(solver):
    return int(round(solver["horizon"] / solver["dt"]))


def _tau_steps(summary, solver):
    return [None if t is None else int(round(t / solver["dt"])) for t in summary["tau_r"]]


def inspect(workload, rc, out_dir, config, schema):
    """Check one invocation's outputs.

    Returns ``(reasons, scalars, work)``: the failed conditions (empty when
    the invocation passes), the key scalars, and the amount of work the
    artifacts show was done (path-steps, or certificates for certify).
    """
    if rc != 0:
        return [f"exit code {rc}"], {}, 0
    out_dir = Path(out_dir)
    try:
        if workload == "certify":
            return _inspect_certify(_load_json(out_dir / "certificates.json"))
        summary = _load_json(out_dir / "summary.json")
    except (OSError, ValueError) as exc:
        return [f"unreadable artifact: {exc}"], {}, 0
    reasons = _schema_errors(summary, schema)
    if reasons:
        return reasons, {}, 0
    reasons = [f"check {c['name']} failed" for c in summary["checks"] if not c["passed"]]
    solver = config["solver"]
    n_steps = _n_steps(solver)
    if workload == "simulate":
        scalars = {"tau_steps": _tau_steps(summary, solver), **_path_series(out_dir / "paths.csv")}
        work = summary["n_paths"] * n_steps
    elif workload == "hitting":
        table = summary["extra"]["hitting_table"]
        taus = _tau_steps(summary, solver)
        scalars = {
            "radius": [row["radius"] for row in table],
            "mean_tau": [row["mean_tau"] for row in table],
            "stderr": [row["stderr"] for row in table],
            "n_censored": [row["n_censored"] for row in table],
            "tau_steps": taus,
        }
        work = sum(n_steps if s is None else s for s in taus)
    else:  # contrast
        res = summary["extra"]["contrast"]
        scalars = {}
        for fam in FAMILIES:
            scalars[f"{fam}.stability_ratio"] = [res[fam]["stability_ratio"]]
            for key in ("final_h3_low_cutoff", "final_h3_high_cutoff", "min_deriv"):
                scalars[f"{fam}.{key}"] = res[fam][key]
        n_paths = len(res[FAMILIES[0]]["final_h3_low_cutoff"])
        work = n_paths * len(FAMILIES) * 2 * n_steps
    return reasons, scalars, work


def _path_series(csv_path):
    """Per-path extremes and end values of the recorded H^k and min 1 + x'.

    The summary's quantile series are empty whenever paths cross the radius
    at different steps (their sample times then differ), so the series are
    read from paths.csv instead.
    """
    hk, md = {}, {}
    with open(csv_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            pid = int(row["path_id"])
            hk.setdefault(pid, []).append(float(row["hk"]))
            md.setdefault(pid, []).append(float(row["min_deriv"]))
    ids = sorted(hk)
    return {
        "final_hk": [hk[i][-1] for i in ids],
        "max_hk": [max(hk[i]) for i in ids],
        "final_min_deriv": [md[i][-1] for i in ids],
        "min_min_deriv": [min(md[i]) for i in ids],
    }


def _inspect_certify(result):
    lip, hs = result["lipschitz"], result["hs"]
    reasons = [f"certificate {i} does not hold" for i, c in enumerate(lip + hs) if not c["holds"]]
    scalars = {
        "lipschitz.ratio": [c["ratio"] for c in lip],
        "lipschitz.c_r": [c["c_r"] for c in lip],
        "hs.k": [c["k"] for c in hs],
        "hs.actual": [c["actual"] for c in hs],
        "hs.bound": [c["bound"] for c in hs],
    }
    return reasons, scalars, len(lip) + len(hs)


def _schema_errors(summary, schema):
    validator = jsonschema.Draft7Validator(schema)
    return [f"schema: {err.message}" for err in validator.iter_errors(summary)][:3]


def compare(scalars, reference, rel_tol):
    """Reasons the key scalars differ from the reference (empty if none).

    Floats must agree within ``rel_tol`` of the larger magnitude; integers
    and missing values (censored hitting times) must be equal.
    """
    reasons = []
    for key in sorted(set(reference) | set(scalars)):
        got, want = scalars.get(key), reference.get(key)
        if got is None or want is None or len(got) != len(want):
            reasons.append(f"{key}: shape differs from the reference")
            continue
        for i, (g, w) in enumerate(zip(got, want)):
            if isinstance(w, float) and isinstance(g, (int, float)):
                ok = abs(g - w) <= rel_tol * max(abs(g), abs(w)) and math.isfinite(g)
            else:
                ok = g == w
            if not ok:
                reasons.append(f"{key}[{i}] = {g!r}, reference {w!r}")
                break
    return reasons


class Gate:
    """The gate over the invocations of one run of a workload.

    ``workload`` needs ``name``, ``seed`` and ``config``; ``reference`` is
    the parsed reference.json.
    """

    def __init__(self, workload, reference, schema):
        self.workload = workload
        self.reference = reference["workloads"][workload.name][str(workload.seed)]
        self.rel_tol = reference["rel_tol"]
        self.schema = schema
        self.first_hashes = None

    def check(self, rc, inv_dir):
        """Returns (reasons, work) for the invocation logged in ``inv_dir``,
        whose standard output lists its artifacts."""
        reasons, scalars, work = inspect(
            self.workload.name, rc, Path(inv_dir) / "out", self.workload.config, self.schema
        )
        if reasons:
            return reasons, work
        artifacts = (Path(inv_dir) / "stdout").read_text(encoding="utf-8").split()
        try:
            hashes = artifact_hashes(artifacts)
        except OSError as exc:
            return [f"unreadable artifact: {exc}"], work
        if self.first_hashes is None:
            self.first_hashes = hashes
        elif hashes != self.first_hashes:
            reasons.append("artifacts differ from the first invocation of the run")
        reasons += compare(scalars, self.reference, self.rel_tol)
        return reasons, work

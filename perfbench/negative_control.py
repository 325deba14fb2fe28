#!/usr/bin/env python3
"""Negative control for the benchmark's correctness gate.

    python3 perfbench/negative_control.py [--workload hitting] [--seed 0]

Runs one good invocation of the workload, then damages its outputs one way
at a time and asks ``gate.Gate`` about each.  Every damaged copy
must be marked failed for the stated reason, and two undamaged cases must
pass.  Prints one line per case; exits 0 only if every case behaves.
"""

import argparse
import copy
import json
import os
import shutil
import sys

import gate
import run


def _edit_json(path, change):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    change(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _flip_digit(path):
    """Change the last digit of the first line after the header that has one."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    n = next(n for n in range(1, len(lines)) if any(c.isdigit() for c in lines[n]))
    i = max(lines[n].rfind(d) for d in "0123456789")
    lines[n] = lines[n][:i] + str((int(lines[n][i]) + 1) % 10) + lines[n][i + 1 :]
    path.write_text("".join(lines), encoding="utf-8")


def _set_first_check_failed(summary):
    summary["checks"][0]["passed"] = False


def cases(workload, rel_tol):
    """(name, damage(inv_dir) or None, reference edit or None, exit code or
    None for the real one, expected reason or None for a pass)."""
    main_artifact = "certificates.json" if workload == "certify" else "summary.json"
    scalar = {
        "simulate": "final_hk",
        "hitting": "mean_tau",
        "contrast": "exponential.min_deriv",
        "certify": "lipschitz.ratio",
    }[workload]

    def scale_reference(factor):
        def edit(ref):
            ref[scalar][0] *= factor

        return edit

    def truncate(inv_dir):
        (inv_dir / "out" / main_artifact).write_text("{", encoding="utf-8")

    def edit_main(change):
        return lambda inv_dir: _edit_json(inv_dir / "out" / main_artifact, change)

    out = [
        ("untouched outputs pass", None, None, None, None),
        ("reference offset inside the tolerance passes",
         None, scale_reference(1 + rel_tol / 10), None, None),
        ("off-reference scalar fails",
         None, scale_reference(1 + 10 * rel_tol), None, f"{scalar}[0]"),
        ("truncated artifact fails", truncate, None, None, "unreadable artifact"),
        ("non-zero exit code fails", None, None, 1, "exit code 1"),
    ]
    if workload == "certify":
        out.append(("certificate that does not hold fails",
                    edit_main(lambda r: r["lipschitz"][0].update(holds=False)),
                    None, None, "does not hold"))
        return out
    csv_artifact = "summary.json" if workload == "contrast" else "paths.csv"
    out += [
        ("summary off its schema fails", edit_main(lambda s: s.pop("tau_r")), None, None,
         "schema"),
        ("one changed byte fails", lambda d: _flip_digit(d / "out" / csv_artifact), None, None,
         "artifacts differ"),
    ]
    if workload != "simulate":  # simulate records no checks of its own
        out.append(("failed check fails", edit_main(_set_first_check_failed), None, None,
                    "check "))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="hitting", choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    run_dir = run.ROOT / ".perfbench" / f"negative-{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    ok = True
    try:
        workload = run.Workload(args.workload, run.master_seed(args.seed), run_dir)
        inv_dir, pristine = run_dir / "inv", run_dir / "pristine"
        rc, _, _ = run.execute(workload.argv(inv_dir / "out"), inv_dir)
        shutil.copytree(inv_dir, pristine)
        with open(run.SCHEMA, encoding="utf-8") as fh:
            first = gate.Gate(workload, reference, json.load(fh))
        if first.check(rc, inv_dir)[0]:
            raise RuntimeError("the undamaged invocation failed the gate")
        for name, damage, edit_reference, exit_code, expected in cases(
            args.workload, reference["rel_tol"]
        ):
            shutil.rmtree(inv_dir)
            shutil.copytree(pristine, inv_dir)
            check = copy.deepcopy(first)
            if edit_reference is not None:
                edit_reference(check.reference)
            if damage is not None:
                damage(inv_dir)
            reasons, _ = check.check(rc if exit_code is None else exit_code, inv_dir)
            if expected is None:
                good = not reasons
            else:
                good = any(expected in r for r in reasons)
            ok = ok and good
            print(f"{'ok  ' if good else 'BAD '} {name}: {'; '.join(reasons) or 'passed'}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("negative control:", "every case behaved" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

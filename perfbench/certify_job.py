"""The certify workload: composition-operator certificates through the public API.

    python3 perfbench/certify_job.py SEED OUT_DIR
    python3 perfbench/certify_job.py --setup-only

Draws seeded random pairs in the H^k ball of radius ``RADIUS`` (the recipe
of acceptance criterion 04), computes ``bell.lipschitz_certificate`` for
each pair and ``bell.hs_bound_certificate`` for the first ``HS_STATES``
states at every order in ``HS_ORDERS``, and writes
``OUT_DIR/certificates.json`` deterministically.  ``--setup-only`` imports
circleflow, builds the basis and exits.  Exit code 0 if every certificate
holds, 1 if one does not.  Needs ``src`` on PYTHONPATH.
"""

import json
import sys
from pathlib import Path

import numpy as np

from circleflow import CircleFunction, ScaledBasis, ScalingSequence, bell

PAIRS = 20
HS_STATES = 1
HS_ORDERS = (2, 3, 4)
K = 2
RADIUS = 0.5
MODE_CUTOFF = 32
GRID_SIZE = 128
STATE_MODES = 6
ALPHA = {"family": "exponential", "parameter": 1.0}


def make_basis():
    return ScaledBasis(ScalingSequence.from_dict(ALPHA), MODE_CUTOFF, GRID_SIZE)


def _random_state(rng):
    """Band-limited state with geometrically damped modes, scaled to a
    uniform H^k norm in [0, RADIUS)."""
    half = GRID_SIZE // 2 + 1
    damp = np.exp(-0.4 * np.arange(STATE_MODES + 1))
    a = np.zeros(half)
    b = np.zeros(half)
    a[: STATE_MODES + 1] = rng.normal(0.0, 1.0, STATE_MODES + 1) * damp
    b[1 : STATE_MODES + 1] = rng.normal(0.0, 1.0, STATE_MODES) * damp[1:]
    f = CircleFunction.from_coefficients(a, b)
    return f * (rng.uniform(0.0, RADIUS) / max(f.hk_norm(K), 1e-12))


def certify(seed, basis):
    rng = np.random.default_rng(seed)
    pairs = [(_random_state(rng), _random_state(rng)) for _ in range(PAIRS)]
    lipschitz = []
    for f, g in pairs:
        rep = bell.lipschitz_certificate(f, g, K, RADIUS, basis)
        lipschitz.append({"ratio": rep.ratio, "c_r": rep.c_r, "holds": bool(rep.holds)})
    hs = []
    for f, _ in pairs[:HS_STATES]:
        for k in HS_ORDERS:
            rep = bell.hs_bound_certificate(f, k, basis)
            hs.append({"k": k, "actual": rep.actual, "bound": rep.bound, "holds": bool(rep.holds)})
    return {"lipschitz": lipschitz, "hs": hs}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--setup-only"]:
        make_basis()
        return 0
    if len(argv) != 2:
        print("usage: certify_job.py SEED OUT_DIR | --setup-only", file=sys.stderr)
        return 2
    result = certify(int(argv[0]), make_basis())
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    path = out / "certificates.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)
    certs = result["lipschitz"] + result["hs"]
    return 0 if all(c["holds"] for c in certs) else 1


if __name__ == "__main__":
    sys.exit(main())

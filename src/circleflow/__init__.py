"""circleflow: spectral simulation of composition-driven Brownian circle flows.

The public names load their submodule on first use (PEP 562), so a caller
pays only for what it touches: the certificates (``CircleFunction``,
``ScaledBasis``, ``bell``) load no ensemble, no process pool and no
``numpy.random``.  Below the surface the same holds: ``numpy.random`` loads
with the first ``NoiseStream``, the process pool with the first run at more
than one worker, and ``bell`` with ``validate``'s checks.
"""

import importlib

__version__ = "0.1.0"

# The public surface: each submodule, then the names it exports here.
_SURFACE = {
    "basis": ("ScaledBasis", "ScalingSequence"),
    "bell": (
        "HSBoundReport",
        "LipschitzReport",
        "bell_polynomial",
        "compose_derivative",
        "hs_bound_certificate",
        "lipschitz_certificate",
    ),
    "circlefn": (
        "CircleFunction",
        "compose",
        "grid_points",
        "sobolev_embedding_constant",
    ),
    "cli": (),
    "ensemble": (
        "ConfigError",
        "RunConfig",
        "contrast_h32",
        "run_ensemble",
        "run_experiment",
        "validation_checks",
    ),
    "flow": (
        "FlowCheckReport",
        "PathRecord",
        "SimulationDiverged",
        "SolverConfig",
        "concatenate",
        "diffeo_radius",
        "flow_compose_check",
        "integrate",
        "simulate_path",
        "stratonovich_correction",
    ),
    "noise": ("NoiseStream", "field_values"),
}

# exported name -> the submodule that defines it (a submodule, itself)
_HOME = {name: mod for mod, names in _SURFACE.items() for name in (mod, *names)}

__all__ = sorted(_HOME)


def __getattr__(name):
    mod = _HOME.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{mod}", __name__)
    value = module if name == mod else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))

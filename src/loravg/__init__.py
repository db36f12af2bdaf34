"""Averaging operators, rearrangements and Lorentz norms on finite
atomic metric measure spaces, plus compactness diagnostics for the
averaging operator.

The public names are lazy (PEP 562): `import loravg` loads no submodule,
and the first use of a name imports the one submodule that defines it, so
`loravg.build_space(spec)` loads only `errors` and `space`.  The
submodules themselves are attributes as well, imported on first use.
"""

import importlib

__version__ = "0.1.0"

# Each submodule -> the public names it defines.
_EXPORTS = {
    "averaging": ("AveragingKernel", "average", "distribution_constant",
                  "equicontinuity_modulus", "extremal_pair_function", "pointwise_bound",
                  "verify_distribution_inequality", "verify_operator_bound",
                  "verify_rearrangement_bound"),
    "compactness": ("CoveringReport", "ProbeRow", "SimpleApproximation", "WitnessReport",
                    "compactness_probe", "covering_number", "sample_unit_sphere",
                    "simple_approximation", "witness_sequence"),
    "errors": ("DomainError", "MetricViolationError", "NotInSpaceError"),
    "norms": ("DOUBLE_STAR", "PLAIN", "HolderConstants", "NormSpec",
              "chi_norm_closed_form", "holder_check", "holder_constants",
              "lebesgue_norm", "lorentz_norm", "lorentz_norms", "norm_equivalence_check"),
    "rearrange": ("FunctionOnSpace", "MaximalProfile", "StepFunction",
                  "distribution_function", "hardy_littlewood_check",
                  "integrate_step_product", "maximal_profile", "rearrangement"),
    "space": ("BoundednessReport", "MetricMeasureSpace", "ball", "boundedness_report",
              "build_space", "doubling_constant", "min_ball_ratio", "separated_points",
              "symm_diff_measure", "vitali_subfamily"),
}
_NAMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_NAMES)


def __getattr__(name: str):
    """Import the submodule behind a public name, or the submodule name, on
    first use; any other name is an AttributeError."""
    if name in _NAMES:
        value = getattr(importlib.import_module(f".{_NAMES[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_NAMES, *_EXPORTS})

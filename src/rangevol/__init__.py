"""Range-based volatility estimation under geometric Brownian motion.

Four estimators built from the high, low and close of a log-price window
(Parkinson, Garman-Klass, Rogers-Satchell, and the bridge-oscillation
estimator), their exact sampling densities, theoretical moments and
interval probabilities, and a deterministic Monte Carlo harness that
reproduces the comparative statistics of all four.
"""

__version__ = "0.1.0"

from importlib import import_module

from .estimators import (
    BRIDGE_FACTOR,
    GK_K1,
    GK_K2,
    GK_K3,
    LN16,
    EstimatorKind,
    GarmanKlassVariant,
    estimator_label,
)
from .paths import (
    BridgeExtremes,
    Extremes,
    Path,
    bridge_extremes,
    bridge_transform,
    extremes,
    simulate_path,
)

# The analytic layers need scipy.special: ``import rangevol.analytics`` takes
# 0.2-0.35 s and 54 MB resident, against 0.07-0.16 s and 29 MB for
# ``import rangevol, rangevol.cli`` (2 vCPUs, scipy 1.17.1).  So their names
# (and the modules themselves) resolve on first access, through PEP 562.
# ``estimate`` and ``simulate --skip-theory`` never touch them.
_LAZY = {
    name: module
    for module, names in (
        ("analytics", "MomentReport mean_range_squared_series theoretical_moments "
                      "relative_bias interval_probability coverage_probability "
                      "garman_klass_mean rogers_satchell_mean"),
        ("densities", "DensityValue close_pdf high_close_joint_pdf high_pdf hlc_joint_pdf "
                      "range_close_joint_pdf range_pdf bridge_hl_joint_pdf bridge_range_pdf "
                      "parkinson_estimator_pdf bridge_estimator_pdf"),
        ("montecarlo", "ExperimentConfig ExperimentSummary CellStats run_experiment "
                       "histogram_vs_pdf goodness_of_fit sample_dump"),
    )
    for name in names.split()
}


def __getattr__(name):
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    if name in _LAZY.values():
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY.values()})


__all__ = [
    "__version__",
    # paths
    "Path", "Extremes", "BridgeExtremes",
    "simulate_path", "bridge_transform", "extremes", "bridge_extremes",
    # estimators
    "LN16", "BRIDGE_FACTOR", "GK_K1", "GK_K2", "GK_K3",
    "EstimatorKind", "GarmanKlassVariant",
    # densities
    "DensityValue", "close_pdf", "high_close_joint_pdf", "high_pdf", "hlc_joint_pdf",
    "range_close_joint_pdf", "range_pdf", "bridge_hl_joint_pdf", "bridge_range_pdf",
    "parkinson_estimator_pdf", "bridge_estimator_pdf",
    # analytics
    "MomentReport", "mean_range_squared_series", "theoretical_moments",
    "relative_bias", "interval_probability", "coverage_probability",
    "garman_klass_mean", "rogers_satchell_mean",
    # montecarlo
    "ExperimentConfig", "ExperimentSummary", "CellStats", "estimator_label",
    "run_experiment", "histogram_vs_pdf", "goodness_of_fit", "sample_dump",
]

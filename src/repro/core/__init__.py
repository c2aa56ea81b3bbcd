"""The benchmarking suite core: metrics, experiments, registry, reports, CLI.

Every re-export loads on first access (PEP 562), so importing one
submodule, such as ``repro.core.cli`` at every CLI start, does not load
the charts, reports and experiment machinery with it.
"""

import importlib
import sys
import types

__all__ = [
    "Candidate",
    "DeploymentTarget",
    "Recommendation",
    "advise",
    "bar_chart",
    "heatmap",
    "line_chart",
    "ExperimentResult",
    "Sweep",
    "sweep",
    "GenerationShape",
    "InferenceMetrics",
    "itl_eq1",
    "throughput_eq2",
    "experiment",
    "get_experiment",
    "list_experiments",
    "run_experiment",
    "render_markdown",
    "render_summary",
    "write_report",
    "ResultTable",
]

_LAZY = {
    "Candidate": "repro.core.advisor",
    "DeploymentTarget": "repro.core.advisor",
    "Recommendation": "repro.core.advisor",
    "advise": "repro.core.advisor",
    "bar_chart": "repro.core.charts",
    "heatmap": "repro.core.charts",
    "line_chart": "repro.core.charts",
    "ExperimentResult": "repro.core.experiment",
    "Sweep": "repro.core.experiment",
    "sweep": "repro.core.experiment",
    "GenerationShape": "repro.core.metrics",
    "InferenceMetrics": "repro.core.metrics",
    "itl_eq1": "repro.core.metrics",
    "throughput_eq2": "repro.core.metrics",
    "experiment": "repro.core.registry",
    "get_experiment": "repro.core.registry",
    "list_experiments": "repro.core.registry",
    "run_experiment": "repro.core.registry",
    "render_markdown": "repro.core.report",
    "render_summary": "repro.core.report",
    "write_report": "repro.core.report",
    "ResultTable": "repro.core.results",
}


def __getattr__(name: str):
    if name in _LAZY:
        value = getattr(importlib.import_module(_LAZY[name]), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Core(types.ModuleType):
    """``repro.core.experiment`` is the registry's decorator, as it was
    when the re-exports were eager.  Importing the submodule of the same
    name binds the module here; the setter drops that binding."""

    @property
    def experiment(self):
        return __getattr__("experiment")

    @experiment.setter
    def experiment(self, _submodule) -> None:
        pass


sys.modules[__name__].__class__ = _Core

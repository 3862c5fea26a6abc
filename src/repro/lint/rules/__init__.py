"""The rule registry: one module per rule id."""

from repro.lint.rules.base import Rule
from repro.lint.rules.det001_entropy import Det001Entropy
from repro.lint.rules.det002_setiter import Det002SetIteration
from repro.lint.rules.det003_float import Det003FloatAccounting
from repro.lint.rules.lay001_layering import Lay001Layering
from repro.lint.rules.met001_metric_catalog import Met001MetricCatalog
from repro.lint.rules.sim001_scheduler import Sim001SchedulerMutation

#: Every rule the engine runs, in report order.
ALL_RULES: tuple = (
    Det001Entropy(),
    Det002SetIteration(),
    Det003FloatAccounting(),
    Lay001Layering(),
    Sim001SchedulerMutation(),
    Met001MetricCatalog(),
)

__all__ = ["Rule", "ALL_RULES"]

"""The experiment registry: every :class:`ExperimentSpec`, in paper order.

This module is the single source of truth for which experiments exist.
``ProcessPoolExecutor`` workers import it afresh inside the child process
and resolve experiments by id, so only strings ever cross the process
boundary on the way in.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List

from . import (
    calibration,
    characteristics,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    ftl_study,
    implications,
    lifetime,
    overhead,
    power_study,
    sdcard_study,
    sensitivity,
    slc_study,
    table3,
    table4,
)
from .spec import ExperimentSpec

#: Experiment modules in the order they appear in the paper (the seven
#: extension studies follow the paper's evaluation section).
_MODULES = (
    fig3,
    table3,
    fig4,
    table4,
    fig5,
    fig6,
    fig7,
    characteristics,
    implications,
    overhead,
    fig8,
    fig9,
    slc_study,
    lifetime,
    sensitivity,
    power_study,
    sdcard_study,
    ftl_study,
    calibration,
)

#: id -> spec, in paper order.
REGISTRY: "OrderedDict[str, ExperimentSpec]" = OrderedDict(
    (module.SPEC.experiment_id, module.SPEC) for module in _MODULES
)

# Paranoia: a duplicate id should fail at import time, not at schedule
# time inside a worker.
if len(REGISTRY) != len(_MODULES):  # pragma: no cover - guarded by tests
    raise RuntimeError("duplicate experiment ids in registry")


def get_spec(experiment_id: str) -> ExperimentSpec:
    """Look up one spec, raising ``KeyError`` with the known ids."""
    try:
        return REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {list(REGISTRY)}"
        ) from None


def select(ids: Iterable[str] = ()) -> List[ExperimentSpec]:
    """Specs for ``ids`` (all, in paper order, when empty).

    Raises ``KeyError`` listing every unknown id, matching the historical
    runner behaviour.
    """
    selected = list(ids) or list(REGISTRY)
    unknown = [identifier for identifier in selected if identifier not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}; known: {list(REGISTRY)}")
    return [REGISTRY[identifier] for identifier in selected]

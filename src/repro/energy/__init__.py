"""Energy accounting and exascale power extrapolation.

Everything in the simulated machine self-reports energy in picojoules;
:class:`EnergyLedger` aggregates those numbers by component category so
experiments can report breakdowns (compute vs. data movement vs.
configuration -- the axis the paper's energy argument lives on).

:mod:`repro.energy.exascale` reproduces the paper's Section 1 estimate
that "sustaining exaflop performance requires an enormous 1 GW power"
when extrapolating from Tianhe-2, "with similar, albeit smaller, figures
... extrapolating even the best system of the Green 500 list".
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "accounting": "EnergyLedger",
    "exascale": (
        "GREEN500_2015_LEADER TIANHE2 ReferenceSystem efficiency_required_for "
        "extrapolate_power_mw"
    ),
})

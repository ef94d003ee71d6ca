"""Joint uplink-downlink rate optimization for an indoor hybrid RF/VLC link."""

from .harvest_uplink import rician_envelope
from .objective import reduce_coefficients, total_rate
from .optimizer import grid_oracle, solve_closed_form, solve_iterative
from .scenario import associate, load_scenario

__all__ = [
    "associate",
    "grid_oracle",
    "load_scenario",
    "reduce_coefficients",
    "rician_envelope",
    "solve_closed_form",
    "solve_iterative",
    "total_rate",
]

__version__ = "0.1.0"

"""Joint uplink-downlink rate optimization for an indoor hybrid RF/VLC link."""

from .harvest_uplink import (
    harvested_energy,
    sample_rician,
)
from .objective import (
    ObjectiveEval,
    ReducedCoefficients,
    rate_derivative,
    rate_second_derivative,
    reduce_coefficients,
    total_rate,
)
from .optimizer import (
    KktPoint,
    OptResult,
    grid_oracle,
    solve_closed_form,
    solve_iterative,
)
from .scenario import (
    Association,
    MobileTerminal,
    Point3,
    Scenario,
    SystemParams,
    VlcAp,
    associate,
    link_geometry,
    load_scenario,
)
from .vlc_channel import (
    ChannelGain,
    channel_gain,
    concentrator_gain,
    lambertian_order,
)

__version__ = "0.1.0"

"""gridfreq: dynamic simulation and small-signal analysis of converter
frequency control compensated by the rate of change of voltage."""

from .casefile import Case, CaseParseError, load_bundled_case, parse_case
from .complex_frequency import AnalyticExampleParams, ZeroMagnitudeError, analytic_example, eta_of
from .dae import (
    Event,
    StepError,
    SystemModel,
    SystemState,
    TimeSeries,
    build_system,
    simulate,
)
from .machines import coi_weights, initialize_sm, sm_kernel
from .network import (
    Branch,
    Bus,
    FaultOff,
    FaultOn,
    LoadScale,
    Network,
    PFSolution,
    apply_event,
    build_ybus,
    solve_power_flow,
)
from .smallsignal import (
    LinearModel,
    Mode,
    ObservabilityReport,
    eigensolve,
    geometric_observability,
    identify_frequency_mode,
    k_sweep,
    linearize,
)

__version__ = "0.1.0"

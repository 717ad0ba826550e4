"""Time-varying phase synchronization analysis for monthly panel data.

Workflow: load or generate a panel of monthly series, band-pass each
member to the business-cycle band, take its instantaneous phase, and score
every pair's phase difference with a moving synchronization index; the
panel-level summary is the fraction of pairs locked above a threshold at
each month. See the pipeline module for the one-call entry point and the
cli module for the batch interface.
"""

from .errors import ContractError, DegeneratePhaseError, IngestionError, PhaseSyncError
from .panel import (
    FilterBand,
    Month,
    Panel,
    RecessionCalendar,
    TimeSeries,
    band_from_periods,
    load_panel_csv,
    load_recession_csv,
    periods_of_band,
    round_half_up,
    write_panel_csv,
)
from .pipeline import (
    PipelineConfig,
    ResultMeta,
    SyncResult,
    ratio_above,
    run_pipeline,
    write_metadata,
)
from .spectral import bandpass, detrend_linear, hilbert, instantaneous_phase
from .sync import sync_index_windowed
from .synthetic import DETUNE_WALK_STEP, RegimeSpec, gen_regime_panel, gen_sine

__version__ = "0.1.0"

__all__ = [
    "ContractError",
    "DegeneratePhaseError",
    "DETUNE_WALK_STEP",
    "FilterBand",
    "IngestionError",
    "Month",
    "Panel",
    "PhaseSyncError",
    "PipelineConfig",
    "RecessionCalendar",
    "RegimeSpec",
    "ResultMeta",
    "SyncResult",
    "TimeSeries",
    "band_from_periods",
    "bandpass",
    "detrend_linear",
    "gen_regime_panel",
    "gen_sine",
    "hilbert",
    "instantaneous_phase",
    "load_panel_csv",
    "load_recession_csv",
    "periods_of_band",
    "ratio_above",
    "round_half_up",
    "run_pipeline",
    "sync_index_windowed",
    "write_metadata",
    "write_panel_csv",
    "__version__",
]

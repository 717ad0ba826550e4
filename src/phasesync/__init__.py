"""Time-varying phase synchronization analysis for monthly panel data.

Workflow: load or generate a panel of monthly series, band-pass each
member to the business-cycle band, take its instantaneous phase, and score
every pair's phase difference with a moving synchronization index; the
panel-level summary is the fraction of pairs locked above a threshold at
each month. See the pipeline module for the one-call entry point and the
cli module for the batch interface.

Importing the package loads no submodule and not numpy: each public name
is imported from its module on first use (PEP 562), so `python -m
phasesync` can set up its process before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# {public name: the submodule that defines it}
_EXPORTS = {name: module for module, names in {
    "errors": "ContractError DegeneratePhaseError IngestionError PhaseSyncError",
    "panel": "FilterBand Month Panel RecessionCalendar band_from_periods load_panel_csv"
             " load_recession_csv periods_of_band round_half_up write_panel_csv",
    "pipeline": "PipelineConfig ResultMeta SyncResult ratio_above run_pipeline write_metadata",
    "spectral": "bandpass detrend_linear hilbert instantaneous_phase",
    "sync": "sync_index_windowed",
    "synthetic": "DETUNE_WALK_STEP RegimeSpec gen_regime_panel gen_sine regime_phases",
}.items() for name in names.split()}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value

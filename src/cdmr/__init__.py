"""Simulation and fitting toolkit for spin ensembles coupled to a microwave cavity.

Forward model: defect spin transition frequencies (NV and P1 centers in
diamond), optically pumped polarization, ensemble-cavity coupling from a mode
field map, and the saturable spin-induced shift that makes the cavity
reflectivity nonlinear in drive power.  Analysis: weak-drive Kerr expansion,
Duffing bistability onset, shot-noise sensitivity, and least-squares fitting
of orientations and lineshapes.  The ``cdmr`` CLI wraps it all behind JSON
configs for reproducible sweeps.
"""

__version__ = "0.1.0"

from .cavity import (
    CavityMode,
    SpinBank,
    cdmr_sweep,
    drive_power,
    drive_rate,
    effective_frequency,
    ensemble_shift,
    extract_effective_resonance,
    intracavity_photon_number,
    reflectivity,
)
from .config import (
    ConfigError,
    LaserLevel,
    RunConfig,
    dbm_to_watts,
    group_builder,
    laser_level,
    list_presets,
    load_preset,
    validate_config,
    watts_to_dbm,
)
from .constants import NV_AXES, NV_AXIS_LABELS, TWO_PI
from .coupling import (
    CouplingResult,
    FieldMap,
    effective_coupling,
    generate_loop_field,
    load_field_map,
    loop_field_at,
    save_field_map,
)
from .fitting import (
    FitResult,
    OdmrDataset,
    fit_cavity_lineshape,
    fit_lorentzian_fwhm,
    fit_orientation,
    fit_orientations,
)
from .nonlinear import (
    BistabilityOnset,
    WeakExpansion,
    bistability_onset,
    cooperativity,
    duffing_steady_states,
    sensitivity,
    weak_expansion,
)
from .spins import (
    effective_relaxation,
    nv_exact_transitions,
    nv_transition_frequencies,
    optical_pumping_rate,
    p1_transition_frequencies,
    rotate_to_unit_vector,
)

__all__ = [name for name in dir() if not name.startswith("_")]

import json

import pytest
from hypothesis import HealthCheck, settings

from cdmr.cavity import SpinEnsembleGroup
from cdmr.config import load_preset_raw

# Numerical tests (elliptic integrals, LM fits) blow the default deadline on
# slow CI boxes; correctness here never depends on wall time.
settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def nv_raw():
    return load_preset_raw("nv_default")


@pytest.fixture
def p1_raw():
    return load_preset_raw("p1_default")


@pytest.fixture
def shrink():
    """Return a helper that makes a preset config cheap to run.

    Small sweeps and a coarse field-map grid keep CLI round trips fast while
    exercising the same code paths as the full-size presets.
    """

    def _shrink(raw, field_steps=5, freq_steps=7, grid=6, powers=None, levels=None):
        out = json.loads(json.dumps(raw))
        out["field_sweep"]["steps"] = field_steps
        out["frequency_sweep"]["steps"] = freq_steps
        out["field_map"]["grid_points"] = [grid, grid, grid]
        if powers is not None:
            out["powers_dbm"] = list(powers)
        if levels is not None:
            out["laser"]["levels_w_per_m2"] = {
                k: v for k, v in out["laser"]["levels_w_per_m2"].items() if k in levels
            }
        return out

    return _shrink


@pytest.fixture
def bank_groups():
    """Return a helper that rebuilds row i of a SpinBank as SpinEnsembleGroups."""

    def _groups(bank, i):
        return [
            SpinEnsembleGroup(omega_s=float(bank.omega_s[i, k]), delta=float(bank.delta[i, k]),
                              g_s=float(bank.g_s[i, k]), n_eff=float(bank.n_eff[i, k]),
                              t1=float(bank.t1[i, k]), t2=float(bank.t2[i, k]), label=label)
            for k, label in enumerate(bank.labels)
        ]

    return _groups

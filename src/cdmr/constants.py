"""Physical constants and defect geometry shared across the package.

Frequencies are angular (rad/s) throughout; magnetic fields are in tesla.
Plain-frequency (Hz) values appear only at file and CLI boundaries.  The
constants are fixed material and fundamental values, not parameters.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi

GAMMA_E = TWO_PI * 28.03e9      # electron gyromagnetic ratio, rad s^-1 T^-1
D_ZFS = TWO_PI * 2.87e9         # NV ground-state zero-field splitting, rad/s
E_STRAIN = TWO_PI * 10e6        # NV transverse strain splitting, rad/s
A_PAR = TWO_PI * 114.03e6       # P1 hyperfine coupling along the defect axis, rad/s
A_PERP = TWO_PI * 81.33e6       # P1 hyperfine coupling transverse to the axis, rad/s
HBAR = 1.054571817e-34          # J s
MU_0 = 1.25663706212e-6         # T m / A
PLANCK = 6.62607015e-34         # J s
LIGHT_SPEED = 299792458.0       # m / s

# The four <111> defect orientation classes of the diamond lattice.
NV_AXES = np.array(
    [
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ]
) / math.sqrt(3.0)

NV_AXIS_LABELS = ("[111]", "[1-1-1]", "[-11-1]", "[-1-11]")

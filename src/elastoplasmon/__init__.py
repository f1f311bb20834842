"""Spectral toolkit for plasmon resonance of the 3D Lame system.

Core-shell-matrix spheres with a negative shell multiplier: perfect plasmon
waves, exact lossy transmission solves, dissipation energies and primal/dual
variational bounds, including the critical source radius R^{3/2}.
"""

from .harmonics import (
    DerivativeTable,
    shared_tables,
    sph_harm_stack,
)
from .lame import (
    LameParams,
    ModeConstants,
    ModeField,
    Term,
    exterior_traction_coeffs,
    mode_constants,
)
from .waves import (
    PerfectWave,
    PlasmonConstants,
    PlasmonEigenProblem,
    assemble_H,
    np_eigenvalue_map,
    np_galerkin_spectrum,
    perfect_wave,
    plasmon_constants,
    plasmon_kernel,
    verify_perfect_wave,
)
from .transmission import (
    LayeredMedium,
    ModeSolution,
    ResonantSingularityError,
    SourceSpec,
    kernel_basis,
    residual_check,
    solve_mode,
    solve_modes,
)
from .energy import (
    EnergyReport,
    dissipation_E,
    functional_I,
    functional_J,
    pairing_P,
)
from .scenarios import (
    SweepResult,
    fixed_configuration,
    schedule_n_delta,
    scheduled_configuration,
    sweep,
    witness_core_resonant,
    witness_fixed_c,
    witness_nocore,
    witness_radial_nonresonant,
)

__version__ = "0.1.0"

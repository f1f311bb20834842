"""Spectral toolkit for plasmon resonance of the 3D Lame system.

Core-shell-matrix spheres with a negative shell multiplier: perfect plasmon
waves, exact lossy transmission solves, dissipation energies and primal/dual
variational bounds, including the critical source radius R^{3/2}.

The public names below are loaded from their modules on first access
(PEP 562), so ``import elastoplasmon`` loads no submodule and a command
loads only the modules it runs.
"""

import importlib

# public name -> the module that defines it
_EXPORTS = {name: module for module, names in (
    ("harmonics", "DerivativeTable shared_tables sph_harm_stack"),
    ("lame", "LameParams ModeConstants ModeField PlasmonConstants SectorCheckError Term mode_constants "
             "plasmon_constants"),
    ("waves", "PerfectWave np_eigenvalue_map np_galerkin_spectrum perfect_wave verify_perfect_wave"),
    ("transmission", "LayeredMedium ModeSolution ResonantSingularityError SourceSpec kernel_basis "
                     "residual_check solve_mode solve_modes"),
    ("energy", "EnergyReport dissipation_E"),
    ("scenarios", "SweepResult fixed_configuration schedule_n_delta scheduled_configuration sweep "
                  "witness_core_resonant witness_fixed_c witness_nocore witness_radial_nonresonant"),
) for name in names.split()}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""Three-spin-1/2 Ising chain: pulse-sequence compiler and exact simulator.

Builds the trilinear-propagator sequences A-D and their broadband variants
as explicit pulse programs, propagates them exactly (8x8 unitaries), and
provides transfer-efficiency and fidelity metrics plus a command-line
front end for tables, curve sweeps, verification suites and compilation.
"""
from .linalg import expm_generator, hermiticity_defect, unitarity_defect
from .spinsys import (
    SpinSystem,
    acetamide,
    free_hamiltonian,
    ideal_chain,
    rf_hamiltonian,
    spin_operator,
    swap13_target,
    target_trilinear,
)
from .pulseprog import (
    Delay,
    HardPulse,
    ProgramSyntaxError,
    PulseProgram,
    WeakPulse,
    ZRotation,
    join,
    parse_program,
    serialize_program,
)
from .sequences import (
    VARIANTS,
    build_swap13,
    build_uzzz,
    duration_scaling,
    theoretical_limit,
    weak_pulse_amplitude,
)
from .broadband import (
    broadband_uzzz,
    build_swap13_broadband,
    dante_discretize,
    default_dante_n,
    eliminate_z_rotations,
    emulate_selective_pulse,
    receiver_phases,
    refocus_offsets,
)
from .engine import (
    IDEAL,
    SimulationSettings,
    ensemble_scales,
    evolve_many,
    propagator_of,
    propagator_stacks,
    total_duration,
)
from .metrics import eta_curve, fidelity, fig2_tables, transfer_efficiency

__all__ = [name for name in dir() if not name.startswith("_")]

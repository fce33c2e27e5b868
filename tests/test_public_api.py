"""The package's public names, pinned: one is added or removed only on purpose."""
import trispin

PUBLIC = [
    "Delay", "HardPulse", "IDEAL", "ProgramSyntaxError", "PulseProgram", "SimulationSettings",
    "SpinSystem", "VARIANTS", "WeakPulse", "ZRotation", "acetamide", "broadband",
    "broadband_uzzz", "build_swap13", "build_swap13_broadband", "build_uzzz",
    "dante_discretize", "default_dante_n", "duration_scaling", "eliminate_z_rotations",
    "emulate_selective_pulse", "engine", "ensemble_scales", "eta_curve", "evolve_many",
    "expm_generator", "fidelity", "fig2_tables", "free_hamiltonian", "hermiticity_defect",
    "ideal_chain", "join", "linalg", "metrics", "offset_scan", "parse_program", "propagator_of",
    "propagator_stacks", "pulseprog", "receiver_phases", "refocus_offsets", "rf_hamiltonian",
    "sequences", "serialize_program", "spin_operator", "spinsys", "swap13_target",
    "swap_duration_bookkeeping", "target_trilinear", "theoretical_limit", "total_duration",
    "transfer_efficiency", "unitarity_defect", "weak_pulse_amplitude",
]


def test_public_names_are_pinned():
    assert sorted(trispin.__all__) == PUBLIC

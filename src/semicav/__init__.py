"""Semiclassical phase-space simulator for single-mode cavity QED.

Two independent solvers for the same physics: a unitary Schroedinger
integrator on the truncated atom+mode Hilbert space, and a semiclassical
wave equation for an atomic state vector attached to a classical complex
field variable. Phase-space machinery (Wigner / Husimi transforms,
symmetric-ordering superoperators, Gaussian coarse-graining) connects the
two pictures and is cross-checked identity by identity.
"""

from semicav.fockspace import (
    FockBasis,
    CompositeSpace,
    CompositeState,
    annihilation,
    coherent_amplitudes,
    symmetric_product,
    superop_weyl_apply,
    partial_trace_field,
    partial_trace_atom,
    tensor,
)
from semicav.unitary import (
    AtomFieldModel,
    TimeGrid,
    Trajectory,
    two_level_model,
    rotated_current,
    interaction_hamiltonian,
    product_initial_state,
    evolve_unitary,
    density_operator,
)
from semicav.phasespace import (
    PhaseGrid,
    PhaseFunction,
    OperatorPhaseField,
    CharacteristicSample,
    SemiclassicalObservable,
    vacuum_kernel,
    characteristic_function,
    superop_characteristic_function,
    wigner,
    sharp_density,
    coarse_grain,
    husimi_density,
    husimi_function,
    phase_space_moment,
    photon_number_from_husimi,
    symmetric_moment_oracle,
)
from semicav.swe import (
    SemiclassicalWave,
    GridOptions,
    ComparisonReport,
    initial_wave,
    evolve_swe,
    evaluate_on_grid,
    field_density,
    swe_expectation,
    sample_field,
    compare_to_oracle,
)

__version__ = "0.1.0"

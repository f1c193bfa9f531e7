"""Collisional phase shifts of photon Fock states stored in a two-component BEC.

A host condensate in a harmonic trap nearly cancels the trapping of a second,
macroscopically occupied-light ("stored") component; the residual weak trap
and screened interaction turn photon number into a slowly accumulating
collisional phase, enough for a nonlinear-sign gate after minutes of storage.
The package provides the closed-form scales, the host profile, the stored
mode and its gate times, the loss-limited lifetime, validity diagnostics, and
an independent Gross-Pitaevskii ground-state solver to check it all.
"""

from .errors import (
    BecnloError,
    ConvergenceError,
    GridError,
    LossNotConfiguredError,
    ValidationError,
)
from .grids import DENSITY, ENERGY, WAVEFUNCTION, RadialField, RadialGrid, radial_integral
from .gpe import (
    GpeProblem,
    GpeSolution,
    compare_tf_vs_gpe,
    host_problem,
    solve_ground_state,
    solve_stored_in_host,
    stored_problem,
    virial_residual,
)
from .host_tf import (
    TfSolution,
    tf_chemical_potential,
    tf_density,
    tf_density_at,
    tf_density_with_back_action,
    tf_host,
    tf_radius,
)
from .lifetime import (
    LossEstimate,
    backsolve_im_a12,
    estimate_lifetime,
    lifetime_tau,
    loss_overlap,
    mode_host_overlap,
)
from .params import (
    HBAR,
    ConditionFlags,
    DerivedScales,
    SpeciesParams,
    SystemConfig,
    TrapParams,
    check_conditions,
    config_from_dict,
    coupling,
    derive_scales,
    load_config,
    sodium_reference_config,
)
from .stored_mode import (
    FockSuperposition,
    NsGateTimes,
    StoredMode,
    energy_shift,
    evolve,
    gate_fidelity,
    ns_gate_target,
    ns_gate_time,
)
from .validity import (
    DensityProfile,
    EnergyProfile,
    ValidityReport,
    density_profile,
    density_std,
    energy_profile,
    figure_data,
    kinetic_correction,
    kinetic_correction_fd,
    quantum_depletion,
    rescaled_kinetic,
    stored_self_energy,
    validity_report,
)

__version__ = "0.1.0"

"""Collisional phase shifts of photon Fock states stored in a two-component BEC.

A host condensate in a harmonic trap nearly cancels the trapping of a second,
macroscopically occupied-light ("stored") component; the residual weak trap
and screened interaction turn photon number into a slowly accumulating
collisional phase, enough for a nonlinear-sign gate after minutes of storage.
The package provides the closed-form scales, the host profile, the stored
mode and its gate times, the loss-limited lifetime, validity diagnostics, and
an independent Gross-Pitaevskii ground-state solver to check it all.

The namespace is lazy (PEP 562): `import becnlo` loads no submodule, and the
first use of a name below imports the module that defines it.
"""

import importlib

# public name -> the module that defines it, one space-separated list per module
_EXPORTS = {
    "errors": "BecnloError ConvergenceError GridError LossNotConfiguredError ValidationError",
    "grids": "RadialGrid radial_integral",
    "gpe": "GpeProblem GpeSolution compare_tf_vs_gpe host_problem solve_ground_state "
    "solve_stored_in_host stored_problem virial_residual",
    "host_tf": "TfSolution tf_density tf_density_at tf_host",
    "lifetime": "LossEstimate estimate_lifetime mode_host_overlap",
    "params": "HBAR ConditionFlags DerivedScales SystemConfig "
    "check_conditions config_from_dict coupling derive_scales energy_shift load_config "
    "sodium_reference_config tf_chemical_potential tf_radius",
    "stored_mode": "FockSuperposition NsGateTimes StoredMode evolve gate_fidelity "
    "ns_gate_target ns_gate_time",
    "validity": "ValidityReport figure_data kinetic_correction rescaled_kinetic validity_report",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

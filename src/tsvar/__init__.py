"""Exact variational calculus on finite time scales.

The package evaluates and minimizes product objectives built from one
forward-difference (delta) and one backward-difference (nabla) integral
functional on a strictly increasing finite point set, and verifies the
difference-calculus identities and Euler-Lagrange conditions that govern
them.  On isolated points all of this calculus is exact, so the bundled
checks run at rounding tolerance.

Each public name and each submodule is imported on first use (PEP 562):
``import tsvar`` runs only this file, and a command line run loads only
the modules its command uses.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_SOURCES = {
    name: module
    for module, names in (
        ("calculus", "GridFunction PartialGridFunction c1_diamond_norm check_derivative_relation"
                     " check_integral_conversion check_integral_splitting check_parts_formulas compose_rho"
                     " compose_sigma delta_derivative delta_integral nabla_derivative nabla_integral"),
        ("lagrangian", "EvalDomainError Lagrangian ParseError catalog parse_lagrangian register_catalog"),
        ("solver", "PerturbationAudit SolveResult SolverConfig StepUnderflowError brute_force_oracle chord"
                   " perturbation_audit solve"),
        ("timescale", "KappaKind KappaSet TimeScale TimeScaleError kappa_set make_timescale mu nu rho sigma"
                      " uniform_scale"),
        ("variational", "ELReport VariationalProblem classic_el_residuals el_residual_1 el_residual_2"
                        " el_residual_cor1 el_residual_cor2 first_variation_gradient j_delta j_nabla j_product"),
    )
    for name in names.split()
}
_SUBMODULES = frozenset({"calculus", "lagrangian", "program", "solver", "timescale", "variational"})

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCES[name]}"), name)
    globals()[name] = value  # later lookups find it without this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})

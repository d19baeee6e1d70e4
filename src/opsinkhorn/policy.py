"""Global numeric policy: the tolerances used throughout the package.

All defaults live in one place so experiments can tighten or relax them
without touching call sites.  ``get_policy()`` returns the active policy;
``set_policy()`` swaps it (e.g. inside a test).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class NumericPolicy:
    # construction-time Hermiticity check, |A - A^dagger| entrywise
    hermitian_atol: float = 1e-12
    # relative eigenvalue floor defining "positive definite"
    pd_rel_floor: float = 1e-13
    # allowed relative negativity for positive semidefinite checks
    psd_rtol: float = 1e-10
    # |tr(rho) - 1| allowed for density matrices
    trace_atol: float = 1e-10
    # eigenvalues below -domain_atol are outside sqrt/power domains
    domain_atol: float = 1e-12
    # marginal mismatch allowed when certifying membership in a constraint set
    constraint_atol: float = 1e-6
    # dual solver tolerances (gradient / residual Frobenius norms)
    bkm_gradient_tol: float = 1e-9
    bkm_max_iters: int = 200
    burg_residual_tol: float = 1e-10
    burg_max_iters: int = 200
    # traces deviating from one by more than this trigger a warning in
    # state divergences
    state_trace_warn: float = 1e-8


_active = NumericPolicy()


def get_policy() -> NumericPolicy:
    """Return the policy currently in effect."""
    return _active


def set_policy(policy: NumericPolicy) -> NumericPolicy:
    """Install ``policy`` globally and return the previous one."""
    global _active
    previous = _active
    _active = policy
    return previous


def relaxed(**overrides) -> NumericPolicy:
    """A copy of the active policy with selected fields replaced."""
    return replace(_active, **overrides)

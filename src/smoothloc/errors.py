"""Exception types shared across the package.

Every failure mode raises a semantic exception naming the offending
quantity; nothing is silently clamped or NaN-propagated.
"""

import numpy as np

_SYM_TOL = 1e-10


class ModelSpecError(ValueError):
    """Raised when a model specification string cannot be parsed.

    Carries the character position of the first offending token in
    ``position`` when known.
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class PreconditionError(ValueError):
    """An argument violates a documented domain constraint."""


class ConfigurationError(ValueError):
    """A config file or config object is malformed or inconsistent."""


class TailUnderflowError(ArithmeticError):
    """Smoothed density underflowed to zero at an evaluation point.

    The score is undefined there; callers must widen r or move x
    rather than divide by zero.
    """

    def __init__(self, x, r):
        super().__init__(
            f"smoothed density underflowed at x={x!r} with r={r}; "
            "score undefined this far into the tail"
        )
        self.x = x
        self.r = r


class EstimationError(RuntimeError):
    """An estimator could not produce a result at the given settings.

    The message names the smallest sufficient change (more samples,
    larger r, ...) when one is known.
    """


def require_finite_samples(x) -> None:
    """Raise PreconditionError unless every sample (row, for 2-d x) is finite."""
    finite = np.atleast_1d(np.isfinite(x))
    if not finite.all():
        where = np.flatnonzero(~finite.reshape(finite.shape[0], -1).all(axis=1))
        raise PreconditionError(
            f"samples must be finite: {where.size} non-finite sample(s), "
            f"the first at index {where[0]}"
        )


def require_sym_psd(m: np.ndarray, subject: str) -> None:
    """Raise PreconditionError naming `subject` unless m is square and,
    within 1e-10 of max(1, max |m_ij|), symmetric and PSD."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise PreconditionError(f"{subject} must be square")
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m - m.T))) > _SYM_TOL * scale:
        raise PreconditionError(f"{subject} must be symmetric within 1e-10")
    if float(np.linalg.eigvalsh(m).min()) < -_SYM_TOL * scale:
        raise PreconditionError(f"{subject} must be positive semidefinite")

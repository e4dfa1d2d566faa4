"""Closed forms and checks that only the tests use."""

import numpy as np

from flowfilter.models import SystemModel, _fd_gradient, as_batch


def riccati_fixed_point(A: float, H: float) -> float:
    """Positive root of 2AP + 1 - P^2 H^2 = 0 (scalar stationary variance)."""
    return (A + np.sqrt(A * A + H * H)) / (H * H)


def check_gradient(model: SystemModel, points, rel_tol: float = 1e-5) -> float:
    """Max relative error of obs_grad against central differences of obs."""
    pts = as_batch(points, model.dim)
    fd = _fd_gradient(model.obs, pts)
    an = model.obs_grad(pts)
    scale = np.maximum(np.abs(an), 1.0)
    err = float(np.max(np.abs(an - fd) / scale))
    if err > rel_tol:
        raise ValueError(f"obs_grad disagrees with finite differences: {err:.3e}")
    return err

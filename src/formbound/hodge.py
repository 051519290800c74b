"""Decompositions of vector fields into gradient, divergence-of-skew, and
bounded remainders, plus the principal-part reduction for matrix
coefficients.

The homogeneous split of a mean-free field b is

    b = grad(inv_laplacian(div b)) + mat_div(inv_laplacian(curl b)),

exact mode by mode with the curl convention of torus.py.  All multiplier
compositions are fused in frequency space: one batched forward transform
of the input field and one batched inverse transform of every output
component, both through torus, so the reconstruction residual is pure
rounding.  A real field takes the real path (half spectra, ``rfftn`` /
``irfftn``) and a complex one the full spectra; both read the symbols of
the torus table (``_deriv_kappas``, whose own-axis Nyquist entries are
zero), the real path through ``[..., :n//2 + 1]`` views.  One caveat
inherited from real spectral calculus: energy at the unpaired Nyquist
frequency of a real field has no real derivative representation, so its
solenoidal part shows up in the residual instead of in F.  Band-limited
inputs (anything sampled from a smooth function) are reconstructed to
machine precision.  The splits return their parts only: the residual is
the diagnostic of the ``decompose`` command, which rebuilds b from them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .torus import (
    MatrixField,
    RankError,
    ScalarField,
    VectorField,
    _Spectral,
    _deriv_kappas,
    _key,
    _pairs,
    _skew_field,
    mat_div,
)

__all__ = [
    "DecompositionResult",
    "hodge_decompose",
    "project",
    "reduce_principal",
    "inhomogeneous_decompose",
]


@dataclass
class DecompositionResult:
    """Outcome of a field decomposition.

    mean_part is the removed zero mode (zeros for the inhomogeneous split,
    which keeps every mode).  h and gamma are the potential part and
    remainder of the inhomogeneous split's scalar source q, and None for
    the homogeneous split, which takes no q.
    """

    mean_part: np.ndarray
    c: VectorField
    F: MatrixField
    h: VectorField | None = None
    gamma: ScalarField | None = None


def _split_symbols(sp):
    """(kaps, grounded |kaps|^2, Bessel factor) as ``sp`` reads them."""
    kaps, ks, bessel = _deriv_kappas(*_key(sp.grid))
    return tuple(sp.view(k) for k in kaps), sp.view(ks), sp.view(bessel)


def _fused_split(b: VectorField, homogeneous: bool):
    """(mean, c, F) of the homogeneous or the Bessel split of b, from one
    batched forward and one batched inverse transform."""
    g = b.grid
    d = g.dim
    sp = _Spectral(b)
    kaps, ks, bessel = _split_symbols(sp)
    hats = sp.forward(b.values)
    mean_part = np.array([h.flat[0] / g.npoints for h in hats])
    if b.is_real:
        mean_part = mean_part.real
    if homogeneous:
        for h in hats:
            h.flat[0] = 0.0
    s = sum(kaps[j] * hats[j] for j in range(d))
    if homogeneous:
        c_hat = (kaps[i] * s / ks for i in range(d))
        f_hat = (-1j * (kaps[j] * hats[i] - kaps[i] * hats[j]) / ks
                 for i, j in _pairs(d))
    else:
        c_hat = (bessel * (kaps[i] * s + hats[i]) for i in range(d))
        f_hat = (-1j * bessel * (kaps[j] * hats[i] - kaps[i] * hats[j])
                 for i, j in _pairs(d))
    spec = sp.stacked(itertools.chain(c_hat, f_hat), d + d * (d - 1) // 2)
    del hats, s, c_hat, f_hat
    back = sp.inverse(spec)
    return mean_part, VectorField.from_array(g, back[:d]), _skew_field(g, back[d:])


def hodge_decompose(b: VectorField) -> DecompositionResult:
    """Split b into mean + gradient part c + divergence part mat_div(F)."""
    if not isinstance(b, VectorField):
        raise RankError("hodge_decompose expects a vector field")
    mean_part, c, F = _fused_split(b, homogeneous=True)
    return DecompositionResult(mean_part=mean_part, c=c, F=F)


def project(which: str, b: VectorField) -> VectorField:
    """Idempotent Hodge projections, read off the homogeneous split.

    "P" keeps the gradient part grad(inv_laplacian(div .)), "Q" the
    divergence part mat_div(inv_laplacian(curl .)); both drop the mean and
    satisfy P + Q = id - mean, P Q = Q P = 0 exactly.
    """
    if which not in ("P", "Q"):
        raise ValueError(f"projection must be 'P' or 'Q', got {which!r}")
    mean_part, c, _ = _fused_split(b, homogeneous=True)
    if which == "P":
        return c
    mean = mean_part.reshape((-1,) + (1,) * b.grid.dim)
    return VectorField.from_array(b.grid, b.values - mean - c.values)


def _pointwise_opnorm(sym: np.ndarray, d: int) -> np.ndarray:
    # sym has shape (d, d, *grid); batch over grid points.
    pts = np.moveaxis(sym, (0, 1), (-2, -1)).reshape(-1, d, d)
    if np.iscomplexobj(pts):
        return np.linalg.svd(pts, compute_uv=False)[:, 0]
    return np.max(np.abs(np.linalg.eigvalsh(pts)), axis=1)


def reduce_principal(A: MatrixField, b: VectorField):
    """Fold the skew part of A into the drift.

    Returns (As, b1, s_inf): the symmetric part, the effective drift
    b1 = b - mat_div((A - A^T)/2), and the essential sup of the pointwise
    operator norm of As.
    """
    if A.grid != b.grid:
        raise ValueError("A and b live on different grids")
    At = A.transpose()
    As = (A + At) * 0.5
    b1 = b - mat_div((A - At) * 0.5)
    s_inf = float(_pointwise_opnorm(As.values, A.grid.dim).max())
    return As, b1, s_inf


def inhomogeneous_decompose(b: VectorField, q: ScalarField) -> DecompositionResult:
    """Bessel-kernel split adapted to W^{1,2}: every mode kept, no grounding.

    b = c + mat_div(F) with c = -grad((1-Delta)^{-1} div b) + (1-Delta)^{-1} b
    and F = -(1-Delta)^{-1} curl b;  q = div h + gamma with
    h = -grad((1-Delta)^{-1} q) and gamma = (1-Delta)^{-1} q.
    """
    if b.grid != q.grid:
        raise ValueError("b and q live on different grids")
    g = b.grid
    d = g.dim
    _, c, F = _fused_split(b, homogeneous=False)
    sp = _Spectral(q)
    kaps, _, bessel = _split_symbols(sp)
    qhat = sp.forward(q.values)
    spec = sp.stacked(itertools.chain((-1j * kaps[i] * bessel * qhat for i in range(d)),
                                      [bessel * qhat]), d + 1)
    del qhat
    back = sp.inverse(spec)
    return DecompositionResult(mean_part=np.zeros(d), c=c, F=F,
                               h=VectorField.from_array(g, back[:d]),
                               gamma=ScalarField(g, back[d]))

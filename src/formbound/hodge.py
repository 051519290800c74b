"""Decompositions of vector fields into gradient, divergence-of-skew, and
bounded remainders, plus the principal-part reduction for matrix
coefficients.

The homogeneous split of a field b is

    b = b_h + c + mat_div(F),   c = grad(G div b),   F = G curl b,

exact mode by mode with the curl convention of torus.py, where G is -1
over the grounded |kappas|^2 (``inv_laplacian`` in its place keeps the
Nyquist entries and misses), and the harmonic part b_h holds the modes
that the Nyquist-zeroed derivative annihilates: the mean and the
Nyquist-only modes.  ``decompose(b, q, flavor)`` is the one entry to it
and to the Bessel split, which alone takes a q.  All multiplier
compositions are fused in frequency space, all through torus: one batched
forward transform of the input field, then each output component's
spectrum is built and inverse-transformed on its own, straight into the
part that holds it.  So the reconstruction residual is pure rounding, and
one output spectrum is alive at a time.  F is a ``SkewField``, which holds
its d(d-1)/2 upper entries only.  A real field takes the real path
(half spectra, ``rfftn`` / ``irfftn``) and a complex one the full
spectra; both read the wavenumbers and the split symbols of their
core (``kappas``, whose own-axis Nyquist entries are zero, and
``split``), each at the shape of that path's spectra.  b_h costs no
transform: it is b's mean over each parity class of cells, and an absent
or zero q costs the Bessel split none either.  Every input, white noise
included, is reconstructed to machine precision.  The splits
return their parts only: the residual is the diagnostic of the
``decompose`` command, which rebuilds b from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import _check_flavor
from .torus import (
    MatrixField,
    RankError,
    ScalarField,
    SkewField,
    VectorField,
    _Spectral,
    _pairs,
    _skew_field,
    mat_div,
    shared_grid,
)

__all__ = [
    "DecompositionResult",
    "decompose",
    "harmonic_part",
    "project",
    "reduce_principal",
]


@dataclass
class DecompositionResult:
    """Outcome of a field decomposition.

    harmonic is the table of ``harmonic_part``: the modes the homogeneous
    split's derivative annihilates, which neither c nor Div F carries
    (zeros for the inhomogeneous split, which keeps every mode in c).  h
    and gamma are the potential part and remainder of the inhomogeneous
    split's scalar source q, and None for the homogeneous split, which
    takes no q.
    """

    harmonic: np.ndarray
    c: VectorField
    F: SkewField
    h: VectorField | None = None
    gamma: ScalarField | None = None

    @property
    def mean_part(self) -> np.ndarray:
        """The zero mode of the harmonic part, which is b's mean."""
        return self.harmonic.reshape(len(self.harmonic), -1).mean(axis=1)


def harmonic_part(b: VectorField) -> np.ndarray:
    """b_h, the part of b that the Nyquist-zeroed derivative annihilates:
    the mean and the Nyquist-only modes, whose every wavenumber component
    is 0 or n/2.  These modes span the fields that are constant on each
    parity class of cells (i_1 mod 2, ..., i_d mod 2), so b_h is b's mean
    over each class, computed without a transform.  Returned as an array
    of shape (dim, 2, ..., 2) indexed by component, then class."""
    g = b.grid
    split = b.values.reshape((g.dim,) + (g.points_per_axis // 2, 2) * g.dim)
    return split.mean(axis=tuple(range(1, 2 * g.dim, 2)))


def _fused_split(b: VectorField, homogeneous: bool):
    """(c, F) of the homogeneous or the Bessel split of b, from one
    batched forward transform; each output component streams back on its
    own."""
    g = b.grid
    d = g.dim
    sp = _Spectral(b.grid, b.is_real)
    kaps, (ks, bessel) = sp.kappas, sp.split
    hats = sp.forward(b.values)
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
    c = VectorField.from_array(g, sp.stream(c_hat, (d,)))
    del s  # c alone reads it
    return c, _skew_field(sp, f_hat)


def decompose(b: VectorField, q: ScalarField | None = None,
              flavor: str = "homogeneous") -> DecompositionResult:
    """Split b in the flavor's norm, and in the inhomogeneous flavor q.

    The homogeneous split is b = b_h + c + mat_div(F) with b_h the
    harmonic part; it takes no q.  The inhomogeneous split is the
    Bessel-kernel split adapted to W^{1,2}, every mode kept and no
    grounding: b = c + mat_div(F) with
    c = -grad((1-Delta)^{-1} div b) + (1-Delta)^{-1} b and
    F = -(1-Delta)^{-1} curl b, and q = div h + gamma with
    h = -grad((1-Delta)^{-1} q) and gamma = (1-Delta)^{-1} q.  An absent
    or all-zero q costs no transform: its h and gamma are zeros.
    """
    _check_flavor(flavor)
    if not isinstance(b, VectorField):
        raise RankError("decompose expects a vector field")
    if flavor == "homogeneous":
        if q is not None:
            raise ValueError("the homogeneous split takes no q; "
                             "the inhomogeneous flavor splits q")
        c, F = _fused_split(b, homogeneous=True)
        return DecompositionResult(harmonic=harmonic_part(b), c=c, F=F)
    g = shared_grid(b, q)
    d = g.dim
    c, F = _fused_split(b, homogeneous=False)
    if q is None or not q.values.any():
        dtype = np.float64 if q is None else q.values.dtype
        h = VectorField.from_array(g, np.zeros((d,) + g.shape, dtype=dtype))
        gamma = ScalarField(g, np.zeros(g.shape, dtype=dtype))
    else:
        sp = _Spectral(g, q.is_real)
        kaps, (_, bessel) = sp.kappas, sp.split
        qhat = sp.forward(q.values)
        h = VectorField.from_array(g, sp.stream((-1j * kaps[i] * bessel * qhat
                                                 for i in range(d)), (d,)))
        gamma = ScalarField(g, sp.inverse(bessel * qhat))
    return DecompositionResult(harmonic=np.zeros((d,) + (2,) * d), c=c, F=F,
                               h=h, gamma=gamma)


def project(which: str, b: VectorField) -> VectorField:
    """Idempotent Hodge projections, read off the homogeneous split.

    "P" keeps the gradient part c, "Q" the rest of the mean-free part: the
    divergence part mat_div(F) and the Nyquist-only modes of b_h.  Both
    drop the mean and satisfy P + Q = id - mean, P Q = Q P = 0 exactly.
    """
    if which not in ("P", "Q"):
        raise ValueError(f"projection must be 'P' or 'Q', got {which!r}")
    dec = decompose(b)
    if which == "P":
        return dec.c
    mean = dec.mean_part.reshape((-1,) + (1,) * b.grid.dim)
    return VectorField.from_array(b.grid, b.values - mean - dec.c.values)


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
    grid = shared_grid(A, b)
    At = A.transpose()
    As = (A + At) * 0.5
    b1 = b - mat_div((A - At) * 0.5)
    s_inf = float(_pointwise_opnorm(As.values, grid.dim).max())
    return As, b1, s_inf

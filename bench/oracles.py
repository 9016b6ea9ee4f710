"""Closed-form Finsler distances for the benchmark's reference values.

Each function takes start points ``p`` and end points ``q`` of shape
``(..., n)`` and returns the exact distance of the continuous problem, with
no discretisation.  They are written in forms that stay accurate for nearby
points (``arcsin``/``arctan2`` in place of ``arccos``/``arccosh``); the
benchmark's tests check them against the textbook ``arccos``/``arccosh``
forms and against independent facts (rays from the origin, the ``c -> 0``
limit, the infinitesimal norm).

For a Randers norm ``sqrt(g) + df`` the drift integrates to a boundary
term along every path, so ``d(p, q) = d_g(p, q) + f(q) - f(p)``.
"""

from __future__ import annotations

import numpy as np


def _sq(x):
    return np.einsum("...i,...i->...", x, x)


def flat(p, q):
    """Euclidean distance ``|q - p|``."""
    return np.sqrt(_sq(np.asarray(q, float) - np.asarray(p, float)))


def sphere(p, q):
    """Round unit sphere in the stereographic chart, ``g = 4/(1+r^2)^2 I``.

    The chordal distance of the stereographic images is
    ``2|p-q| / sqrt((1+|p|^2)(1+|q|^2))``; the arc is twice its half-angle.
    """
    p, q = np.asarray(p, float), np.asarray(q, float)
    s = np.sqrt(_sq(q - p) / ((1.0 + _sq(p)) * (1.0 + _sq(q))))
    return 2.0 * np.arcsin(np.minimum(s, 1.0))


def disk(p, q):
    """Poincare disk, ``g = 4/(1-r^2)^2 I``.

    ``cosh d = 1 + 2|p-q|^2 / ((1-|p|^2)(1-|q|^2))`` rewritten through
    ``cosh d - 1 = 2 sinh^2(d/2)``.
    """
    p, q = np.asarray(p, float), np.asarray(q, float)
    s = np.sqrt(_sq(q - p) / ((1.0 - _sq(p)) * (1.0 - _sq(q))))
    return 2.0 * np.arcsinh(s)


def _complex(x):
    x = np.asarray(x, float)
    return x[..., 0::2] + 1j * x[..., 1::2]


def fubini_study(p, q):
    """Fubini-Study metric on the affine chart of CP^2 (``g = I`` at 0).

    Real coordinates ``(x1, x2, x3, x4) = (Re z1, Im z1, Re z2, Im z2)``;
    ``cos d = |1 + <z, w>| / sqrt((1+|z|^2)(1+|w|^2))``.  The sine comes from
    ``(1+|z|^2)(1+|w|^2) - |1+<z,w>|^2 = |z-w|^2 + |z1 w2 - z2 w1|^2``, a sum
    of two nonnegative terms, so nearby points lose no digits.
    """
    z, w = _complex(p), _complex(q)
    inner = np.einsum("...i,...i->...", np.conj(z), w)
    dz = z - w
    cross = z[..., 0] * w[..., 1] - z[..., 1] * w[..., 0]
    sin2 = np.einsum("...i,...i->...", np.conj(dz), dz).real + np.abs(cross) ** 2
    return np.arctan2(np.sqrt(sin2), np.abs(1.0 + inner))


def magnetic(p, q, c):
    """Flat chart with ``tau = (c/2)(x1 dx2 - x2 dx1)``, so ``d tau = c dx1^dx2``.

    Minimisers are circular arcs of curvature ``|c|`` that bulge to the side
    where the enclosed area lowers the length:
    ``d = (c/2)(p1 q2 - p2 q1) + 2 R a - |c| R^2 (a - sin a cos a)`` with
    ``R = 1/|c|`` and ``sin a = |q - p| / (2R)``; valid for ``|q-p| <= 2R``.
    """
    p, q = np.asarray(p, float), np.asarray(q, float)
    L = flat(p, q)
    chord_drift = 0.5 * c * (p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0])
    if c == 0.0:
        return L + chord_drift
    R = 1.0 / abs(c)
    if np.any(L > 2.0 * R):
        raise ValueError("endpoints farther apart than the arc diameter 2/|c|")
    a = np.arcsin(L / (2.0 * R))
    return chord_drift + 2.0 * R * a - abs(c) * R ** 2 * (a - np.sin(a) * np.cos(a))

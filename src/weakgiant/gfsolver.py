"""Generating-function machinery for weak (undirected-sense) components.

Let ``U(z, w) = sum u(n, k) z^n w^k``.  Following an edge forward lands on a
vertex whose remaining degree law has generating function

    U_in(z, w)  = (1/mu) dU/dz   (one in-degree consumed),
    U_out(z, w) = (1/mu) dU/dw   (one out-degree consumed),

and the weak-component size generating functions solve the joint system

    W_in(z)  = z U_in(W_out(z), W_in(z)),
    W_out(z) = z U_out(W_out(z), W_in(z)),
    W(z)     = z U(W_out(z), W_in(z)).

At ``z = 1`` the system reduces to a scalar fixed point whose smallest
solution in [0, 1]^2 gives the probability that an edge leads into a finite
component; ``1 - U`` at that point is the giant-component vertex fraction.
Picard iteration from (0, 0) converges monotonically to that smallest
solution; a law without a giant weak component is answered with (1, 1)
directly.

Both solvers read one term table per law: the arrays ``(weight, exponent of
W_out, exponent of W_in)`` of U, mu U_in and mu U_out over the sorted
support, built once per call.

The power series need no iteration: because of the factor z, coefficient m
of every series depends only on coefficients below m, so one pass computes
each coefficient once, in order ("relaxed" evaluation, van der Hoeven,
J. Symbolic Comput. 34(6), 2002).  The result is exact for the truncated
recursion up to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .degdist import BALANCE_TOL, BivariateDegreeDist, _support, require_edge_balanced
from .errors import NoConvergence, ValidationError

#: Default fixed-point tolerance and iteration budget.
FP_TOL = 1e-12
MAX_ITER = 10**6


@dataclass(frozen=True)
class FixedPointSolution:
    """Smallest fixed point of the edge-following system at z = 1, with the
    giant weak-component fraction ``1 - U(s_out, s_in)`` it implies."""

    s_out: float
    s_in: float
    iterations: int
    residual: float
    giant_fraction: float


def _terms(d: BivariateDegreeDist):
    """Terms ``(weight, exponent of W_out, exponent of W_in)`` of U, mu U_in
    and mu U_out, as arrays over the sorted support."""
    ns, ks, ps = _support(d.entries)
    has_in, has_out = ns >= 1, ks >= 1
    return (
        (ps, ns, ks),
        (ns[has_in] * ps[has_in], ns[has_in] - 1, ks[has_in]),
        (ks[has_out] * ps[has_out], ns[has_out], ks[has_out] - 1),
    )


def _eval(term, x: float, y: float) -> float:
    """``sum w x^a y^b`` over one term table."""
    w, a, b = term
    return float(np.sum(w * x**a * y**b))


def interior_fixed_point(
    d: BivariateDegreeDist,
    *,
    tol: float = FP_TOL,
    max_iter: int = MAX_ITER,
    balance_tol: float = BALANCE_TOL,
) -> FixedPointSolution:
    """Smallest solution of ``s_in = U_in(s_out, s_in), s_out = U_out(...)``.

    A law without a giant weak component (see
    :attr:`~weakgiant.degdist.MomentSet.giant_weak`) returns (1, 1) and a
    giant fraction of exactly 0 without iterating.  Otherwise Picard
    iteration starts at (0, 0); iterates are monotone nondecreasing and
    bounded by 1, which is asserted each step (with a one-ulp slack for
    roundoff).
    """
    require_edge_balanced(d, balance_tol)
    if not d.moments().giant_weak:
        return FixedPointSolution(s_out=1.0, s_in=1.0, iterations=0, residual=0.0, giant_fraction=0.0)

    u, u_in, u_out = _terms(d)
    mu = d.mean_degree()
    s_out, s_in = 0.0, 0.0
    residual = math.inf
    for iteration in range(1, max_iter + 1):
        new_in = _eval(u_in, s_out, s_in) / mu
        new_out = _eval(u_out, s_out, s_in) / mu
        assert new_in >= s_in - 1e-12 and new_out >= s_out - 1e-12
        assert new_in <= 1.0 + 1e-12 and new_out <= 1.0 + 1e-12
        new_in = min(new_in, 1.0)
        new_out = min(new_out, 1.0)
        residual = max(abs(new_in - s_in), abs(new_out - s_out))
        s_out, s_in = new_out, new_in
        if residual <= tol:
            return FixedPointSolution(
                s_out=s_out,
                s_in=s_in,
                iterations=iteration,
                residual=residual,
                giant_fraction=max(0.0, 1.0 - _eval(u, s_out, s_in)),
            )
    raise NoConvergence("fixed-point iteration did not converge", max_iter, residual)


def giant_weak_fraction(
    d: BivariateDegreeDist,
    *,
    tol: float = FP_TOL,
    max_iter: int = MAX_ITER,
    balance_tol: float = BALANCE_TOL,
) -> float:
    """Fraction of vertices in the giant weak component (0 if subcritical)."""
    return interior_fixed_point(d, tol=tol, max_iter=max_iter, balance_tol=balance_tol).giant_fraction


def weak_size_distribution(
    d: BivariateDegreeDist, order: int, *, balance_tol: float = BALANCE_TOL
) -> list[float]:
    """Probabilities ``w(1), ..., w(order)`` that a random vertex lies in a
    finite weak component of each size.

    One pass over the coefficients: ``[z^j]`` of ``W_out^a`` and ``W_in^b``
    is built from the coefficients up to j, and then gives coefficient j + 1
    of ``W_in``, ``W_out`` and ``W``.  In the supercritical phase the
    coefficients are the finite-component size law, summing to one minus the
    giant fraction.
    """
    if order < 1:
        raise ValidationError(f"order {order} must be >= 1")
    require_edge_balanced(d, balance_tol)
    u, u_in, u_out = _terms(d)
    mu = d.mean_degree()
    # Terms of U, U_in and U_out.
    series = [u] + [(w / mu, a, b) for w, a, b in (u_in, u_out)]
    _ps, ns, ks = u
    top_out = int(ns.max())
    pow_out = np.zeros((top_out + 1, order))  # pow_out[a, j] = [z^j] W_out^a
    pow_in = np.zeros((int(ks.max()) + 1, order))
    pow_out[0, 0] = pow_in[0, 0] = 1.0
    # grouped[g, a, j] = [z^j] of the terms of series g with W_out exponent a,
    # without their W_out factor.
    grouped = np.zeros((len(series), top_out + 1, order))
    coeffs = np.zeros((len(series), order + 1))  # rows: W, W_in, W_out
    for j in range(order):
        pow_out[1:, j] = pow_out[:-1, :j] @ coeffs[2, j:0:-1]
        pow_in[1:, j] = pow_in[:-1, :j] @ coeffs[1, j:0:-1]
        for g, (weight, a, b) in enumerate(series):
            grouped[g, :, j] = np.bincount(a, weights=weight * pow_in[b, j], minlength=top_out + 1)
        coeffs[:, j + 1] = np.einsum("al,gal->g", pow_out[:, : j + 1], grouped[:, :, j::-1])
    w = coeffs[0, 1:]
    assert math.fsum(w.tolist()) <= 1.0 + 1e-9
    return w.tolist()

"""Generating-function machinery for weak (undirected-sense) components.

Let ``U(z, w) = sum u(n, k) z^n w^k``.  Following an edge forward lands on a
vertex whose remaining degree law has generating function

    U_in(z, w)  = (1/mu) dU/dz   (one in-degree consumed),
    U_out(z, w) = (1/mu) dU/dw   (one out-degree consumed),

and the weak-component size generating functions solve the joint system

    W_in(z)  = z U_in(W_out(z), W_in(z)),
    W_out(z) = z U_out(W_out(z), W_in(z)),
    W(z)     = z U(W_out(z), W_in(z)).

At ``z = 1`` the system reduces to a fixed point ``s = (s_out, s_in)``
whose least solution in [0, 1]^2 gives the probabilities that an edge leads
into a finite component; ``1 - U`` at that point is the giant-component
vertex fraction.  :func:`interior_fixed_point` reaches it by Newton's method
from (0, 0), which increases monotonically to the least solution, and
returns it with an a-posteriori error bound; a law without a giant weak
component is answered with (1, 1) directly.  Both solvers normalize U_in
and U_out each by its own mean (mu_10, mu_01; every degree table is edge
balanced when it is read, which makes both equal to mu within its
tolerance), so (1, 1) solves the system exactly.

Both solvers read one term table per law: the arrays ``(weight, exponent of
W_out, exponent of W_in)`` of U, mu_10 U_in and mu_01 U_out over the
sorted support, built once per call.

The power series need no iteration: because of the factor z, coefficient m
of every series depends only on coefficients below m, so one pass computes
each coefficient once, in order ("relaxed" evaluation, van der Hoeven,
J. Symbolic Comput. 34(6), 2002).  The series read the term table as one
dense box of weights cut at the order (exponents up to order - 1; higher
powers of W_out and W_in start beyond it), and each coefficient costs four
matrix-vector products.  The result is exact for the truncated recursion up
to roundoff.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .degdist import _EPS, BivariateDegreeDist, MomentSet, _checked_count, _new_keys
from .errors import NoConvergence, ValidationError

#: Fixed-point tolerance (on the error bound) and iteration budget.
FP_TOL = 1e-12
MAX_ITER = 10**6
#: Relative rounding bound of one term-table sum: a few ulps per term
#: (log1p, the exponent sum, expm1, the weight) and the ~20 + log2(length)
#: levels of numpy's pairwise summation, with room to spare.
_ROUNDOFF = 64 * _EPS
#: Stand-in for log 0: finite, so 0 * log 0 == 0, and exp of any positive
#: multiple is 0; any int64 multiple of it, and the sum of two, stays finite.
_LOG_ZERO = -1e280


@dataclass(frozen=True)
class FixedPointSolution:
    """Smallest fixed point of the edge-following system at z = 1, with the
    giant weak-component fraction ``1 - U(s_out, s_in)`` it implies.

    ``error_bound`` bounds ``max |s - s*|`` over both components, where s*
    is the exact least fixed point of the table's system; it covers the
    stopping point of the iteration and floating-point roundoff.
    """

    s_out: float
    s_in: float
    iterations: int
    residual: float
    giant_fraction: float
    error_bound: float


def _terms(d: BivariateDegreeDist):
    """Terms ``(weight, exponent of W_out, exponent of W_in)`` of U, mu_10
    U_in and mu_01 U_out, as arrays over the sorted support."""
    ns, ks, ps = d.support
    has_in, has_out = ns >= 1, ks >= 1
    return (
        (ps, ns, ks),
        (ns[has_in] * ps[has_in], ns[has_in] - 1, ks[has_in]),
        (ks[has_out] * ps[has_out], ns[has_out], ks[has_out] - 1),
    )


def _partial(term, axis: int):
    """Terms of the derivative of ``sum w x^a y^b`` by x (axis 1) or y
    (axis 2): the terms with that exponent >= 1, the exponent shifted down
    and multiplied into the weight."""
    keep = term[axis] >= 1
    w, a, b = (x[keep] for x in term)
    return w * (a, b)[axis - 1], a - (axis == 1), b - (axis == 2)


def _linear_part_solved(out, inn):
    """Term tables of ``s = (I - L)^-1 R(s)`` for ``s = L s + R(s)``, the
    rows ``(U_out, U_in)`` split into linear terms ``L s`` and the rest R.

    A linear term passes a path straight on ((1, 1) vertices, or (0, 2)
    and (2, 0) vertices in turn); near threshold such terms make ``I - J``
    nearly singular in a way no rounding-level residual resolves.  Both
    forms have the same fixed points and, Newton being affine invariant,
    the same Newton iterates.  With each row of total weight 1, ``1 -
    L_ii`` is the rest of row i, so every weight below is a sum of
    products of positive numbers and keeps full relative precision.  A
    purely linear part (``det(I - L) = 0``) is left as it is.
    """
    def split(row):
        w, a, b = row
        along_out, along_in = (a == 1) & (b == 0), (a == 0) & (b == 1)
        rest = ~(along_out | along_in)
        rest_terms = (w[rest], a[rest], b[rest])
        return math.fsum(w[along_out].tolist()), math.fsum(w[along_in].tolist()), rest_terms

    _l_oo, l_oi, r_out = split(out)
    l_io, _l_ii, r_in = split(inn)
    rho_out, rho_in = math.fsum(r_out[0].tolist()), math.fsum(r_in[0].tolist())
    det = l_oi * rho_in + rho_out * l_io + rho_out * rho_in
    if not det > 0.0:
        return out, inn

    # Both new rows run over the union of the exponent pairs of R, in key
    # order; index maps each term to its pair.
    pairs = [np.concatenate([r_out[i], r_in[i]]) for i in (1, 2)]
    by_key = np.lexsort(pairs[::-1])
    sorted_pairs = [x[by_key] for x in pairs]
    starts = _new_keys(sorted_pairs)
    a, b = (x[starts] for x in sorted_pairs)
    index = np.empty_like(by_key)
    index[by_key] = np.cumsum(starts) - 1
    cut = len(r_out[0])

    def row(c_out, c_in):
        return (
            np.bincount(index[:cut], weights=r_out[0] * (c_out / det), minlength=len(a))
            + np.bincount(index[cut:], weights=r_in[0] * (c_in / det), minlength=len(a)),
            a,
            b,
        )

    return row(l_io + rho_in, l_oi), row(l_io, l_oi + rho_out)


def _edge_rows(u_in, u_out, m: MomentSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Terms of U_out and U_in, each normalized by its own mean (mu_01,
    mu_10) to total weight 1 and with its linear part solved
    (:func:`_linear_part_solved`), then of their partial derivatives by
    W_out and W_in, as arrays of weights and of the exponents of W_out and
    W_in, one row each, zero-padded to one width."""
    values = _linear_part_solved((u_out[0] / m.mu01, *u_out[1:]), (u_in[0] / m.mu10, *u_in[1:]))
    # A derivative row is a subset of its value row, so no row is wider.
    shape = (6, max(len(w) for w, _a, _b in values))
    table = np.zeros(shape), np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64)
    derivatives = (_partial(term, axis) for term in values for axis in (1, 2))
    for i, row in enumerate(itertools.chain(values, derivatives)):
        for column, entries in zip(table, row):
            column[i, : len(entries)] = entries
    return table


def _log1m(t: float) -> float:
    """``log(1 - t)``, with a finite stand-in for log 0 so that a zero
    exponent still gives ``0**0 == 1``."""
    return math.log1p(-t) if t < 1.0 else _LOG_ZERO


def _sums(rows, t_out: float, t_in: float):
    """At ``s = 1 - t``, per row of a term table: ``sum w (s_out^a s_in^b -
    1)``, and for the first two rows also ``sum w s_out^a s_in^b``.  Each
    term is one expm1 or exp of a same-signed exponent, so each sum is
    accurate relative to its own size: the first as t goes to 0, the second
    as s goes to 0."""
    w, a, b = rows
    e = a * _log1m(t_out)
    e += b * _log1m(t_in)
    value = (w[:2] * np.exp(e[:2])).sum(axis=-1)
    e = np.expm1(e, out=e)
    e *= w
    return e.sum(axis=-1), value


def _residual(h: float, g: float, t: float) -> tuple[float, float]:
    """One component of ``F = H(t) - t = s - U_(s)`` and its rounding bound:
    from the complement ``h = H(t)``, or from the value ``g = U_(s)`` where
    ``s = 1 - t < 1/2`` (then exact) and that form rounds less."""
    if t > 0.5:
        s = 1.0 - t
        return s - g, _ROUNDOFF * (g + s)
    return h - t, _ROUNDOFF * (h + t)


def _giant_fraction(u, t_out: float, t_in: float) -> float:
    """``1 - U(s) = sum p (1 - s_out^n s_in^k)`` at ``s = 1 - t``."""
    return -float(_sums([x[None] for x in u], t_out, t_in)[0][0])


def _is_below_fixed_point(values, p_out: float, p_in: float) -> bool:
    """True when ``H(p) >= p`` holds beyond roundoff, which puts the greatest
    fixed point of H at ``t* >= p``."""
    excess, value = _sums(values, p_out, p_in)
    components = map(_residual, (-excess).tolist(), value.tolist(), (p_out, p_in))
    return all(f >= r for f, r in components)


def interior_fixed_point(d: BivariateDegreeDist) -> FixedPointSolution:
    """Least solution of ``s_in = U_in(s_out, s_in), s_out = U_out(...)`` in
    [0, 1]^2, with an error bound ``<= FP_TOL``.

    A law without a giant weak component (see
    :attr:`~weakgiant.degdist.MomentSet.giant_weak`) returns (1, 1), a giant
    fraction of exactly 0 and an error bound of 0 without iterating; so
    does a law with ``U_(0, 0) = 0``, at (0, 0).

    Otherwise Newton's method runs on the complements ``t = 1 - s``, whose
    fixed-point map ``H(t) = 1 - U_(1 - t)`` (``U_`` the pair U_out, U_in,
    linear part solved by :func:`_linear_part_solved`) is monotone.  Each
    step solves ``(I - J) d = H(t) - t`` in closed form, J the Jacobian of
    ``U_`` at s.  Started at s = (0, 0), Newton on a monotone polynomial
    system increases monotonically to the least fixed point s*, at least
    linearly even at criticality (Etessami & Yannakakis, JACM 56(1), 2009;
    Esparza, Kiefer & Luttenberger, JACM 57(6), 2010), so every iterate has
    ``t >= t*``, that is ``U_(s) >= s``.  That and ``s <= 1`` are asserted
    each step, with a 1e-12 slack beyond roundoff; a residual of the wrong
    sign within roundoff counts as 0, so iterates never move back.  Steps
    are shortened by the rounding bound of ``det(I - J)``; where that
    determinant or the diagonal of ``I - J`` is not resolved, the step is
    one Picard step ``t <- H(t)``.

    Stopping rule.  Past the linear phase, the error ``t - t*`` lies between
    the Newton step and about that step again.  So ``p = t + 2 d``, lowered
    by B times twice the rounding bound of ``H(t) - t`` plus the least
    multiple of ``B 1`` that moves p two ulps of t, B an upper bound of
    ``(I - J)^-1``, is tested for ``H(p) >= p`` beyond roundoff.  A pass
    makes p a lower bound of t*, the greatest fixed point of H
    (Knaster-Tarski); ``t* >= 0`` holds anyway.  The error bound is
    ``max(t - p)``, or ``max(t)``, plus one ulp for the rounding of
    ``s = 1 - t``, and the first iterate whose bound is ``<= FP_TOL`` is
    returned.  :func:`_sums` evaluates ``H`` in complement form and ``U_``
    directly, each accurate relative to its size, and :func:`_residual` uses
    the one that rounds less.  The rounding part of the bound is then about
    64 ulps of the smaller of t and s times the size of ``(I - J)^-1``;
    near the threshold that size grows like 1/t, so the bound does not stall
    at a roundoff floor there.  An iterate that stops moving ends the
    iteration early with :class:`~weakgiant.errors.NoConvergence`, as does
    a budget of ``MAX_ITER`` steps spent; unless it lies within
    ``FP_TOL/2`` of s = 0 and ``H(p) >= p`` holds at ``p = 1 - FP_TOL/2``,
    which puts s* there too, and the iterate is returned with the bound
    ``max(t - p)``.

    The table keeps its solution (see
    :attr:`~weakgiant.degdist.BivariateDegreeDist._fixed_point`), so a
    second call returns it without solving again.
    """
    return d._fixed_point


def _least_fixed_point(d: BivariateDegreeDist) -> FixedPointSolution:
    """The solve of :func:`interior_fixed_point`, which reads ``FP_TOL`` and
    ``MAX_ITER`` when it is called."""
    if not d.moments().giant_weak:
        return FixedPointSolution(
            s_out=1.0, s_in=1.0, iterations=0, residual=0.0, giant_fraction=0.0, error_bound=0.0
        )

    u, u_in, u_out = _terms(d)
    rows = _edge_rows(u_in, u_out, d.moments())
    values = [x[:2] for x in rows]
    if not values[0][(values[1] == 0) & (values[2] == 0)].any():
        # U_(0, 0) = 0: the origin is a fixed point, hence the least one.
        return FixedPointSolution(
            s_out=0.0,
            s_in=0.0,
            iterations=0,
            residual=0.0,
            giant_fraction=_giant_fraction(u, 1.0, 1.0),
            error_bound=0.0,
        )
    jacobian_at_one = rows[0][2:].sum(axis=1)
    # Rounding bound of each Jacobian entry (row total plus an excess sum).
    jac_err = 2.0 * _ROUNDOFF * float(jacobian_at_one.max()) + _EPS
    t_out = t_in = 1.0
    near_origin = 1.0 - 0.5 * FP_TOL
    for iteration in range(1, MAX_ITER + 1):
        excess, value = _sums(rows, t_out, t_in)
        (f_out, r_out), (f_in, r_in) = map(
            _residual, (-excess[:2]).tolist(), value.tolist(), (t_out, t_in)
        )
        residual = max(abs(f_out), abs(f_in))
        # Iterates stay below s*, where U_(s) >= s: F <= 0 up to rounding.
        assert f_out <= r_out + 1e-12 and f_in <= r_in + 1e-12
        f_out, f_in = min(f_out, 0.0), min(f_in, 0.0)
        j_oo, j_oi, j_io, j_ii = (jacobian_at_one + excess[2:]).tolist()
        a_, d_ = 1.0 - j_oo, 1.0 - j_ii
        det = a_ * d_ - j_oi * j_io
        det_err = jac_err * (abs(a_) + abs(d_) + j_oi + j_io + 2.0 * jac_err) + _EPS * (
            abs(a_ * d_) + j_oi * j_io
        )
        p_out = p_in = 0.0
        if min(a_, d_) > jac_err and det > 2.0 * det_err:
            step_out = (d_ * f_out + j_oi * f_in) / (det + det_err)
            step_in = (j_io * f_out + a_ * f_in) / (det + det_err)
            # p = t + 2 d - B (2 r + lam 1), B an entrywise upper bound of
            # (I - J)^-1 and lam the least that moves each component of p
            # two ulps of t (its resolution near 1) below t.
            inv = 1.0 / (det - det_err)
            b_oo, b_oi = (d_ + jac_err) * inv, (j_oi + jac_err) * inv
            b_io, b_ii = (j_io + jac_err) * inv, (a_ + jac_err) * inv
            lam = 2.0 * _EPS * max(t_out / (b_oo + b_oi), t_in / (b_io + b_ii))
            p_out = t_out + 2.0 * (step_out - b_oo * r_out - b_oi * r_in) - lam * (b_oo + b_oi)
            p_in = t_in + 2.0 * (step_in - b_io * r_out - b_ii * r_in) - lam * (b_io + b_ii)
            p_out, p_in = min(max(p_out, 0.0), 1.0), min(max(p_in, 0.0), 1.0)
        else:
            step_out, step_in = f_out, f_in
        # t* >= 0 always, and t* >= p once H(p) >= p is verified.
        bound = max(t_out, t_in) + _EPS
        tight = max(t_out - p_out, t_in - p_in) + _EPS
        if tight < bound and tight <= FP_TOL and _is_below_fixed_point(values, p_out, p_in):
            bound = tight
        elif (
            (t_out + step_out, t_in + step_in) == (t_out, t_in)
            and min(t_out, t_in) >= near_origin
            and _is_below_fixed_point(values, near_origin, near_origin)
        ):
            # stalled within FP_TOL/2 of s = 0, and s* <= FP_TOL/2 there too
            bound = max(t_out, t_in) - near_origin + _EPS
        if bound <= FP_TOL:
            return FixedPointSolution(
                s_out=1.0 - t_out,
                s_in=1.0 - t_in,
                iterations=iteration,
                residual=residual,
                giant_fraction=_giant_fraction(u, t_out, t_in),
                error_bound=bound,
            )
        new_out, new_in = t_out + step_out, t_in + step_in
        assert new_out >= -1e-12 and new_in >= -1e-12
        new_out, new_in = max(new_out, 0.0), max(new_in, 0.0)
        if (new_out, new_in) == (t_out, t_in):
            raise NoConvergence(
                f"Newton iteration stopped moving before its error bound reached {FP_TOL:g}",
                iteration,
                residual,
            )
        t_out, t_in = new_out, new_in
    raise NoConvergence(
        f"Newton iteration did not bring its error bound to {FP_TOL:g}", MAX_ITER, residual
    )


def giant_weak_fraction(d: BivariateDegreeDist) -> float:
    """Fraction of vertices in the giant weak component (0 if subcritical),
    from :func:`interior_fixed_point`."""
    return interior_fixed_point(d).giant_fraction


def weak_size_distribution(d: BivariateDegreeDist, order: int) -> list[float]:
    """Probabilities ``w(1), ..., w(order)`` that a random vertex lies in a
    finite weak component of each size.

    One pass over the coefficients.  The weights of U, U_in and U_out sit
    in one dense box, a row per (series, W_out exponent a) and a column per
    W_in exponent b, cut at a, b <= order - 1: ``W_out(0) = W_in(0) = 0``,
    so ``[z^j] W_out^a W_in^b = 0`` for ``a + b > j`` and the cut drops
    nothing.  Per coefficient j, two matrix-vector products give ``[z^j]``
    of every power ``W_out^a`` and ``W_in^b`` from the coefficients up to
    j, one more groups the box by W_out exponent, and a fourth gives
    coefficient j + 1 of ``W``, ``W_in`` and ``W_out``.  In the
    supercritical phase the coefficients are the finite-component size law,
    summing to one minus the giant fraction.
    """
    if _checked_count(order, "order") < 1:
        raise ValidationError(f"order {order} must be >= 1")
    u, u_in, u_out = _terms(d)
    m = d.moments()
    # Terms of U, U_in and U_out, each edge row normalized by its own mean as
    # in interior_fixed_point, so that the coefficients sum to at most U(1, 1).
    series = [u, (u_in[0] / m.mu10, *u_in[1:]), (u_out[0] / m.mu01, *u_out[1:])]
    _ps, ns, ks = u
    width, depth = (min(int(x.max()), order - 1) + 1 for x in (ns, ks))
    # box[g * width + a, b]: weight of the term W_out^a W_in^b of series g.
    box = np.zeros((len(series) * width, depth))
    for g, (w, a, b) in enumerate(series):
        kept = (a < width) & (b < depth)
        box[g * width + a[kept], b[kept]] = w[kept]
    # pow_out[j, a] = [z^j] W_out^a, and pow_in likewise.
    pow_out, pow_in = np.zeros((order, width)), np.zeros((order, depth))
    pow_out[0, 0] = pow_in[0, 0] = 1.0
    # Newest first, so each step reads one contiguous slice:
    # coeffs[:, order - m] = [z^m] of W, W_in, W_out for m >= 1, and
    # grouped[g, order - 1 - m, a] = [z^m] of the terms of series g with
    # W_out exponent a, without their W_out factor.
    coeffs = np.zeros((len(series), order))
    grouped = np.zeros((len(series), order, width))
    for j in range(order):
        pow_out[j, 1:] = coeffs[2, order - j :] @ pow_out[:j, :-1]
        pow_in[j, 1:] = coeffs[1, order - j :] @ pow_in[:j, :-1]
        col = order - 1 - j
        grouped[:, col] = (box @ pow_in[j]).reshape(len(series), width)
        coeffs[:, col] = grouped[:, col:].reshape(len(series), -1) @ pow_out[: j + 1].ravel()
    w = coeffs[0, ::-1]
    assert math.fsum(w.tolist()) <= m.mu00 + 1e-9
    return w.tolist()

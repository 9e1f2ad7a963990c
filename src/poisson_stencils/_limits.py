"""Exact stability limits of a two-step table, for the bisection of
:func:`~poisson_stencils.stability.lambda_max`.

A lambda where a stable set begins or ends has a candidate point of the
envelope (a corner, an edge vertex or the interior point) at the value +-1,
or +-(1 + 2**-38) for the set widened by that much, so it is a root of the
candidate's numerator polynomial.  Once per spec, the roots in (0, 2] are
isolated by Sturm sequences over the integers, in z = lambda**g for the gcd
g of the symbol's powers and on the points n / 2**128 (two candidates'
roots that the grid cannot part are one root if the gcd of their
polynomials has one root there), and one exact
envelope at a point of each gap between roots decides the gap.  A root
between two stable gaps is stable, as a stable set is closed.  A root
between two gaps unstable within 2**-38 is unstable with the envelope's
slack: where the slack admits the extremes they stay within 2**-38 of the
bounds on a neighbourhood, which would make a gap stable.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction
from itertools import zip_longest

from .scheme import SchemeSpec
from .stability import _FLOAT_MAX, _scaled_symbol, _ScaledSymbol, _scored

# 1 + 2**-38 as a ratio of integers: above 1 + _BOUND_SLACK by more than a
# double's rounding of it, so the slack admits no value beyond it.
_WIDENED = (2**38 + 1, 2**38)
_BITS = 128  # a root is located to the points n / 2**_BITS of z


class Limits(namedtuple("Limits", "exact widened interval")):
    """Where ``lambda_max`` decides a lambda by comparison alone.

    ``exact`` = (a, b): every lambda <= a is stable exactly (|symbol| <= 1),
    and the first lambda where that ends lies in [a, b).  ``widened`` =
    (a, b) for |symbol| <= 1 + 2**-38: the last lambda where that ends lies
    in [a, b), and no lambda >= b is stable with the envelope's slack.
    (0.0, 0.0) stands for nowhere, (2.0, inf) for all of (0, 2] and
    (0.0, inf) for unknown.  ``interval`` (a bool): the exactly stable
    lambda in (0, 2] form the one interval (0, lambda*].
    """

    __slots__ = ()


_UNKNOWN = Limits((0.0, math.inf), (0.0, math.inf), False)


@functools.lru_cache(maxsize=32)
def limits(spec: SchemeSpec) -> Limits:
    """:class:`Limits` of a spec in the analysis, once per spec.  Two roots
    closer than the grid leave both limits unknown."""
    symbol = _scaled_symbol(spec)
    g = math.gcd(*(symbol.high - j for row in symbol.rows for j, a in enumerate(row) if a)) or 1
    symbol = _ScaledSymbol(
        symbol.denominator, symbol.low // g, symbol.high // g, tuple(row[::g] for row in symbol.rows)
    )
    top, candidates = 2**g << _BITS, _candidates(symbol)

    def stable(z: Fraction, n: int, d: int) -> bool:  # |symbol| <= n/d at z, exactly
        scored, _, denominator = _scored(symbol, z)
        return -n * denominator <= min(scored)[0] * d and max(scored)[0] * d <= n * denominator

    def around(root) -> tuple[float, float]:  # the doubles at and just past its ends
        return _double_at_most(root[0], g), math.nextafter(_double_at_most(root[1], g), math.inf)

    exact_roots = _roots(_numerators(candidates, (1, 1)), 0, top)
    if exact_roots is None:
        return _UNKNOWN
    points = _gap_points(exact_roots, 0, top)
    first = next((i for i, z in enumerate(points) if not stable(z, 1, 1)), len(points))
    if first == len(points):  # stable up to 2, so with the slack too
        return Limits((2.0, math.inf), (2.0, math.inf), True)
    exact_root = _refined(exact_roots[first - 1]) if first else (0, 0)
    # (0, start] is stable exactly, so no root there moves the widened limit.
    start = exact_root[0] >> 1
    widened_roots = _roots(_numerators(candidates, _WIDENED), start, top)
    if widened_roots is None:
        return _UNKNOWN
    widened = [stable(z, *_WIDENED) for z in _gap_points(widened_roots, start, top)]
    last = len(widened) - 1 - widened[::-1].index(True) if True in widened else -1
    exact = around(exact_root) if first else (0.0, 0.0)
    if last == len(widened_roots):  # stable within 2**-38 up to 2
        return Limits(exact, (2.0, math.inf), False)
    widened_root = _refined(widened_roots[last]) if last >= 0 else (0, 0)
    limit = around(widened_root) if last >= 0 else (0.0, 0.0)
    if not _bounded(symbol, limit[1], g):  # there the envelope refuses some lambda
        limit = (limit[0], math.inf)
    # Every root of the exact set above its limit lies above the widened one,
    # where no lambda is stable: the exact set is (0, lambda*].
    interval = first > 0 and last >= 0 and all(
        lo > widened_root[1] for lo, _, _, _ in exact_roots[first:]
    )
    return Limits(exact, limit, interval)


def _candidates(symbol: _ScaledSymbol) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each candidate point's value as U / V, integer polynomials in
    ascending powers of z, V nonzero wherever the candidate exists.

    With c_i = C_i / W (W = denominator z^-low), a corner has the sum of the
    C_i over W, the vertex of the edge X = x (C_yy not zero)
    (4 C_yy A - B^2) / (4 C_yy W), and the interior point (Det not zero)
    (Det C_0 - K) / (Det W).
    """
    c0, cx, cy, cxy, cxx, cyy = (tuple(reversed(row)) for row in symbol.rows)
    weight = (0,) * -symbol.low + (symbol.denominator,)
    found = [
        (_add(c0, _scale(cx, x), _scale(cy, y), _scale(cxy, x * y), cxx, cyy), weight)
        for x in (1, -1) for y in (1, -1)
    ]
    # the edges X = x, a quadratic in Y, then Y = y
    for square, other, lin, cross in ((cyy, cxx, cx, cy), (cxx, cyy, cy, cx)):
        if any(square):
            for x in (1, -1):
                a, b = _add(c0, _scale(lin, x), other), _add(cross, _scale(cxy, x))
                found.append((_add(_scale(_mul(square, a), 4), _scale(_mul(b, b), -1)),
                              _scale(_mul(square, weight), 4)))
    det = _add(_scale(_mul(cxx, cyy), 4), _scale(_mul(cxy, cxy), -1))
    if any(det):
        k = _add(_mul(cyy, _mul(cx, cx)), _scale(_mul(cxy, _mul(cx, cy)), -1),
                 _mul(cxx, _mul(cy, cy)))
        found.append((_add(_mul(det, c0), _scale(k, -1)), _mul(det, weight)))
    return found


def _numerators(candidates, target: tuple[int, int]) -> set[tuple[int, ...]]:
    """d U -+ n V of each candidate, zero where its value is +-n/d for
    target (n, d), as content-free integer tuples; factors z are dropped
    and so are polynomials with no root above 0 (Descartes' rule of signs)."""
    n, d = target
    found = set()
    for u, v in candidates:
        for sign in (-n, n):
            poly = _trim(d * a + sign * b for a, b in zip_longest(u, v, fillvalue=0))
            while poly and not poly[0]:
                poly = poly[1:]
            if any((a > 0) != (poly[-1] > 0) for a in poly if a):
                found.add(_content_free(poly if poly[-1] > 0 else _scale(poly, -1)))
    return found


def _add(*polys: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(sum, zip_longest(*polys, fillvalue=0)))


def _scale(poly: tuple[int, ...], k: int) -> tuple[int, ...]:
    return tuple(k * a for a in poly)


def _mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    product = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            product[i + j] += a * b
    return tuple(product)


def _trim(poly) -> tuple[int, ...]:
    """``poly`` without its zero top coefficients."""
    poly = list(poly)
    while poly and not poly[-1]:
        poly.pop()
    return tuple(poly)


def _content_free(poly: tuple[int, ...]) -> tuple[int, ...]:
    """A nonzero ``poly`` over the gcd of its coefficients, which keeps every sign."""
    g = math.gcd(*poly)
    return tuple(a // g for a in poly)


def _prem(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The remainder of |lc(q)|^k p divided by q: p's, times a positive number."""
    factor, sign = abs(q[-1]), 1 if q[-1] > 0 else -1
    p = list(p)
    while len(p) >= len(q):
        top, shift = sign * p[-1], len(p) - len(q)
        p = [factor * a for a in p]
        for i, b in enumerate(q):
            p[shift + i] -= top * b
        p = list(_trim(p))
    return tuple(p)


def _remainders(p: tuple[int, ...], q: tuple[int, ...]) -> list[tuple[int, ...]]:
    """p, q, then minus the remainder of the two before, times a positive
    number, while nonzero: the last is a gcd of p and q."""
    chain = [p, q]
    while rest := _prem(chain[-2], chain[-1]):
        chain.append(_content_free(_scale(rest, -1)))
    return chain


def _sturm(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The Sturm sequence of the square-free part of ``p``, over the
    integers: the remainders of p and p'."""
    chain = _remainders(p, _trim(i * a for i, a in enumerate(p))[1:])
    if len(chain[-1]) == 1:
        return chain
    # gcd(p, p') has a root, a repeated root of p: divide it out.
    gcd, rest, quotient = chain[-1], list(p), [0] * (len(p) - len(chain[-1]) + 1)
    for shift in range(len(quotient) - 1, -1, -1):
        top = rest[shift + len(gcd) - 1]
        rest, quotient = [gcd[-1] * a for a in rest], [gcd[-1] * a for a in quotient]
        quotient[shift] += top
        for i, b in enumerate(gcd):
            rest[shift + i] -= top * b
    return _sturm(_content_free(_trim(quotient)))


def _at(poly: tuple[int, ...], n: int) -> int:
    """2**(_BITS deg) poly(n / 2**_BITS), which has the sign of poly there."""
    value, shift = 0, 0
    for a in reversed(poly):
        value = value * n + (a << shift)
        shift += _BITS
    return value


def _variations(chain: list[tuple[int, ...]], n: int) -> int:
    """Sign changes along ``chain`` at n, zeros skipped: V(a) - V(b) roots
    of a square-free chain[0] lie in (a, b]."""
    signs = [value > 0 for value in (_at(poly, n) for poly in chain) if value]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _roots(polys, start: int, top: int) -> list | None:
    """The distinct roots of ``polys`` in (start, top], increasing, or None
    if two are closer than the grid and not one root of two polynomials.

    Each is (lo, hi, chain, sign): a root of chain[0] equal to lo = hi or
    alone in (lo, hi) among all the roots, where chain[0] has sign ``sign``
    (True: positive) just above lo; every lo is above the hi before it and
    above start.
    """
    roots = []
    for poly in polys:
        chain = _sturm(poly)
        stack = [(start, top, _variations(chain, start), _variations(chain, top))]
        while stack:
            lo, hi, v_lo, v_hi = stack.pop()
            if v_lo - v_hi == 1 and not _at(chain[0], hi):
                roots.append((hi, hi, chain, False))
            elif v_lo - v_hi == 1:  # at a root, p' has the sign of p just above it
                roots.append((lo, hi, chain, (_at(chain[0], lo) or _at(chain[1], lo)) > 0))
            elif v_lo - v_hi > 1:
                if hi - lo < 2:
                    return None
                mid = (lo + hi) >> 1
                v_mid = _variations(chain, mid)
                stack += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    roots.sort(key=lambda root: root[:2])
    i = 0
    while i < len(roots):  # shrinking roots i - 1 and i keeps them above the ones before
        lo, hi, _, _ = roots[i]
        below = roots[i - 1] if i else (start, start, None, False)
        if below[1] < lo:
            i += 1
        elif i and below[0] == below[1] == lo == hi:
            del roots[i]  # one root of two polynomials
        elif i and lo == hi and below[0] < lo < below[1] and not _at(below[2][0], lo):
            del roots[i - 1]  # this point is the root below too
        else:  # two roots closer than their intervals: halve the wider
            k = i - 1 if i and below[1] - below[0] > hi - lo else i
            if roots[k][1] - roots[k][0] < 2:
                if not (i and _shared(below, roots[i])):
                    return None
                del roots[i]  # one irrational root of two polynomials
                continue
            roots[k] = _halve(roots[k])
            while k + 1 < len(roots) and roots[k][:2] > roots[k + 1][:2]:
                roots[k], roots[k + 1] = roots[k + 1], roots[k]
                k += 1
    return roots


def _shared(a, b) -> bool:
    """Whether open roots a and b, halved as far as the grid goes, are one
    root: the gcd of their polynomials has exactly one root where their
    intervals overlap."""
    gcd = _remainders(a[2][0], b[2][0])[-1]
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    if len(gcd) < 2 or lo >= hi:
        return False
    chain = _sturm(gcd)
    return _variations(chain, lo) - _variations(chain, hi) == 1


def _gap_points(roots, start: int, top: int) -> list[Fraction]:
    """A z in each gap between start, the roots and top, increasing.  Above
    a root at 2 itself the point is that root, whose verdict a stable set's
    closure or a neighbourhood of the slack decides as its gap's would."""
    bounds = zip([start, *(hi for _, hi, _, _ in roots)], [*(lo for lo, _, _, _ in roots), top])
    return [Fraction(below + above, 2 << _BITS) for below, above in bounds]


def _halve(root):
    """An open root with its interval halved around it."""
    lo, hi, chain, sign = root
    mid = (lo + hi) >> 1
    value = _at(chain[0], mid)
    if not value:
        return (mid, mid, chain, sign)
    return (mid, hi, chain, sign) if (value > 0) == sign else (lo, mid, chain, sign)


def _refined(root):
    """A root halved to 2**-56 of its lo, past what doubles near it tell
    apart, or to one step of the grid."""
    while root[1] - root[0] > max(root[0] >> 56, 1):
        root = _halve(root)
    return root


def _double_at_most(n: int, g: int) -> float:
    """The largest double x with x**g <= n / 2**_BITS."""
    def at_most(x: float) -> bool:
        m, k = x.as_integer_ratio()
        return m**g << _BITS <= n * k**g

    x = (n / 2.0**_BITS) ** (1 / g)
    while not at_most(x):
        x = math.nextafter(x, 0.0)
    while at_most(up := math.nextafter(x, math.inf)):
        x = up
    return x


def _bounded(symbol: _ScaledSymbol, low: float, g: int) -> bool:
    """Whether the sum of |c_i(z)|, a bound of |symbol| at every phase, is at
    most the largest double for every z = lambda**g, lambda in [low, 2].

    With low = m/k, |a| z^p is at most |a| 2^(g p) for p >= 0 and
    |a| (k/m)^(g |p|) for p < 0; over m^(g deepest) each is an integer.
    """
    m, k = low.as_integer_ratio()
    deepest = -symbol.low
    if deepest and not m:
        return False
    total = 0
    for row in symbol.rows:
        for j, a in enumerate(row):
            power = symbol.high - j
            if power >= 0:
                total += abs(a) * m ** (g * deepest) << g * power
            else:
                total += abs(a) * k ** (-g * power) * m ** (g * (deepest + power))
    return total <= _FLOAT_MAX * symbol.denominator * m ** (g * deepest)

"""Exact rational polynomials and Sturm-sequence sign certification.

No floating point enters any code path. :class:`Poly` holds ``Fraction``
coefficients; certification runs on Python ints, with ``Fraction`` only
at its edges (interval ends, bisection midpoints, witnesses). The central
export :func:`certify_nonpositive` decides exactly whether a polynomial
is <= 0 on a closed rational interval: p is made primitive once, one
primitive remainder sequence (:func:`sturm_chain`) yields the squarefree
part and its Sturm chain, ``_pseudo_divmod`` is the one division and
``_sign`` the one sign test. All values are immutable and all functions
are pure, so they are safe to share across threads.
"""

from __future__ import annotations

import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from numbers import Integral, Real
from typing import Iterable, Iterator, Optional, Sequence, Union

Rational = Fraction
RationalLike = Union[Fraction, int, float, str]

_MAX_BISECTION_DEPTH = 10_000


def integer(x, lo: int, what: str) -> int:
    """The one reader of integers, beside :func:`rat`: ``operator.index(x)`` as a Python int, so a numpy
    integer never reaches exact arithmetic as int64. A ValueError names ``what`` if x is no integer or < lo."""
    try:
        n = operator.index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {x!r}") from None
    if n < lo:
        raise ValueError(f"{what} must be >= {lo}, got {n}")
    return n


def rat(x: RationalLike) -> Fraction:
    """The one reader of numbers, inverse of :func:`rat_str`: a Fraction as it is, any integer as a Python int, any
    float, numpy's too, as the decimal ``str`` prints (0.1 is 1/10), a string as ``Fraction`` reads it. A string is
    refused, quoted, when its exponent reaches ``sys.get_int_max_str_digits()`` in magnitude or digits (the cost
    of 10**exponent has no bound) or another digit run reaches that many (int() refuses it unquoted)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Integral):
        return Fraction(operator.index(x))
    s = str(x) if isinstance(x, Real) else x
    if isinstance(s, str) and 0 < (limit := sys.get_int_max_str_digits()):
        m = re.search(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", s, re.IGNORECASE)
        if m and limit <= max(float(m[1]), len(m[1].replace("_", ""))):
            raise ValueError(f"the exponent of {s!r} reaches {limit} in magnitude or digits, the int-to-string limit")
        if any(len(run.replace("_", "")) >= limit for run in re.findall(r"\d+(?:_\d+)*", s)):
            raise ValueError(f"a run of digits in {s!r} reaches {limit} digits, the int-to-string limit")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None
    except (OverflowError, ValueError):
        if str(s).strip().lstrip("+-").lower() in ("nan", "inf", "infinity"):
            raise ValueError(f"{x!r} is not a finite number") from None
        raise


def rat_str(q: Fraction) -> str:
    """Serialize a rational as 'p/q' (or 'p' when the denominator is 1)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def clear_denominators(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers a and the lcm d of the denominators, with xs = a / d."""
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def bareiss_step(rows: list[list[int]], col: int, prev: int) -> Optional[tuple[int, list[int], list[list[int]]]]:
    """One fraction-free step (Bareiss 1968) on column ``col``, or None if it is zero.

    Returns the index of the first row nonzero there (the step's lead), that row, and the
    others as their 2 x 2 minors with it right of ``col``, divided exactly by ``prev``,
    the last step's lead entry (1 at the first step). A row with 0 at ``col`` under a lead
    equal to ``prev`` keeps its entries: (prev x - 0 y) / prev = x.
    """
    piv = next((i for i, r in enumerate(rows) if r[col]), None)
    if piv is None:
        return None
    top, c = rows[piv], col + 1
    a = top[col]
    return piv, top, [r[c:] if not r[col] and a == prev else
                      [(a * x - r[col] * y) // prev for x, y in zip(r[c:], top[c:])]
                      for k, r in enumerate(rows) if k != piv]


def bareiss_steps(rows: list[list[int]]) -> Iterator[tuple[int, list[int]]]:
    """Fraction-free elimination of a square integer matrix, one :func:`bareiss_step` per column.

    Each step yields its lead's index among the rows left, and that row; stops at a zero column.
    """
    prev = 1
    while rows and (step := bareiss_step(rows, 0, prev)):
        piv, top, rows = step
        yield piv, top
        prev = top[0]


def det_exact(mat: Sequence[Sequence[RationalLike]]) -> Fraction:
    """Exact determinant: rows cleared of denominators once, then :func:`bareiss_steps`."""
    rows, scale = [], 1
    for row in mat:
        if any(not isinstance(x, int) for x in row):
            row, d = clear_denominators([rat(x) for x in row])
            scale *= d
        rows.append(list(row))
    if any(len(row) != len(rows) for row in rows):
        raise ValueError(f"matrix must be square, got {len(rows)} rows of lengths {[len(r) for r in rows]}")
    sign, lead, steps = 1, 1, 0
    for steps, (piv, top) in enumerate(bareiss_steps(rows), 1):
        sign, lead = sign * (-1) ** piv, top[0]  # moving row piv up past piv rows flips the sign piv times
    return Fraction(sign * lead, scale) if steps == len(rows) else Fraction(0)


class Poly:
    """Dense univariate polynomial with Fraction coefficients.

    ``coeffs[k]`` is the coefficient of t^k. Trailing zeros are stripped
    on construction; the zero polynomial has an empty coefficient tuple
    and ``degree`` None (a sentinel, never -1 arithmetic).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @staticmethod
    def constant(c: RationalLike) -> "Poly":
        return Poly([rat(c)])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> Optional[int]:
        return len(self.coeffs) - 1 if self.coeffs else None

    def __call__(self, x: RationalLike) -> Fraction:
        """Exact Horner evaluation."""
        x = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly()
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Poly(out)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = Poly.constant(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly([{', '.join(rat_str(c) for c in self.coeffs)}])"

    def to_strings(self) -> list[str]:
        return [rat_str(c) for c in self.coeffs]


@dataclass(frozen=True)
class Interval:
    """Closed rational interval [lo, hi]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", rat(self.lo))
        object.__setattr__(self, "hi", rat(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")


def _primitive(cs: Sequence[Union[Fraction, int]]) -> tuple[int, ...]:
    """The primitive integer polynomial that is a positive multiple of cs."""
    cs = clear_denominators(cs)[0]
    g = gcd(*cs)
    return tuple(c // g for c in cs)


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """Integer q, r with k a = q b + r, k = |lc(b)|^len(q).

    Classic pseudo-division: every step scales q and r by |lc(b)|. The
    callers make q and r primitive, which removes that factor again.
    """
    lb, db = b[-1], len(b) - 1
    s, r = abs(lb), list(a)
    q = [0] * max(0, len(r) - db)
    for k in reversed(range(len(q))):
        c = r.pop() if lb > 0 else -r.pop()
        q, r = [s * x for x in q], [s * x for x in r]
        q[k] = c
        for j in range(db):
            r[k + j] -= c * b[j]
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _sign(cs: Sequence[int], x: Fraction) -> int:
    """Sign of the integer polynomial cs at x = a/b, from sum c_i a^i b^(d-i)."""
    a, b = x.numerator, x.denominator
    acc, bk = 0, 1
    for c in reversed(cs):
        acc = acc * a + c * bk
        bk *= b
    return (acc > 0) - (acc < 0)


def sturm_chain(p: Poly) -> list[tuple[int, ...]]:
    """Sturm chain of the squarefree part of p, from one remainder sequence.

    The signed remainder sequence p, p', -rem(p, p'), ... ends in
    g = gcd(p, p'). When g is not constant, every member is divided by g
    (taken with a positive leading coefficient), which leaves a Sturm
    chain of p / g: it counts the distinct real roots of p, and it is safe
    to evaluate at a multiple root of p. Each member is the primitive
    integer positive multiple of its rational counterpart: same signs.
    """
    chain = [_primitive(p.coeffs)]
    nxt = _primitive([i * c for i, c in enumerate(chain[0])][1:])
    while nxt:
        chain.append(nxt)
        nxt = _primitive([-c for c in _pseudo_divmod(chain[-2], nxt)[1]])
    g = chain[-1]
    if len(g) > 1:  # neither p = 0 nor a constant gcd
        g = g if g[-1] > 0 else [-c for c in g]
        chain = [_primitive(_pseudo_divmod(q, g)[0]) for q in chain]
    return chain


def count_roots_open(chain: Sequence[Sequence[int]], a: Fraction, b: Fraction, memo: dict) -> int:
    """Distinct roots of the chain's squarefree head in (a, b); a, b may be roots.

    ``memo`` keeps the sign changes and head sign of every point evaluated.
    """
    for x in {a, b}.difference(memo):
        signs = [_sign(q, x) for q in chain]
        nonzero = [s for s in signs if s]
        memo[x] = sum(1 for s, t in zip(nonzero, nonzero[1:]) if s != t), signs[0]
    return memo[a][0] - memo[b][0] - (memo[b][1] == 0)


def nonpositivity_witness(
    p: Poly, iv: Interval
) -> tuple[bool, Optional[tuple[Fraction, Fraction]]]:
    """Decide p <= 0 on [iv.lo, iv.hi] exactly; on failure report a witness.

    The witness is a subinterval of the domain containing a point where
    p > 0 (possibly degenerate). Endpoint signs plus Sturm root counting
    of the squarefree part drive a bisection that terminates because
    distinct roots separate after finitely many halvings.
    """
    if p.is_zero:
        return True, None
    ip = _primitive(p.coeffs)
    lo, hi = iv.lo, iv.hi
    plo = _sign(ip, lo)
    if plo > 0:
        return False, (lo, lo)
    if lo == hi:
        return True, None
    phi = _sign(ip, hi)
    if phi > 0:
        return False, (hi, hi)
    chain, memo = sturm_chain(p), {}
    # Depth-first bisection, left half first, over an explicit stack so
    # that roots closer than 2^-1000 do not exhaust Python's frame limit.
    stack = [(lo, hi, plo, phi, 0)]
    while stack:
        a, b, pa, pb, depth = stack.pop()
        if depth > _MAX_BISECTION_DEPTH:  # pragma: no cover - safety net
            raise RuntimeError("sign certification did not converge")
        k = count_roots_open(chain, a, b, memo)
        m = (a + b) / 2
        pm = _sign(ip, m)
        if pm > 0:
            return False, (a, b)
        # No interior root: p < 0 on (a, b). One root, with p < 0 at both
        # ends: a touch point, so p <= 0 on [a, b] and pm was <= 0 too.
        if k == 0 or (k == 1 and pa < 0 and pb < 0):
            continue
        stack.append((m, b, pm, pb, depth + 1))
        stack.append((a, m, pa, pm, depth + 1))
    return True, None


def certify_nonpositive(p: Poly, iv: Interval) -> bool:
    """True iff p(t) <= 0 for every t in [iv.lo, iv.hi], decided exactly."""
    ok, _ = nonpositivity_witness(p, iv)
    return ok

"""Exact rational polynomials and Sturm-sequence sign certification.

Everything in this module is computed over ``fractions.Fraction``; no
floating point enters any code path. The central export is
:func:`certify_nonpositive`, which decides exactly whether a polynomial
is <= 0 on a closed rational interval. Each check builds one signed
remainder sequence (:func:`sturm_chain`), which yields the squarefree
part and its Sturm chain together, and :func:`poly_divmod` is the one
polynomial division. All values are immutable and all functions are
pure, so they are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence, Union

Rational = Fraction
RationalLike = Union[Fraction, int, str]

_MAX_BISECTION_DEPTH = 10_000


def rat(x: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings, or Fractions to a Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def rat_str(q: Fraction) -> str:
    """Serialize a rational as 'p/q' (or 'p' when the denominator is 1)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rat(s: str) -> Fraction:
    """Inverse of :func:`rat_str`; also accepts decimal strings."""
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def det_exact(mat: Sequence[Sequence[RationalLike]]) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    rows = [[rat(x) for x in row] for row in mat]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] * inv
            if f:
                for c in range(col, n):
                    rows[r][c] -= f * rows[col][c]
    return det


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

    @staticmethod
    def identity() -> "Poly":
        """The polynomial t."""
        return Poly([0, 1])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> Optional[int]:
        return len(self.coeffs) - 1 if self.coeffs else None

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

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

    def scale(self, c: RationalLike) -> "Poly":
        c = rat(c)
        return Poly([c * a for a in self.coeffs])

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

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly([{', '.join(rat_str(c) for c in self.coeffs)}])"

    def to_strings(self) -> list[str]:
        return [rat_str(c) for c in self.coeffs]

    @staticmethod
    def from_strings(items: Sequence[str]) -> "Poly":
        return Poly([parse_rat(s) for s in items])


# Functional aliases for the core operations: exact and total.

def poly_eval(p: Poly, x: RationalLike) -> Fraction:
    return p(x)


def poly_mul(p: Poly, q: Poly) -> Poly:
    return p * q


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


def _content(p: Poly) -> Fraction:
    """Positive rational c with p/c integer-coefficient and content 1."""
    g = 0
    l = 1
    for c in p.coeffs:
        g = gcd(g, abs(c.numerator))
        l = l * c.denominator // gcd(l, c.denominator)
    return Fraction(g, l)


def _primitive(p: Poly) -> Poly:
    """Strip content (positive scaling only, so signs are preserved)."""
    if p.is_zero:
        return p
    return p.scale(1 / _content(p))


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of a by b over the rationals."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a.coeffs)
    db = b.degree
    lead = b.leading()
    q = [Fraction(0)] * max(0, len(r) - db)
    while len(r) - 1 >= db and r:
        c = r[-1] / lead
        shift = len(r) - 1 - db
        q[shift] = c
        for i, bc in enumerate(b.coeffs):
            r[shift + i] -= c * bc
        while r and r[-1] == 0:
            r.pop()
    return Poly(q), Poly(r)


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm chain of the squarefree part of p, from one remainder sequence.

    The signed remainder sequence p, p', -rem(p, p'), ... ends in
    g = gcd(p, p'). When g is not constant, every member is divided by g
    (taken with a positive leading coefficient), which leaves a Sturm
    chain of p / g: it counts the distinct real roots of p, and it is safe
    to evaluate at a multiple root of p. Each member is content-stripped
    by a positive rational, which keeps every sign pattern intact while
    bounding coefficient blowup.
    """
    chain = [_primitive(p)]
    nxt = _primitive(p.derivative())
    while not nxt.is_zero:
        chain.append(nxt)
        nxt = _primitive(-poly_divmod(chain[-2], chain[-1])[1])
    g = chain[-1]
    if g.degree:  # neither p = 0 (None) nor a constant gcd (0)
        if g.leading() < 0:
            g = -g
        chain = [_primitive(poly_divmod(q, g)[0]) for q in chain]
    return chain


def sign_changes(chain: Sequence[Poly], x: RationalLike) -> int:
    """Sign changes of the chain at x, zeros dropped.

    For a squarefree head polynomial this equals the right-limit count,
    so evaluating at a root of the head is safe.
    """
    signs = []
    for q in chain:
        v = q(x)
        if v:
            signs.append(v > 0)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_open(chain: Sequence[Poly], a: Fraction, b: Fraction) -> int:
    """Distinct roots of the chain's squarefree head in the open interval (a, b)."""
    n = sign_changes(chain, a) - sign_changes(chain, b)
    if chain[0](b) == 0:
        n -= 1
    return n


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
    lo, hi = iv.lo, iv.hi
    plo = p(lo)
    if plo > 0:
        return False, (lo, lo)
    if lo == hi:
        return True, None
    phi = p(hi)
    if phi > 0:
        return False, (hi, hi)
    chain = sturm_chain(p)
    # Depth-first bisection, left half first, over an explicit stack so
    # that roots closer than 2^-1000 do not exhaust Python's frame limit.
    stack = [(lo, hi, plo, phi, 0)]
    while stack:
        a, b, pa, pb, depth = stack.pop()
        if depth > _MAX_BISECTION_DEPTH:  # pragma: no cover - safety net
            raise RuntimeError("sign certification did not converge")
        k = count_roots_open(chain, a, b)
        if k == 0:
            # No interior root: p has constant nonzero sign on (a, b).
            if p((a + b) / 2) > 0:
                return False, (a, b)
            continue
        if k == 1 and pa < 0 and pb < 0:
            # Single interior touch point; negative approach from both sides.
            continue
        m = (a + b) / 2
        pm = p(m)
        if pm > 0:
            return False, (a, b)
        stack.append((m, b, pm, pb, depth + 1))
        stack.append((a, m, pa, pm, depth + 1))
    return True, None


def certify_nonpositive(p: Poly, iv: Interval) -> bool:
    """True iff p(t) <= 0 for every t in [iv.lo, iv.hi], decided exactly."""
    ok, _ = nonpositivity_witness(p, iv)
    return ok

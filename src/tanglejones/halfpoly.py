"""Exact arithmetic in the ring Z[q^(1/2), q^(-1/2)].

A polynomial is stored sparsely as a map from doubled exponent to integer
coefficient, so the entry ``e2: c`` contributes the term ``c * q^(e2/2)``.
Doubling every exponent keeps the keys honest integers; no fractional
arithmetic happens anywhere.  Coefficients are plain Python integers, so
exactness is never in question.

>>> HalfLaurent({3: 1}).render()
'q^(3/2)'
>>> HalfLaurent({5: -1}).render()
'-q^(5/2)'
>>> parse("q^6 + q^4 + q^2 + 1").render()
'q^6 + q^4 + q^2 + 1'
"""

from __future__ import annotations

import re
from typing import Mapping

__all__ = ["HalfLaurent", "ZERO", "ONE", "parse"]


class HalfLaurent:
    """An integer-coefficient Laurent polynomial in q^(1/2).

    Values are immutable; every operation returns a new polynomial.  Zero
    coefficients are never stored, so two values are equal exactly when
    their term maps are equal.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        data: dict[int, int] = {}
        if terms:
            for e2, c in terms.items():
                if type(e2) is not int or type(c) is not int:
                    raise TypeError("terms must map integer doubled exponents to integer coefficients")
                if c:
                    data[e2] = c
        self._terms = data

    def sorted_terms(self) -> tuple[tuple[int, int], ...]:
        """(doubled exponent, coefficient) pairs in descending exponent order."""
        return tuple(sorted(self._terms.items(), reverse=True))

    def support(self) -> frozenset[int]:
        """The set of doubled exponents carrying a nonzero coefficient."""
        return frozenset(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = HalfLaurent({0: int(other)})
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        return self._terms == other._terms

    def __neg__(self) -> HalfLaurent:
        return HalfLaurent({e2: -c for e2, c in self._terms.items()})

    def __add__(self, other: HalfLaurent | int) -> HalfLaurent:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data = dict(self._terms)
        for e2, c in other._terms.items():
            data[e2] = data.get(e2, 0) + c
        return HalfLaurent(data)

    __radd__ = __add__

    def __sub__(self, other: HalfLaurent | int) -> HalfLaurent:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: HalfLaurent | int) -> HalfLaurent:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: HalfLaurent | int) -> HalfLaurent:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data: dict[int, int] = {}
        for e2a, ca in self._terms.items():
            for e2b, cb in other._terms.items():
                e2 = e2a + e2b
                data[e2] = data.get(e2, 0) + ca * cb
        return HalfLaurent(data)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> HalfLaurent:
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = ONE
        for _ in range(k):
            result = result * self
        return result

    def render(self) -> str:
        """Canonical text form.

        Terms appear in strictly descending exponent order and are joined
        by " + " or " - " according to the sign of the coefficient.
        Exponent 1 prints as "q", nonnegative integer exponents print bare
        ("q^3"), and every other exponent is parenthesised ("q^(-1)",
        "q^(3/2)").  The constant term prints as a bare integer, a unit
        coefficient is omitted elsewhere ("2*q^2" but "q^2"), and the zero
        polynomial prints as "0".
        """
        terms = self.sorted_terms()
        if not terms:
            return "0"
        parts: list[str] = []
        for idx, (e2, c) in enumerate(terms):
            body = _render_term(e2, abs(c))
            if idx == 0:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<HalfLaurent {self.render()}>"


def _coerce(value: object) -> HalfLaurent:
    if isinstance(value, HalfLaurent):
        return value
    if isinstance(value, int):
        return HalfLaurent({0: int(value)})
    return NotImplemented


ZERO = HalfLaurent()
ONE = HalfLaurent({0: 1})


def _render_term(e2: int, mag: int) -> str:
    if e2 == 0:
        return str(mag)
    if e2 % 2:
        power = f"q^({e2}/2)"
    else:
        k = e2 // 2
        if k == 1:
            power = "q"
        elif k > 1:
            power = f"q^{k}"
        else:
            power = f"q^({k})"
    return power if mag == 1 else f"{mag}*{power}"


_TERM_RE = re.compile(
    r"^(?:(?P<coeff>\d+)\*)?q(?:\^(?:(?P<bare>\d+)|\((?P<paren>-?\d+)\)|\((?P<half>-?\d+)/2\)))?$"
)


def _parse_term(token: str) -> tuple[int, int]:
    """One grammar term as (doubled exponent, magnitude)."""
    if re.fullmatch(r"\d+", token):
        return 0, int(token)
    m = _TERM_RE.match(token)
    if m is None:
        raise ValueError(f"malformed polynomial term {token!r}")
    mag = int(m.group("coeff")) if m.group("coeff") else 1
    if m.group("bare") is not None:
        e2 = 2 * int(m.group("bare"))
    elif m.group("paren") is not None:
        e2 = 2 * int(m.group("paren"))
    elif m.group("half") is not None:
        p = int(m.group("half"))
        if p % 2 == 0:
            raise ValueError(f"exponent in {token!r} is not in lowest terms")
        e2 = p
    else:
        e2 = 2
    return e2, mag


def parse(text: str) -> HalfLaurent:
    """Inverse of :meth:`HalfLaurent.render` on canonical strings.

    >>> parse("-q^(5/2)") == HalfLaurent({5: -1})
    True
    >>> parse("0") == ZERO
    True
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    sign = 1
    if s.startswith("-"):
        sign = -1
        s = s[1:]
    data: dict[int, int] = {}
    while True:
        plus = s.find(" + ")
        minus = s.find(" - ")
        if plus == -1 and minus == -1:
            token, s = s, None
        elif minus == -1 or (plus != -1 and plus < minus):
            token, s = s[:plus], s[plus + 3 :]
            next_sign = 1
        else:
            token, s = s[:minus], s[minus + 3 :]
            next_sign = -1
        e2, mag = _parse_term(token)
        data[e2] = data.get(e2, 0) + sign * mag
        if s is None:
            return HalfLaurent(data)
        sign = next_sign

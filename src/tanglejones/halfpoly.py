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
>>> (HalfLaurent({2: 1}) + HalfLaurent({-2: 1})).render()
'q + q^(-1)'
"""

from __future__ import annotations

from typing import Mapping

__all__ = ["HalfLaurent", "ZERO"]


class HalfLaurent:
    """An integer-coefficient Laurent polynomial in q^(1/2).

    Values are immutable.  The ring operations are ``+`` and ``*`` of two
    polynomials, each returning a new one; any other operand, an int
    included, raises ``TypeError``.  Zero coefficients are never stored, so
    two values are equal exactly when their term maps are equal.
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
        """The doubled exponents with a nonzero coefficient; no verb reads them,
        but ``perfbench/trace.py`` counts terms with this."""
        return frozenset(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: HalfLaurent) -> HalfLaurent:
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        data = dict(self._terms)
        for e2, c in other._terms.items():
            data[e2] = data.get(e2, 0) + c
        return HalfLaurent(data)

    def __mul__(self, other: HalfLaurent) -> HalfLaurent:
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        data: dict[int, int] = {}
        for e2a, ca in self._terms.items():
            for e2b, cb in other._terms.items():
                e2 = e2a + e2b
                data[e2] = data.get(e2, 0) + ca * cb
        return HalfLaurent(data)

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


ZERO = HalfLaurent()


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

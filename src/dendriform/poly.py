"""Linear combinations of normal words over exact rationals.

Polynomials are the elements of the free L-algebra on x1..xn: finite maps
from normal words to nonzero exact coefficients, each an ``int`` when it is
integral and a ``Fraction`` otherwise.  Every public entry that puts words
into the algebra, here and in rewrite and gsbcheck, checks them with
``admit``.  Rewriting never divides, so integral input stays on Python
integers throughout.  All coefficient arithmetic is exact; zero tests are
therefore decisions, not approximations.  Values are immutable and all
operations are pure, so concurrent use is safe.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Iterable, Mapping

from .terms import (
    PREC,
    SUCC,
    LWord,
    Op,
    count_holes,
    format_lword,
    is_normal,
    l_prec,
    l_succ,
    max_generator_index,
    normalize,  # noqa: F401  bench/tracing.py rebinds poly.normalize
    substitute,  # noqa: F401  bench/tracing.py rebinds poly.substitute
)


class AlphabetMismatchError(ValueError):
    """Operands live over different alphabet sizes."""


Coefficient = int | Fraction


def admit(words: Iterable[LWord], n: int | None, what: str) -> int:
    """Check words entering the algebra; return their alphabet size.

    Each word must be normal and hold no hole (``ValueError`` naming what).
    A given n must be at least 1 and cover the words' generators
    (``AlphabetMismatchError``); without one, the alphabet is the largest
    generator index, at least 1.
    """
    if n is not None and n < 1:
        raise ValueError("alphabet size must be at least 1")
    top = 1 if n is None else n
    for w in words:
        if count_holes(w) or not is_normal(w):
            raise ValueError(f"{what} must be a normal word without holes: {w}")
        index = max_generator_index(w)
        if index > top:
            if n is not None:
                raise AlphabetMismatchError(f"{what} {w} uses generators beyond x{n}")
            top = index
    return top


def _exact(c) -> Coefficient:
    """c as an exact coefficient: int when integral, else Fraction.

    A float is refused: its exact binary value is rarely the rational meant.
    """
    if isinstance(c, float):
        raise TypeError(f"float coefficient {c!r} is not exact; give an int, Fraction or str")
    q = Fraction(c)
    return q.numerator if q.denominator == 1 else q


def _accumulate(acc: dict, word: LWord, value: Coefficient) -> None:
    prev = acc.get(word)
    if prev is not None:
        value += prev
        if not value:
            del acc[word]
            return
    elif not value:
        return
    # Sums and products of Fractions can be integral; those are stored as ints.
    acc[word] = value if value.__class__ is int else _exact(value)


class Polynomial:
    """Finite rational combination of normal words over x1..xn.

    Coefficients are exact and nonzero: ``int`` when integral, ``Fraction``
    otherwise.  Zero coefficients are never stored; the empty combination
    is the zero polynomial.  Iteration and formatting run in descending
    monomial order so that output is reproducible bit for bit.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[LWord, Coefficient] | Iterable[tuple[LWord, Coefficient]] = ()):
        pairs = list(terms.items() if isinstance(terms, Mapping) else terms)
        self.n = admit((word for word, _ in pairs), n, "a polynomial's word")
        acc: dict[LWord, Coefficient] = {}
        for word, coeff in pairs:
            _accumulate(acc, word, _exact(coeff))
        self._terms = acc

    @classmethod
    def _raw(cls, n: int, terms: dict[LWord, Coefficient]) -> "Polynomial":
        # Internal fast path: caller guarantees normal hole-free words within
        # the alphabet and no zero coefficients.
        p = object.__new__(cls)
        p.n = n
        p._terms = terms
        return p

    @classmethod
    @cache
    def zero(cls, n: int) -> "Polynomial":
        """The zero polynomial over x1..xn: one instance per n, shared since values are immutable."""
        return cls._raw(admit((), n, "no word"), {})

    @classmethod
    def monomial(cls, word: LWord, coeff=1, *, n: int | None = None) -> "Polynomial":
        return cls(n, [(word, coeff)])

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> list[tuple[LWord, Coefficient]]:
        """Term list in descending monomial order."""
        return sorted(self._terms.items(), key=lambda kv: kv[0], reverse=True)

    def coefficient(self, word: LWord) -> Coefficient:
        return self._terms.get(word, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    __hash__ = None

    def __add__(self, other: "Polynomial") -> "Polynomial":
        _require_same_alphabet(self, other)
        acc = dict(self._terms)
        for word, coeff in other._terms.items():
            _accumulate(acc, word, coeff)
        return Polynomial._raw(self.n, acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        _require_same_alphabet(self, other)
        acc = dict(self._terms)
        for word, coeff in other._terms.items():
            _accumulate(acc, word, -coeff)
        return Polynomial._raw(self.n, acc)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.n, {w: -c for w, c in self._terms.items()})

    def __mul__(self, scalar) -> "Polynomial":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        a = _exact(scalar)
        acc: dict[LWord, Coefficient] = {}
        for word, coeff in self._terms.items():
            _accumulate(acc, word, a * coeff)
        return Polynomial._raw(self.n, acc)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for i, (word, coeff) in enumerate(self.terms()):
            sign = "-" if coeff < 0 else "+"
            magnitude = -coeff if coeff < 0 else coeff
            body = format_lword(word) if magnitude == 1 else f"{magnitude}*{format_lword(word)}"
            if i == 0:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial(n={self.n}, {str(self)!r})"

    def to_json_dict(self) -> dict:
        """JSON form: terms sorted descending, coefficients as 'p/q' strings."""
        return {
            "n": self.n,
            "terms": [
                {"coeff": str(coeff), "word": format_lword(word)}
                for word, coeff in self.terms()
            ],
        }


def _require_same_alphabet(p: Polynomial, q: Polynomial) -> None:
    if p.n != q.n:
        raise AlphabetMismatchError(f"alphabet sizes differ: {p.n} vs {q.n}")


def _refuse(op):
    raise ValueError(f"operation must be PREC or SUCC, got {op!r}")


def mul(p: Polynomial, op: Op, q: Polynomial) -> Polynomial:
    """Bilinear extension of the basis products to polynomials."""
    prod = l_prec if op is PREC else l_succ if op is SUCC else _refuse(op)
    _require_same_alphabet(p, q)
    acc: dict[LWord, Coefficient] = {}
    for u, a in p._terms.items():
        for v, b in q._terms.items():
            _accumulate(acc, prod(u, v), a * b)
    return Polynomial._raw(p.n, acc)


def leading(p: Polynomial) -> tuple[LWord, Coefficient]:
    """The greatest word of p under the monomial order, with its coefficient."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no leading word")
    word = max(p._terms)
    return word, p._terms[word]


HolePath = tuple[tuple[Op, bool, LWord], ...]


def apply_context(path: HolePath, p: Polynomial) -> Polynomial:
    """p with every word put into the hole of path's context, normalized.

    A hole path lists a context's steps root first, as a redex path string
    does, each (operation, whether the hole is on the left, sibling); the
    empty path is the bare hole.  Rewrite steps fold the same form.  Every
    operation is PREC or SUCC and every sibling a normal word without holes
    over p's alphabet, checked for every p, zero included (``admit``):
    fold_hole_path takes each sibling as it is.
    """
    admit((s if op is PREC or op is SUCC else _refuse(op) for op, _, s in path), p.n, "a hole-path sibling")
    return Polynomial._raw(p.n, fold_hole_path(path, p._terms.items()))


def fold_hole_path(path: HolePath, pairs: Iterable[tuple[LWord, Coefficient]]) -> dict[LWord, Coefficient]:
    """The words of pairs put into the hole of path's context, normalized.

    Normalizing op(a, b) with normal a and b gives their op-product, so each
    normal word folds up the path of normal siblings by the basis products,
    looked up as module globals at each step; any other operation is refused.
    """
    up = path[::-1]
    acc: dict[LWord, Coefficient] = {}
    for u, a in pairs:
        for op, hole_left, sibling in up:
            product = l_prec if op is PREC else l_succ if op is SUCC else _refuse(op)
            u = product(u, sibling) if hole_left else product(sibling, u)
        _accumulate(acc, u, a)
    return acc

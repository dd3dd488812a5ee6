"""Linear combinations of normal words over exact rationals.

Polynomials are the elements of the free L-algebra on x1..xn: finite maps
from normal words to nonzero exact coefficients, each an ``int`` when it is
integral and a ``Fraction`` otherwise.  Rewriting never divides, so
integral input stays on Python integers throughout.  All coefficient
arithmetic is exact; zero tests are therefore decisions, not
approximations.  Values are immutable and all operations are pure, so
concurrent use is safe.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Mapping

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
        if n < 1:
            raise ValueError("alphabet size must be at least 1")
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[LWord, Coefficient] = {}
        for word, coeff in pairs:
            if count_holes(word):
                raise ValueError(f"polynomial words may not contain holes: {word}")
            if not is_normal(word):
                raise ValueError(f"polynomial words must be normal: {word}")
            if max_generator_index(word) > n:
                raise AlphabetMismatchError(f"word {word} uses generators beyond x{n}")
            _accumulate(acc, word, _exact(coeff))
        self.n = n
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
        if n < 1:
            raise ValueError("alphabet size must be at least 1")
        return cls._raw(n, {})

    @classmethod
    def monomial(cls, word: LWord, coeff=1, *, n: int | None = None) -> "Polynomial":
        if n is None:
            n = max(1, max_generator_index(word))
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


def mul(p: Polynomial, op: Op, q: Polynomial) -> Polynomial:
    """Bilinear extension of the basis products to polynomials."""
    if op is PREC:
        prod = l_prec
    elif op is SUCC:
        prod = l_succ
    else:
        raise ValueError(f"operation must be PREC or SUCC, got {op!r}")
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


HolePath = tuple[tuple[Callable[[LWord, LWord], LWord], bool, LWord], ...]


def apply_context(path: HolePath, p: Polynomial) -> Polynomial:
    """p with every word put into the hole of path's context, normalized.

    A hole path lists a context's steps from the hole up to the root, each
    (basis product, whether the hole side is the left operand, sibling); the
    empty path is the bare hole.  Rewrite steps fold the same form.  The
    siblings must be normal words without holes over p's alphabet
    (``ValueError``, ``AlphabetMismatchError`` otherwise): fold_hole_path
    takes each sibling as it is, so a non-normal one would give a wrong fold.
    """
    n = p.n
    for _, _, sibling in path:
        if sibling.holes or not sibling.normal:
            raise ValueError(f"hole-path siblings must be normal words without holes: {sibling}")
        if sibling.index > n:
            raise AlphabetMismatchError(f"hole-path sibling {sibling} uses generators beyond x{n}")
    return Polynomial._raw(n, fold_hole_path(path, p._terms.items()))


def fold_hole_path(path: HolePath, pairs: Iterable[tuple[LWord, Coefficient]]) -> dict[LWord, Coefficient]:
    """The words of pairs put into the hole of path's context, normalized.

    Normalizing op(a, b) with normal a and b gives their op-product, so each
    normal word folds up the path of normal siblings by the basis products.
    """
    acc: dict[LWord, Coefficient] = {}
    for u, a in pairs:
        for product, hole_left, sibling in path:
            u = product(u, sibling) if hole_left else product(sibling, u)
        _accumulate(acc, u, a)
    return acc

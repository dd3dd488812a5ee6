"""Brute-force cross-checks: exhaustive enumeration and exact rank computation.

This module recomputes the dimension of each graded component of the
dendriform quotient without the rewrite engine: it enumerates all normal
words of a degree, spans the degree piece of the relation ideal by
instantiating the defining relations inside every single-hole context, and
subtracts the exact rank of that row space.  Everything is exact:
elimination runs on ints and divides, with Fraction, only at a pivot whose
leading entry is not 1 or -1, so ranks are certainties, not estimates.

Both word enumerations, the normal words and the DD words, are plain
tuples generated directly in one order: strictly descending under the
monomial order ``compare``, so the matrix columns put each row's greatest
word first.
Relation bindings read the same enumeration ascending, which keeps the
elimination fill low (``binding_tuples`` gives the figures).

Over n >= 2 generators ``quotient_dim`` eliminates over x1 only.  The
relations never reorder leaves (see the ``gsbcheck`` docstring), so the
rows over n generators split into n^m blocks, one per leaf sequence, and
each block's row set is the row set over x1 with the generators relabeled.
The word count and the rank are therefore n^m times those over x1, and
so is the quotient dimension.  ``build_relation_matrix`` stays direct over
n generators, and the audit's criterion 3 and ``planar_grading`` check the
scaling against it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from .poly import Coefficient, fold_hole_path, hole_path
from .poly import apply_context  # noqa: F401  bench/tracing.py rebinds oracle.apply_context
from .rewrite import RuleId, rule_polynomial
from .terms import PREC, SUCC, Context, LWord, generator, hole, node

_BASE_RULES = (RuleId.F1, RuleId.F2)


@lru_cache(maxsize=None)
def enumerate_normal_lwords(m: int, n: int) -> tuple[LWord, ...]:
    """Every normal word of degree m, as one strictly descending tuple.

    The words are generated in the order ``compare`` defines, strictly
    descending: PREC-topped words before SUCC-topped ones, then left degree
    descending, then each factor over its own descending enumeration;
    degree 1 is xn, ..., x1.
    """
    if m < 1 or n < 1:
        raise ValueError("degree and alphabet size must be at least 1")
    if m == 1:
        return tuple(generator(i) for i in range(n, 0, -1))
    splits = [(enumerate_normal_lwords(i, n), enumerate_normal_lwords(m - i, n)) for i in range(m - 1, 0, -1)]
    words = [node(PREC, u, v) for lefts, rights in splits for u in lefts if u.op is not SUCC for v in rights]
    words.extend(node(SUCC, u, v) for lefts, rights in splits for u in lefts for v in rights)
    return tuple(words)


@lru_cache(maxsize=None)
def enumerate_dd_words(m: int, n: int) -> tuple[LWord, ...]:
    """All normal DD-words of degree m, descending under the monomial order.

    Built from the basis description, independently of the ``dd`` flag, in
    the order ``compare`` defines: x < w first, then (x > w1) > w2 with
    deg w1 descending, then x > w, with leaves xn, ..., x1 and each
    factor descending throughout.
    """
    if m < 1 or n < 1:
        raise ValueError("degree and alphabet size must be at least 1")
    leaves = tuple(generator(i) for i in range(n, 0, -1))
    if m == 1:
        return leaves
    tails = enumerate_dd_words(m - 1, n)
    words = [node(PREC, x, w) for x in leaves for w in tails]
    for i in range(m - 2, 0, -1):
        firsts = enumerate_dd_words(i, n)
        seconds = enumerate_dd_words(m - 1 - i, n)
        words.extend(node(SUCC, node(SUCC, x, w1), w2) for x in leaves for w1 in firsts for w2 in seconds)
    words.extend(node(SUCC, x, w) for x in leaves for w in tails)
    return tuple(words)


@lru_cache(maxsize=None)
def _all_trees(m: int, n: int) -> tuple[LWord, ...]:
    if m == 1:
        return tuple(generator(i) for i in range(1, n + 1))
    return tuple(
        node(op, u, v)
        for i in range(1, m)
        for op in (PREC, SUCC)
        for u in _all_trees(i, n)
        for v in _all_trees(m - i, n)
    )


@lru_cache(maxsize=None)
def enumerate_contexts(h: int, n: int) -> tuple[Context, ...]:
    """Every single-hole word with h leaves (the hole counts as a leaf).

    Contexts are arbitrary trees, not just normal ones; substitution results
    are re-normalized downstream, and the larger family makes ideal-span
    arguments direct.
    """
    if h < 1 or n < 1:
        raise ValueError("context degree and alphabet size must be at least 1")
    if h == 1:
        return (Context(hole()),)
    words = []
    for i in range(1, h):
        for op in (PREC, SUCC):
            words.extend(node(op, c.word, w) for c in enumerate_contexts(i, n) for w in _all_trees(h - i, n))
            words.extend(node(op, w, c.word) for w in _all_trees(i, n) for c in enumerate_contexts(h - i, n))
    return tuple(Context(w) for w in words)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def binding_tuples(total: int, slots: int, n: int):
    """Every tuple of ``slots`` normal words whose degrees sum to ``total``.

    Degree splits come in lexicographic order and, within a split, each
    slot runs over its normal words ascending: the one enumeration read
    backwards.  Relation rows and right-multiplication sweeps both follow
    this order, and the elimination work depends on it.  Read descending,
    the same bindings give the same rank with more fill: over x1 the pivot
    rows hold 2,514 entries in all instead of 1,909 at degree 6, 17,095
    instead of 11,463 at degree 7 and 115,389 instead of 68,629 at degree
    8, where the rank takes about twice as long.
    """
    for degrees in _compositions(total, slots):
        yield from product(*(enumerate_normal_lwords(d, n)[::-1] for d in degrees))


class RelationMatrix:
    """Degree-homogeneous rows spanning the degree-m piece of the ideal.

    One row per (rule, bindings, context) triple; every row is the
    coordinate vector of the context-embedded rule instance, keyed by its
    words' positions in ``words``, the degree's normal words descending.
    """

    __slots__ = ("words", "rows", "_pivots")

    def __init__(self, words, rows):
        self.words = words
        self.rows = rows
        self._pivots = None

    @property
    def pivots(self) -> dict[int, dict[int, Coefficient]]:
        if self._pivots is None:
            self._pivots = row_echelon(self.rows)
        return self._pivots

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def __repr__(self) -> str:
        return f"RelationMatrix(rows={len(self.rows)}, cols={len(self.words)})"


def build_relation_matrix(m: int, n: int, include_f3: bool = False) -> RelationMatrix:
    """Rows of the degree-m relation module over the normal words.

    Bindings run over all normal words with total degree d, contexts over
    all single-hole words with m - d + 1 leaves, for every d the rule
    admits.  F3 rows are consequences of the F1/F2 rows and are included
    only on request (their presence never changes the rank).
    """
    if m < 3:
        raise ValueError("there are no relations below degree 3")
    words = enumerate_normal_lwords(m, n)
    column = {w: i for i, w in enumerate(words)}
    rules = _BASE_RULES + ((RuleId.F3,) if include_f3 else ())
    rows = []
    for rule in rules:
        arity = rule.arity
        for inst_degree in range(arity, m + 1):
            paths = [hole_path(c, n) for c in enumerate_contexts(m - inst_degree + 1, n)]
            for bindings in binding_tuples(inst_degree, arity, n):
                relation = rule_polynomial(rule, bindings, n=n)
                for path in paths:
                    embedded = fold_hole_path(path, relation)
                    rows.append({column[w]: a for w, a in embedded._terms.items()})
    return RelationMatrix(words, tuple(rows))


def row_echelon(rows) -> dict[int, dict[int, Coefficient]]:
    """Sparse Gaussian elimination; pivot rows keyed by leading column.

    Columns follow the descending word tuple, so the leading column of a
    row is its greatest monomial.  Pivot rows have a unit leading
    coefficient.  A reduced row whose lead is 1 or -1 is stored as it is or
    negated, so integer rows with such leads stay on ints; any other lead
    is divided out exactly with Fraction.  Exact, deterministic, no
    pivoting heuristics.
    """
    pivots: dict[int, dict[int, Coefficient]] = {}
    for row in rows:
        r = reduce_vector(row, pivots)
        if r:
            lead = min(r)
            a = r[lead]
            if a == 1:
                pivots[lead] = r
            elif a == -1:
                pivots[lead] = {c: -v for c, v in r.items()}
            else:
                inv = Fraction(1, a)
                pivots[lead] = {c: v * inv for c, v in r.items()}
    return pivots


def reduce_vector(vec, pivots) -> dict[int, Coefficient]:
    """Remainder of a sparse vector after elimination against pivot rows."""
    r = {c: v for c, v in vec.items() if v}
    while r:
        lead = min(r)
        piv = pivots.get(lead)
        if piv is None:
            break
        factor = r[lead]
        for c, v in piv.items():
            nv = r.get(c, 0) - factor * v
            if nv:
                r[c] = nv
            elif c in r:
                del r[c]
    return r


def quotient_dim(m: int, n: int, include_f3: bool = False) -> int:
    """Dimension of the degree-m component of the quotient algebra.

    Word count minus relation rank; below degree 3 there are no relations
    and the normal words are already a basis.  Over n >= 2 generators this
    is n^m times the dimension over x1 (the module docstring says why).
    """
    if m < 1 or n < 1:
        raise ValueError("degree and alphabet size must be at least 1")
    if n > 1:
        return n**m * quotient_dim(m, 1, include_f3)
    n_words = len(enumerate_normal_lwords(m, n))
    if m < 3:
        return n_words
    return n_words - build_relation_matrix(m, n, include_f3).rank

"""Brute-force cross-checks: exhaustive enumeration and exact rank computation.

This module recomputes the dimension of each graded component of the
dendriform quotient without the rewrite engine: it enumerates all normal
words of a degree, spans the degree piece of the relation ideal by
instantiating the defining relations inside every normal single-hole
context, and subtracts the exact rank of that row space.  The entanglement
congruence is generated by an identity, so it is closed under
substitution: a context C and its normal form C' (the hole read as a
letter) give the same ``normalize(C[u])`` for every word u, and a
non-normal context would only repeat rows.  Everything is exact:
elimination runs on ints and divides, with Fraction, only at a pivot whose
leading entry is not 1 or -1, so ranks are certainties, not estimates.

Both word enumerations, the normal words and the DD words, are plain
tuples generated directly in one order: strictly descending under the
monomial order ``compare``, so the matrix columns put each row's greatest
word first.
Relation bindings and context factors read the same enumeration ascending,
which keeps the elimination fill low (``binding_tuples`` gives the figures).

Over n >= 2 generators ``quotient_dim`` eliminates over x1 only.  The
relations never reorder leaves (see the ``gsbcheck`` docstring), so the
rows over n generators split into n^m blocks, one per leaf sequence, and
each block's row set is the row set over x1 with the generators relabeled.
The word count and the rank are therefore n^m times those over x1, and
so is the quotient dimension.  ``build_relation_matrix`` stays direct over
n generators, and the audit's criterion 3 and ``planar_grading`` check the
scaling against it.

The rows come from F1 and F2 alone.  F3(x1, x2, x3, x4) lies in their
span at (4, 4) (audit criterion 3).  Substituting normal words for the
generators is a homomorphism taking F1/F2 instances in contexts to such
instances, so every F3 instance, in any degree, lies in their ideal.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from .poly import Coefficient, HolePath, apply_context
from .rewrite import RuleId, rule_polynomial
from .terms import PREC, SUCC, LWord, generator, node


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
def enumerate_contexts(h: int, n: int) -> tuple[HolePath, ...]:
    """Every normal single-hole word with h leaves (the hole counts as a leaf),
    as its hole path, the form ``apply_context`` folds.

    The normal words of degree h with one leaf made the hole, C(3h-2, h-1)
    n^(h-1) of them: a ``<`` node never has a ``>``-topped left factor.
    Non-normal contexts add no row, since the congruence is closed under
    substitution: C and its normal form C' (the hole read as a letter)
    give the same ``normalize(C[u])`` for every word u.  The path of
    op(C, w) or op(w, C) is the step (op, hole side, w) in front of C's
    path; the bare hole is the empty path, and the top operation is the
    first step's.  Word factors read their enumeration ascending, as
    ``binding_tuples`` does.
    """
    if h < 1 or n < 1:
        raise ValueError("context degree and alphabet size must be at least 1")
    if h == 1:
        return ((),)
    paths = []
    for i in range(1, h):
        ctx_lefts, ctx_rights = enumerate_contexts(i, n), enumerate_contexts(h - i, n)
        lefts, rights = enumerate_normal_lwords(i, n)[::-1], enumerate_normal_lwords(h - i, n)[::-1]
        for op in (PREC, SUCC):
            # A < node takes no >-topped left factor, context or word.
            outer = [(op, True, w) for w in rights]
            paths.extend((s,) + c for c in ctx_lefts if op is SUCC or not c or c[0][0] is PREC for s in outer)
            outer = [(op, False, w) for w in lefts if op is SUCC or w.op is not SUCC]
            paths.extend((s,) + c for s in outer for c in ctx_rights)
    return tuple(paths)


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
    rows hold 2,504 entries in all instead of 1,905 at degree 6, 17,009
    instead of 11,401 at degree 7 and 114,630 instead of 67,974 at degree
    8, where the rank takes about 1.5 times as long.
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


def build_relation_matrix(m: int, n: int) -> RelationMatrix:
    """Rows of the degree-m relation module over the normal words.

    Bindings run over all normal words with total degree d, contexts over
    all normal single-hole words with m - d + 1 leaves, for every d >= 3;
    each row is one ``apply_context`` of a relation along a context's hole
    path.  F3 adds no rows: its instances lie in the ideal of F1 and F2.
    """
    if m < 3:
        raise ValueError("there are no relations below degree 3")
    words = enumerate_normal_lwords(m, n)
    column = {w: i for i, w in enumerate(words)}
    rows = []
    for rule in (RuleId.F1, RuleId.F2):
        for inst_degree in range(rule.arity, m + 1):
            paths = enumerate_contexts(m - inst_degree + 1, n)
            for bindings in binding_tuples(inst_degree, rule.arity, n):
                relation = rule_polynomial(rule, bindings, n=n)
                for path in paths:
                    embedded = apply_context(path, relation)._terms
                    rows.append({column[w]: a for w, a in embedded.items()})
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


def quotient_dim(m: int, n: int) -> int:
    """Dimension of the degree-m component of the quotient algebra.

    Word count minus relation rank; below degree 3 there are no relations
    and the normal words are already a basis.  Over n >= 2 generators this
    is n^m times the dimension over x1 (the module docstring says why).
    """
    if m < 1 or n < 1:
        raise ValueError("degree and alphabet size must be at least 1")
    if n > 1:
        return n**m * quotient_dim(m, 1)
    n_words = len(enumerate_normal_lwords(m, n))
    if m < 3:
        return n_words
    return n_words - build_relation_matrix(m, n).rank

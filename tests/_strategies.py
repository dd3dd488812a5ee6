"""Shared generators for property tests, seeded sampling and reference helpers."""

import random

import hypothesis.strategies as st

from dendriform.gsbcheck import (
    _check_pair,
    _normal_words_from_degree_3,
    _redex_pairs,
    _right_mult_instances,
    check_right_mult,
)
from dendriform.oracle import enumerate_dd_words
from dendriform.poly import Polynomial
from dendriform.rewrite import Redex, match_rule_at
from dendriform.terms import PREC, SUCC, generator, hole, node, normalize, substitute


def tree_words(n=2, max_leaves=6, holes=False):
    """Arbitrary (not necessarily normal) words, with hole leaves if asked."""
    leaves = st.integers(0 if holes else 1, n).map(lambda i: generator(i) if i else hole())
    return st.recursive(
        leaves,
        lambda children: st.tuples(st.sampled_from((PREC, SUCC)), children, children).map(
            lambda t: node(t[0], t[1], t[2])
        ),
        max_leaves=max_leaves,
    )


def all_trees(m, n):
    """Every tree with m leaves over x1..xn, normal or not."""
    if m == 1:
        return [generator(i) for i in range(1, n + 1)]
    return [
        node(op, u, v)
        for i in range(1, m)
        for op in (PREC, SUCC)
        for u in all_trees(i, n)
        for v in all_trees(m - i, n)
    ]


def all_contexts(h, n):
    """Every single-hole tree with h leaves (the hole counts as a leaf),
    normal or not: C(h-1) shapes, 2^(h-1) operation labelings, h hole
    slots and n^(h-1) letters."""
    if h == 1:
        return [hole()]
    out = []
    for i in range(1, h):
        for op in (PREC, SUCC):
            out.extend(node(op, c, w) for c in all_contexts(i, n) for w in all_trees(h - i, n))
            out.extend(node(op, w, c) for w in all_trees(i, n) for c in all_contexts(h - i, n))
    return out


def hole_path(c):
    """The hole path of the one-hole word c, by the reference walk down to
    the hole: steps from the root down, each (operation, whether the hole
    side is the left operand, normalized sibling)."""
    path = []
    while c.op is not None:
        if c.left.holes:
            path.append((c.op, True, normalize(c.right)))
            c = c.left
        else:
            path.append((c.op, False, normalize(c.left)))
            c = c.right
    return tuple(path)


def hole_word(path):
    """The one-hole word whose hole path is path: each step, from the hole
    up, spliced around the word so far, with no basis product applied."""
    c = hole()
    for op, hole_left, sibling in reversed(path):
        c = node(op, c, sibling) if hole_left else node(op, sibling, c)
    return c


def normal_words(n=2, max_degree=6):
    return tree_words(n=n, max_leaves=max_degree).map(normalize)


def polynomials(n=2, max_degree=5, max_terms=5):
    pairs = st.tuples(normal_words(n=n, max_degree=max_degree), st.integers(-4, 4))
    return st.lists(pairs, max_size=max_terms).map(lambda prs: Polynomial(n, prs))


def sample_dd_word(rng: random.Random, max_degree: int, n: int):
    m = rng.randint(1, max_degree)
    words = enumerate_dd_words(m, n)
    return words[rng.randrange(len(words))]


def spliced(c, p):
    """Sum of a * normalize(substitute(c, u)) over the terms a*u of p.

    The reference for ``apply_context``: every whole spliced word is
    re-normalized, with no use of the basis products' fold.
    """
    return Polynomial(p.n, [(normalize(substitute(c, u)), a) for u, a in p.terms()])


def reference_is_dd(u):
    """The basis test in its recursive closed form, without the ``dd`` flag.

    A generator; x < w or x > w with x a generator; or (x > w1) > w2 with x
    a generator and w1, w2 basis words.
    """
    if u.op is None:
        return True
    if u.op is PREC:
        return u.left.op is None and reference_is_dd(u.right)
    if u.left.op is None:
        return reference_is_dd(u.right)
    left = u.left
    return left.op is SUCC and left.left.op is None and reference_is_dd(left.right) and reference_is_dd(u.right)


def reference_is_normal(u):
    """Normality by its recursive definition, without the ``normal`` flag:
    no ``<`` node has a ``>``-topped left factor."""
    if u.op is None:
        return True
    return reference_is_normal(u.left) and reference_is_normal(u.right) and not (u.op is PREC and u.left.op is SUCC)


def reference_leaves(u):
    """The leaf indexes of u, left to right (0 for a hole), by recursion."""
    return [u.index] if u.op is None else reference_leaves(u.left) + reference_leaves(u.right)


def reference_redexes(u, path=""):
    """Every redex of any tree in preorder: ``match_rule_at`` at every
    subterm, with no flag read and no subtree skipped."""
    matched = match_rule_at(u)
    out = [] if matched is None else [Redex(matched[0], path, matched[1])]
    if u.op is not None:
        out += reference_redexes(u.left, path + "L")
        out += reference_redexes(u.right, path + "R")
    return out


def reference_right_mult_sweep(max_total_degree, n):
    """Every right-multiplication composition checked directly over n
    generators, with no relabeling: the reference for ``right_mult_sweep``."""
    return [check_right_mult(rule, b, v, n=n) for rule, b, v in _right_mult_instances(max_total_degree, n)]


def reference_local_confluence(max_degree, n):
    """Every redex pair of every normal word checked directly over n
    generators, with no relabeling: the reference for ``check_local_confluence``."""
    pairs = _redex_pairs(_normal_words_from_degree_3(max_degree, n))
    return [_check_pair(w, r1, r2, n) for w, r1, r2 in pairs]

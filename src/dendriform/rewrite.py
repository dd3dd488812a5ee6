"""Rewriting of normal words onto the dendriform basis.

Three rules, each oriented so the left side is the rule's greatest word
under the monomial order:

    F1:   (x < y) < z        ->  x < (y < z) + x < (y > z)
    F2:   (x < y) > z        ->  x > (y > z) - (x > y) > z
    F3:   ((x > y) > z) > v  ->  (x > y) > (z > v) - (x > (y < z)) > v

A normal word containing no occurrence of a left-side shape is a normal
DD-word; those words form a basis of the free dendriform algebra, and
``normal_form`` rewrites any polynomial onto it.  Whether a word is a
DD-word is the ``dd`` flag every word carries from the terms module, so the
redex searches below skip every subterm already on the basis, the first
redex is found by walking down a single path, and a word off the basis
keeps its normal form in its ``nf`` slot, so under the weak intern table a
normal form dies with its word.  The intermediate words of a reduction
live only until its ``normal_form`` call returns.  Every rewrite step
replaces one word by a combination of strictly smaller words (checked at
each step), so reduction terminates; confluence is verified exhaustively
at bounded degree by the companion basis-check module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .poly import Coefficient, Polynomial, _accumulate
from .terms import (
    PREC,
    SUCC,
    LWord,
    compare,
    is_normal,
    l_prec,
    l_succ,
    max_generator_index,
    normalize,  # noqa: F401  bench/tracing.py rebinds rewrite.normalize
)


class RuleId(Enum):
    F1 = "F1"
    F2 = "F2"
    F3 = "F3"

    @property
    def arity(self) -> int:
        return 4 if self is RuleId.F3 else 3


# Each rule's two sides at normal bindings (x, y, z[, v]), built through the
# basis products: the left side, and the right side as (word, coefficient)
# pairs of two distinct normal words.  The builders look the products up as
# module globals when called.
_SIDES = {
    RuleId.F1: (
        lambda x, y, z: l_prec(l_prec(x, y), z),
        lambda x, y, z: ((l_prec(x, l_prec(y, z)), 1), (l_prec(x, l_succ(y, z)), 1)),
    ),
    RuleId.F2: (
        lambda x, y, z: l_succ(l_prec(x, y), z),
        lambda x, y, z: ((l_succ(x, l_succ(y, z)), 1), (l_succ(l_succ(x, y), z), -1)),
    ),
    RuleId.F3: (
        lambda x, y, z, v: l_succ(l_succ(l_succ(x, y), z), v),
        lambda x, y, z, v: ((l_succ(l_succ(x, y), l_succ(z, v)), 1), (l_succ(l_succ(x, l_prec(y, z)), v), -1)),
    ),
}


@dataclass(frozen=True)
class Redex:
    """One rewritable occurrence: rule, root-relative path, matched subterms."""

    rule: RuleId
    path: tuple[str, ...]  # "L"/"R" steps from the root
    bindings: tuple[LWord, ...]


class StaleRedexError(ValueError):
    """The word does not carry the claimed redex at the claimed path."""


class RewriteOrderError(RuntimeError):
    """A rewrite step produced a word not strictly below the rewritten one."""


def match_rule_at(u: LWord):
    """Rule and bindings whose left side matches at the root of u, or None."""
    if u.op is PREC:
        left = u.left
        if left.op is PREC:
            return RuleId.F1, (left.left, left.right, u.right)
        return None
    if u.op is SUCC:
        left = u.left
        if left.op is PREC:
            return RuleId.F2, (left.left, left.right, u.right)
        if left.op is SUCC and left.left.op is SUCC:
            inner = left.left
            return RuleId.F3, (inner.left, inner.right, left.right, u.right)
    return None


def find_redexes(u: LWord) -> list[Redex]:
    """All redexes of a normal word, in preorder (root, then left, then right).

    A subterm on the basis carries no redex, so the walk skips it.
    """
    out: list[Redex] = []
    stack = [(u, ())]
    while stack:
        u, path = stack.pop()
        if u.dd:
            continue
        matched = match_rule_at(u)
        if matched is not None:
            out.append(Redex(matched[0], path, matched[1]))
        stack.append((u.right, path + ("R",)))
        stack.append((u.left, path + ("L",)))
    return out


def _first_match(u: LWord):
    """The one-path walk to the preorder-first redex of a normal word.

    Returns (rule, bindings, ancestors, path) with the ancestors the walk
    passed through, root first, or None when u is DD-normal.  A normal word
    off the basis carries a redex, so the walk stops at a matching subterm
    and otherwise enters the left child when that is off the basis, else
    the right child.
    """
    ancestors: list[LWord] = []
    path: list[str] = []
    while not u.dd:
        matched = match_rule_at(u)
        if matched is not None:
            return matched[0], matched[1], ancestors, path
        ancestors.append(u)
        if u.left.dd:
            u = u.right
            path.append("R")
        else:
            u = u.left
            path.append("L")
    return None


def rule_polynomial(rule: RuleId, bindings, *, n: int | None = None) -> Polynomial:
    """The rule relation at concrete bindings: left side minus right side.

    Instances rewrite to zero; they generate the ideal presenting the free
    dendriform algebra.  The alphabet size defaults to the largest index
    appearing in the bindings.
    """
    bindings = tuple(bindings)
    if len(bindings) != rule.arity:
        raise ValueError(f"{rule.name} takes {rule.arity} bindings, got {len(bindings)}")
    for b in bindings:
        if not is_normal(b):
            raise ValueError(f"rule bindings must be normal words: {b}")
    left_side, right_side = _SIDES[rule]
    terms = {left_side(*bindings): 1}
    for w, c in right_side(*bindings):
        _accumulate(terms, w, -c)
    if n is None:
        n = max(1, max(max_generator_index(b) for b in bindings))
    return Polynomial._raw(n, terms)


def _fold_step(u: LWord, rule: RuleId, bindings, ancestors, path) -> dict[LWord, int]:
    """The terms of one rewrite step of u, given the walk to its redex.

    Each right-side word is normal, and so is every sibling off the path
    (a subterm of the normal word u).  Normalizing op(a, b) with normal a
    and b gives the op-product of a and b, so folding the path back with
    the basis products yields the normalized spliced word while visiting
    only the path.  The products are injective, so the two words stay
    distinct.
    """
    out: dict[LWord, int] = {}
    for w, c in _SIDES[rule][1](*bindings):
        for above, step in zip(reversed(ancestors), reversed(path)):
            product = l_succ if above.op is SUCC else l_prec
            w = product(w, above.right) if step == "L" else product(above.left, w)
        if compare(w, u) >= 0:
            raise RewriteOrderError(f"{rule.name} step at path {''.join(path)!r} failed to descend from {u}")
        out[w] = c
    return out


def rewrite_step(u: LWord, redex: Redex, *, n: int | None = None) -> Polynomial:
    """Rewrite one occurrence: u minus the context-embedded rule instance.

    u must be a normal word, as every word of a polynomial is.  The redex
    must match u at its path (``StaleRedexError`` otherwise).  Every word
    of the result is strictly smaller than u, which is checked per produced
    term (``RewriteOrderError`` otherwise).
    """
    ancestors = []
    target = u
    for step in redex.path:
        if target.op is None:
            raise StaleRedexError(f"path {''.join(redex.path)!r} leaves the word")
        ancestors.append(target)
        target = target.left if step == "L" else target.right
    matched = match_rule_at(target)
    if matched is None or matched[0] is not redex.rule or matched[1] != redex.bindings:
        raise StaleRedexError(f"no {redex.rule.name} redex with those bindings at path {''.join(redex.path)!r}")
    if n is None:
        n = max(1, max_generator_index(u))
    return Polynomial._raw(n, _fold_step(u, redex.rule, redex.bindings, ancestors, redex.path))


# Never written: normal forms live on their words (see _nf_word).  It stays
# bound, always empty, because bench/tracing.py reports its size.
_NF_CACHE: dict[LWord, dict[LWord, int]] = {}


# Recurses per step of a rewrite chain, not per level of u: depth 14 on the reduce benchmark.
def _nf_word(u: LWord, keep: list) -> dict[LWord, int]:
    if u.dd:
        return {u: 1}
    if u.nf is None:
        # The walk that found the redex hands its ancestors straight to the
        # fold, so the path is not walked or matched a second time.
        steps = _fold_step(u, *_first_match(u))
        keep.append(steps)
        res = {}
        for w, c in steps.items():
            for w2, c2 in _nf_word(w, keep).items():
                _accumulate(res, w2, c * c2)
        # Every rule coefficient is +-1 and rewriting never divides, so res holds ints.
        u.nf = res
    return u.nf


def normal_form(p: Polynomial) -> Polynomial:
    """Canonical form of p modulo the three rules.

    Each word is reduced at its preorder-first redex until redex free; the
    extension to polynomials is linear.  A word keeps its normal form while
    it lives, and the words its reduction steps through live until the call
    returns, so a step shared within one call is reduced once.  The result
    is strategy independent (verified exhaustively at desk scale by the
    basis checks) and preserves the degree decomposition.
    """
    acc: dict[LWord, Coefficient] = {}
    keep = []  # every rewrite step of this call, which holds its words alive
    for u, a in p._terms.items():
        for w, c in _nf_word(u, keep).items():
            _accumulate(acc, w, a * c)
    return Polynomial._raw(p.n, acc) if acc else Polynomial.zero(p.n)


def max_reducible_word(p: Polynomial) -> LWord | None:
    """Greatest word of p carrying a redex.

    Under a greatest-first strategy this is the first word rewritten, and
    every later rewrite happens strictly below it, so it bounds the whole
    reduction trace of p.
    """
    best = None
    for w in p._terms:
        if not w.dd and (best is None or compare(w, best) > 0):
            best = w
    return best

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
live only until its ``normal_form`` call returns.  A rewrite step is the
rule's right side folded up its redex's hole path by ``poly.fold_hole_path``,
the splice the relation rows use too.  Rule bindings and rewritten words
enter the algebra through ``poly.admit``, as normal words without holes.
Every rewrite step replaces one word by a combination of strictly smaller
words (checked at each step), so reduction terminates; confluence is
verified exhaustively at bounded degree by the companion basis-check module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .poly import Coefficient, Polynomial, _accumulate, admit, fold_hole_path
from .terms import (
    PREC,
    SUCC,
    LWord,
    compare,
    is_normal,  # noqa: F401  bench/tracing.py rebinds rewrite.is_normal
    l_prec,
    l_succ,
    max_generator_index,  # noqa: F401  bench/tracing.py rebinds rewrite.max_generator_index
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
    """One rewritable occurrence: rule, path from the root (such as "LLR"), matched subterms."""

    rule: RuleId
    path: str
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
    stack = [(u, "")]
    while stack:
        u, path = stack.pop()
        if u.dd:
            continue
        matched = match_rule_at(u)
        if matched is not None:
            out.append(Redex(matched[0], path, matched[1]))
        stack.append((u.right, path + "R"))
        stack.append((u.left, path + "L"))
    return out


def _first_match(u: LWord):
    """The one-path walk to the preorder-first redex of a normal word.

    Returns (rule, bindings, steps), or None when u is DD-normal: steps is
    the redex's hole path (``poly.HolePath``, root first).  A normal word
    off the basis carries a redex, so the walk stops at a matching subterm
    and otherwise enters the left child when that is off the basis, else
    the right child.
    """
    steps = []
    while not u.dd:
        matched = match_rule_at(u)
        if matched is not None:
            return matched[0], matched[1], steps
        if u.left.dd:
            steps.append((u.op, False, u.left))
            u = u.right
        else:
            steps.append((u.op, True, u.right))
            u = u.left
    return None


def rule_polynomial(rule: RuleId, bindings, *, n: int | None = None) -> Polynomial:
    """The rule relation at concrete bindings: left side minus right side.

    Instances rewrite to zero; they generate the ideal presenting the free
    dendriform algebra.  The bindings enter the algebra through
    ``poly.admit``, which checks them and gives the alphabet size.
    """
    bindings = tuple(bindings)
    if len(bindings) != rule.arity:
        raise ValueError(f"{rule.name} takes {rule.arity} bindings, got {len(bindings)}")
    n = admit(bindings, n, "a rule binding")
    left_side, right_side = _SIDES[rule]
    terms = {left_side(*bindings): 1}
    for w, c in right_side(*bindings):
        _accumulate(terms, w, -c)
    return Polynomial._raw(n, terms)


def _step(u: LWord, rule: RuleId, bindings, steps) -> dict[LWord, int]:
    """The terms of one rewrite step of u: the rule's right side at the
    bindings, folded up the hole path of its redex, root first as given.

    The siblings are subterms of the normal word u, so normal, as the fold
    requires.  Every produced word must lie strictly below u
    (``RewriteOrderError`` otherwise).
    """
    out = fold_hole_path(steps, _SIDES[rule][1](*bindings))
    for w in out:
        if compare(w, u) >= 0:
            path = "".join("L" if hole_left else "R" for _, hole_left, _ in steps)
            raise RewriteOrderError(f"{rule.name} step at path {path!r} failed to descend from {u}")
    return out


def rewrite_step(u: LWord, redex: Redex, *, n: int | None = None) -> Polynomial:
    """Rewrite one occurrence: u minus the context-embedded rule instance.

    u enters the algebra through ``poly.admit``, which checks it and gives
    the alphabet size.  The redex must match u at its path
    (``StaleRedexError`` otherwise).  Every word of the result is strictly
    smaller than u, which is checked per produced term
    (``RewriteOrderError`` otherwise).
    """
    n = admit((u,), n, "the rewritten word")
    steps = []
    target = u
    for side in redex.path:
        if target.op is None:
            raise StaleRedexError(f"path {redex.path!r} leaves the word")
        left = side == "L"
        steps.append((target.op, left, target.right if left else target.left))
        target = target.left if left else target.right
    matched = match_rule_at(target)
    if matched is None or matched[0] is not redex.rule or matched[1] != redex.bindings:
        raise StaleRedexError(f"no {redex.rule.name} redex with those bindings at path {redex.path!r}")
    return Polynomial._raw(n, _step(u, redex.rule, redex.bindings, steps))


# Never written: normal forms live on their words (see _nf_word).  It stays
# bound, always empty, because bench/tracing.py reports its size.
_NF_CACHE: dict[LWord, dict[LWord, int]] = {}


# Recurses per step of a rewrite chain, not per level of u: depth 14 on the reduce benchmark.
def _nf_word(u: LWord, keep: list) -> dict[LWord, int]:
    if u.dd:
        return {u: 1}
    if u.nf is None:
        # The walk that found the redex hands its hole path straight to the
        # fold, so the path is not walked or matched a second time.
        step = _step(u, *_first_match(u))
        keep.append(step)
        res = {}
        for w, c in step.items():
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

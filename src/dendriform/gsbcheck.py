"""Bounded-degree verification that the rewrite rules form a complete basis.

Two obstruction families are checked.  Right-multiplication compositions
multiply a SUCC-leading rule instance by an arbitrary normal word on the
right and must reduce to zero with every intermediate word at or below the
product's leading word.  Inclusion compositions arise wherever one word
carries two redexes: both one-step reducts must share a normal form, with
every intermediate word strictly below the ambiguity.  Checks run over
concrete words exhaustively up to a degree bound; failures are collected
in reports, never thrown, so a single miss cannot mask others.

The sweeps run over one generator and relabel.  The rules, the
entanglement identity and the basis products never reorder, copy or drop
leaves, so every word, relation and composition of degree m over x1..xn
lies in one block: the words with a given left-to-right sequence of m
leaf labels.  Within a block, ``compare`` never decides on two different
generators (two words with the same leaf sequence differ first in shape),
so the map sending every generator to x1 is a bijection from a block onto
the degree-m words over x1 that preserves the order, the rules' matches,
the one-step reducts and the normal forms.  Hence every report over n
generators is a report over x1 with each word relabeled by one of the n^m
leaf sequences, and the sweeps compute the x1 reports once.  This is the
non-symmetry of the dendriform operad behind the paper's Catalan(m) * n^m;
the audit's ``planar_grading`` check verifies the grading and the
order-preservation exhaustively at small degree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .oracle import binding_tuples, enumerate_normal_lwords
from .poly import Polynomial, leading, mul
from .rewrite import (
    Redex,
    RuleId,
    find_redexes,
    max_reducible_word,
    normal_form,
    rewrite_step,
    rule_polynomial,
)
from .terms import PREC, SUCC, LWord, compare, generator, max_generator_index, node

RIGHT_MULT_RULES = (RuleId.F2, RuleId.F3)


@dataclass(frozen=True, slots=True)
class CompositionReport:
    """Outcome of one composition check.

    ``ambiguity_word`` is the bound word: the overlap word for an inclusion
    pair, the leading word of the right product for a right-multiplication.
    ``max_intermediate`` is the greatest word rewritten while reducing the
    composition (None when it was already reduced); ``ok`` requires a zero
    residual and the intermediate bound (strict for inclusions, non-strict
    for right multiplications).
    """

    kind: str  # "inclusion" or "right_mult"
    rules: tuple[RuleId, ...]
    ambiguity_word: LWord
    residual: Polynomial
    ok: bool
    max_intermediate: LWord | None
    paths: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "rules": [r.name for r in self.rules],
            "ambiguity": str(self.ambiguity_word),
            "paths": list(self.paths),
            "ok": self.ok,
            "max_intermediate": None if self.max_intermediate is None else str(self.max_intermediate),
            "residual": self.residual.to_json_dict(),
        }


def _report_sort_key(report: CompositionReport):
    """The order of reports in JSON output; no two reports of one sweep share a key."""
    return (
        report.ambiguity_word,
        report.kind,
        tuple(r.name for r in report.rules),
        report.paths,
    )


def _judge(kind: str, rules: tuple[RuleId, ...], bound: LWord, composition: Polynomial, paths=()) -> CompositionReport:
    """Reduce a composition and report it: the residual must vanish and no
    rewritten word may exceed the bound (nor reach it, for an inclusion)."""
    max_intermediate = max_reducible_word(composition)
    residual = normal_form(composition)
    ceiling = 0 if kind == "inclusion" else 1
    ok = residual.is_zero and (
        max_intermediate is None or compare(max_intermediate, bound) < ceiling
    )
    return CompositionReport(
        kind=kind,
        rules=rules,
        ambiguity_word=bound,
        residual=residual,
        ok=ok,
        max_intermediate=max_intermediate,
        paths=paths,
    )


def check_right_mult(rule: RuleId, bindings, v: LWord, *, n: int | None = None) -> CompositionReport:
    """Reduce (rule instance) < v and report the residual.

    Only F2 and F3 have SUCC-topped leading words, so only they admit this
    composition; F1 is rejected.
    """
    if rule not in RIGHT_MULT_RULES:
        raise ValueError(f"{rule.name} has no right-multiplication composition")
    bindings = tuple(bindings)
    if n is None:
        n = max(1, max_generator_index(v), *(max_generator_index(b) for b in bindings))
    relation = rule_polynomial(rule, bindings, n=n)
    composition = mul(relation, PREC, Polynomial.monomial(v, n=n))
    return _judge("right_mult", (rule,), leading(composition)[0], composition)


def _right_mult_instances(max_total_degree: int, n: int):
    """(rule, bindings, right factor) for every right-multiplication
    composition whose words total at most the given degree."""
    for rule in RIGHT_MULT_RULES:
        slots = rule.arity + 1  # bindings plus the right factor
        for total in range(slots, max_total_degree + 1):
            for words in binding_tuples(total, slots, n):
                yield rule, words[:-1], words[-1]


def right_mult_sweep(max_total_degree: int, n: int) -> list[CompositionReport]:
    """Every right-multiplication composition with bindings plus right
    factor totalling at most the given degree.

    The compositions over x1 are checked once and relabeled into every
    leaf sequence over n generators (see the module docstring).
    """
    reports = [check_right_mult(rule, b, v, n=1) for rule, b, v in _right_mult_instances(max_total_degree, 1)]
    return _relabeled(reports, n)


def _check_pair(w: LWord, r1: Redex, r2: Redex, n: int) -> CompositionReport:
    difference = rewrite_step(w, r1, n=n) - rewrite_step(w, r2, n=n)
    return _judge("inclusion", (r1.rule, r2.rule), w, difference, ("".join(r1.path), "".join(r2.path)))


def _redex_pairs(words):
    """(word, first redex, second redex) for every pair of redexes of each word."""
    for w in words:
        redexes = find_redexes(w)
        for i, r1 in enumerate(redexes):
            for r2 in redexes[i + 1 :]:
                yield w, r1, r2


def _normal_words_from_degree_3(max_degree: int, n: int):
    for m in range(3, max_degree + 1):
        yield from enumerate_normal_lwords(m, n).words


def check_local_confluence(max_degree: int, n: int) -> list[CompositionReport]:
    """Check every redex pair of every normal word up to the degree bound.

    Each multiply-reducible word is an ambiguity; equal normal forms of the
    two one-step reducts certify the pair.
    """
    if max_degree < 3:
        raise ValueError("redexes need degree at least 3")
    if n < 1:
        raise ValueError("alphabet size must be at least 1")
    pairs = _redex_pairs(_normal_words_from_degree_3(max_degree, 1))
    return _relabeled([_check_pair(w, r1, r2, 1) for w, r1, r2 in pairs], n)


def _relabeler(n: int):
    """Map a word over x1 to the tuple of its n^degree relabelings, one per
    leaf sequence in lexicographic order.

    A word's relabelings are built from its children's, so the i-th entry
    of every word of one degree carries the same leaf sequence.
    """
    memo = {generator(1): tuple(generator(i) for i in range(1, n + 1))}

    def relabel(w: LWord) -> tuple[LWord, ...]:
        out = memo.get(w)
        if out is None:
            op = w.op
            rights = relabel(w.right)
            out = memo[w] = tuple(node(op, a, b) for a in relabel(w.left) for b in rights)
        return out

    return relabel


def _relabeled(reports: list[CompositionReport], n: int) -> list[CompositionReport]:
    """Reports over x1 relabeled into every leaf sequence over n
    generators.

    The ambiguity word, the greatest intermediate and every residual word
    of a report share their degree, and each takes the same leaf sequence.
    """
    if n == 1:
        return reports
    relabel = _relabeler(n)
    out = []
    for r in reports:
        intermediates = None if r.max_intermediate is None else relabel(r.max_intermediate)
        residuals = [(relabel(w), c) for w, c in r.residual._terms.items()]
        for i, word in enumerate(relabel(r.ambiguity_word)):
            out.append(
                CompositionReport(
                    kind=r.kind,
                    rules=r.rules,
                    ambiguity_word=word,
                    residual=Polynomial._raw(n, {ws[i]: c for ws, c in residuals}) if residuals else Polynomial.zero(n),
                    ok=r.ok,
                    max_intermediate=None if intermediates is None else intermediates[i],
                    paths=r.paths,
                )
            )
    return out


def _cycled_generators(count: int, n: int) -> list[LWord]:
    return [generator((k % n) + 1) for k in range(count)]


def named_ambiguity_words(n: int) -> dict[str, LWord]:
    """The three hand-checked overlap shapes, instantiated on generators.

    With n >= 4, 5, 6 respectively the instances use pairwise distinct
    generators; smaller alphabets cycle.
    """
    if n < 1:
        raise ValueError("alphabet size must be at least 1")
    x, y, z, c = _cycled_generators(4, n)
    w1 = node(SUCC, node(PREC, node(PREC, x, y), z), c)
    a, b, c2, z2, v = _cycled_generators(5, n)
    w2 = node(SUCC, node(SUCC, node(SUCC, node(PREC, a, b), c2), z2), v)
    a, b, c3, d, z3, v3 = _cycled_generators(6, n)
    w3 = node(
        SUCC,
        node(SUCC, node(SUCC, node(SUCC, node(SUCC, a, b), c3), d), z3),
        v3,
    )
    return {
        "prec_prec_under_succ": w1,
        "prec_succ_chain": w2,
        "succ_chain_overlap": w3,
    }


def check_named_cases(n: int) -> list[CompositionReport]:
    """Check every redex pair of the three named overlap shapes."""
    pairs = _redex_pairs(named_ambiguity_words(n).values())
    return [_check_pair(w, r1, r2, n) for w, r1, r2 in pairs]


def classify_redex_pair(r1: Redex, r2: Redex) -> str:
    """Family of a redex pair: nested pairs by outer/inner rule, else disjoint."""
    p1, p2 = r1.path, r2.path
    if p1 == p2[: len(p1)]:
        outer, inner = r1, r2
    elif p2 == p1[: len(p2)]:
        outer, inner = r2, r1
    else:
        return "disjoint"
    return f"inclusion:{outer.rule.name}/{inner.rule.name}"


def coverage_audit(max_degree: int, n: int) -> dict[str, int]:
    """Census of ambiguity families reachable within the degree bound.

    Counts nested redex pairs by outer/inner rule over all normal words up
    to the bound (classification only, no reduction), plus the number of
    right-multiplication instances per SUCC-leading rule.
    """
    families: Counter[str] = Counter(
        classify_redex_pair(r1, r2) for _, r1, r2 in _redex_pairs(_normal_words_from_degree_3(max_degree, n))
    )
    families.update(f"right_mult:{rule.name}" for rule, _, _ in _right_mult_instances(max_degree, n))
    return dict(families)

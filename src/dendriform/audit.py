"""The paper's machine-checkable claims, each defined once as a named check.

``CHECKS`` is a plain tuple of functions.  Each takes no arguments and
returns ``(ok, counts)``: whether the claim held, and a dict of the
deterministic counts the check computed on the way (report counts, ranks,
growth values as strings).  The acceptance tests and ``dendriform audit``
both run this tuple.  Every check is exact (integer or rational equality);
nothing is tolerance tuned.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .gsbcheck import (
    _normal_words_from_degree_3,
    _redex_pairs,
    _right_mult_instances,
    check_local_confluence,
    check_named_cases,
    coverage_audit,
    right_mult_sweep,
)
from .oracle import (
    build_relation_matrix,
    enumerate_dd_words,
    enumerate_normal_lwords,
    quotient_dim,
    reduce_vector,
    row_echelon,
)
from .poly import Polynomial, mul
from .rewrite import RuleId, find_redexes, normal_form, rewrite_step, rule_polynomial
from .series import abc_series, dim_closed, f_recursive, gk_statistic, series_from_gf
from .terms import PREC, SUCC, compare, generator, node


def sample_normal_word(rng: random.Random, max_degree: int, n: int):
    """A normal word of seeded random degree 1..max_degree, uniform within it."""
    m = rng.randint(1, max_degree)
    words = enumerate_normal_lwords(m, n)
    return words[rng.randrange(len(words))]


def criterion_1_dimension_formula_three_ways():
    """Recursion, closed form and series agree exactly to degree 30."""
    ok = True
    for n in (1, 2, 3):
        gf = series_from_gf(30, n)
        for m in range(1, 31):
            closed = dim_closed(m, n)
            ok = ok and f_recursive(m) * n**m == closed == gf.coefficient(m)
    return ok, {}


def criterion_2_seed_dimensions():
    """Degree 1 and 2 dimensions are n and 2n^2."""
    ok = True
    for n in (1, 2, 3):
        ok = ok and dim_closed(1, n) == n == len(enumerate_dd_words(1, n))
        ok = ok and dim_closed(2, n) == 2 * n**2 == len(enumerate_dd_words(2, n))
    return ok, {}


def pivot_leads_off_the_basis(matrix) -> bool:
    """Whether the pivot leads of a relation matrix are its normal words off the basis.

    The pivot keys are the leading words of the ideal's degree piece, so
    this is the composition-diamond criterion for S on the elimination's
    own data.  It reads no rewrite rule, only the ``dd`` flag.
    """
    words = matrix.words
    return {words[c] for c in matrix.pivots} == {w for w in words if not w.dd}


def criterion_3_oracle_quotient():
    """Exact elimination quotient equals Catalan(m) * n^m; pivot leads off the basis; F3 derived.

    Degrees 1..7 over one generator and 1..5 over two.  From degree 3 on,
    each case is eliminated once directly over its n generators, and the
    pivot leads must be the normal words off the basis.  Over x1 that
    elimination is quotient_dim's own, so its word count minus rank is the
    quotient dimension; over two generators it must agree with
    quotient_dim, which scales the x1 quotient by n^m (the direct rank is
    the independent check of that scaling).  F3(x1, x2, x3, x4) must
    reduce to zero against the F1/F2 pivots at (4, 4) (see ``oracle``).
    """
    ok = True
    counts = {}
    cases = [(m, 1) for m in range(1, 8)] + [(m, 2) for m in range(1, 6)]
    for m, n in cases:
        expected = dim_closed(m, n)
        direct = len(enumerate_normal_lwords(m, n))
        if m >= 3:
            matrix = build_relation_matrix(m, n)
            direct -= matrix.rank
            ok = ok and pivot_leads_off_the_basis(matrix)
        got = counts[f"quotient_dim({m},{n})"] = direct if n == 1 else quotient_dim(m, n)
        ok = ok and got == direct == expected
        ok = ok and len(enumerate_dd_words(m, n)) == expected
    matrix = build_relation_matrix(4, 4)
    f3 = rule_polynomial(RuleId.F3, [generator(i) for i in range(1, 5)], n=4)
    ok = ok and not reduce_vector({matrix.words.index(w): a for w, a in f3.terms()}, matrix.pivots)
    return ok, counts


def criterion_4_basis_verification():
    """Right multiplications, overlaps and named cases all reduce to zero."""
    sweeps = {
        "right_mult_sweep(6,1)": right_mult_sweep(6, 1),  # every instance of total degree <= 5 and more
        "check_local_confluence(6,1)": check_local_confluence(6, 1),
        "check_local_confluence(5,2)": check_local_confluence(5, 2),
        "check_named_cases(6)": check_named_cases(6),
    }
    ok = all(reports and all(r.ok and r.residual.is_zero for r in reports) for reports in sweeps.values())
    ok = ok and len(sweeps["check_named_cases(6)"]) == 5
    return ok, {label: len(reports) for label, reports in sweeps.items()}


def criterion_5_rewrite_soundness():
    """Descent, termination, DD-normal images, axioms vanish on 200 triples."""
    ok = True
    # Monomial descent at every redex, and DD-normal images for every word.
    for n in (1, 2):
        for m in range(1, 7):
            for w in enumerate_normal_lwords(m, n):
                for redex in find_redexes(w):
                    step = rewrite_step(w, redex, n=n)
                    ok = ok and all(compare(t, w) == -1 for t, _ in step.terms())
                nf = normal_form(Polynomial.monomial(w, n=n))
                ok = ok and all(t.dd for t, _ in nf.terms())
    # Dendriform axioms on 200 seeded random triples of dd words.
    rng = random.Random(170_501)
    checked = 0
    while checked < 200:
        da = rng.randint(1, 4)
        db = rng.randint(1, 5 - da)
        dc = rng.randint(1, 6 - da - db)
        words = enumerate_dd_words(da, 2), enumerate_dd_words(db, 2), enumerate_dd_words(dc, 2)
        a, b, c = (ws[rng.randrange(len(ws))] for ws in words)
        pa, pb, pc = (Polynomial.monomial(t, n=2) for t in (a, b, c))
        entangle = mul(mul(pa, SUCC, pb), PREC, pc) - mul(pa, SUCC, mul(pb, PREC, pc))
        left_split = (
            mul(mul(pa, PREC, pb), PREC, pc)
            - mul(pa, PREC, mul(pb, PREC, pc))
            - mul(pa, PREC, mul(pb, SUCC, pc))
        )
        right_split = (
            mul(pa, SUCC, mul(pb, SUCC, pc))
            - mul(mul(pa, SUCC, pb), SUCC, pc)
            - mul(mul(pa, PREC, pb), SUCC, pc)
        )
        ok = ok and normal_form(entangle).is_zero
        ok = ok and normal_form(left_split).is_zero
        ok = ok and normal_form(right_split).is_zero
        checked += 1
    return ok, {"triples": checked}


def criterion_6_entanglement_identity():
    """Entanglement identity exact on 500 seeded triples."""
    rng = random.Random(93)
    ok = True
    for i in range(500):
        n = (1, 2, 3)[i % 3]
        u = sample_normal_word(rng, 5, n)
        v = sample_normal_word(rng, 5, n)
        w = sample_normal_word(rng, 5, n)
        pu, pv, pw = (Polynomial.monomial(t, n=n) for t in (u, v, w))
        ok = ok and mul(mul(pu, SUCC, pv), PREC, pw) == mul(pu, SUCC, mul(pv, PREC, pw))
    return ok, {"triples": 500}


def criterion_7_series_decomposition():
    """Subspace series satisfy both functional equations to degree 30."""
    ok = True
    m_max = 30
    for n in (1, 2, 3):
        a, b, c = abc_series(m_max, n)
        total = series_from_gf(m_max, n)
        ok = ok and b == a
        mix = [2 * a.coefficient(m) + c.coefficient(m) for m in range(1, m_max + 1)]
        inner = list(mix)
        inner[0] += n
        square = [Fraction(0)] * m_max
        for i in range(1, m_max + 1):
            for j in range(1, m_max + 1 - i):
                square[i + j - 1] += inner[i - 1] * inner[j - 1]
        for m in range(1, m_max + 1):
            first_rhs = Fraction(n**2 if m == 2 else 0) + (n * mix[m - 2] if m >= 2 else 0)
            second_rhs = n * square[m - 2] if m >= 2 else Fraction(0)
            ok = ok and a.coefficient(m) == first_rhs
            ok = ok and c.coefficient(m) == second_rhs
            degree_one = n if m == 1 else 0
            ok = ok and degree_one + a.coefficient(m) + b.coefficient(m) + c.coefficient(m) == total.coefficient(m)
    return ok, {}


def criterion_8_growth_divergence():
    """Growth statistic strictly increases over 10^2, 10^3, 10^4, 10^6 and 10^9 and exceeds 10.

    The values come from gk_statistic's certified enclosure of ln dim, so
    the degrees go far beyond the exact dimension's reach.
    """
    degrees = (10**2, 10**3, 10**4, 10**6, 10**9)
    values = [gk_statistic(d, 1).value for d in degrees]
    ok = all(a < b for a, b in zip(values, values[1:])) and max(values) > 10
    return ok, {f"gk({d},1)": str(v) for d, v in zip(degrees, values)}


def family_census():
    """Every inclusion family and both right multiplications occur by degree 6 over two generators."""
    census = coverage_audit(6, 2)
    families = [f"inclusion:{outer.name}/{inner.name}" for outer in RuleId for inner in RuleId]
    families += ["right_mult:F2", "right_mult:F3"]
    ok = all(census.get(family, 0) > 0 for family in families)
    return ok, dict(sorted(census.items()))


def _leaf_sequence(w) -> tuple[int, ...]:
    """Generator indexes of the leaves of w, left to right."""
    leaves = []
    stack = [w]
    while stack:
        u = stack.pop()
        if u.op is None:
            leaves.append(u.index)
        else:
            stack.append(u.right)
            stack.append(u.left)
    return tuple(leaves)


def _collapser():
    """kappa: the map sending every generator to x1, memoized per subword."""
    x1 = generator(1)
    memo = {}

    def kappa(w):
        if w.op is None:
            return x1
        out = memo.get(w)
        if out is None:
            out = memo[w] = node(w.op, kappa(w.left), kappa(w.right))
        return out

    return kappa


def planar_grading():
    """Words, relations and compositions split into leaf-sequence blocks, and kappa is faithful on each.

    kappa sends every generator to x1.  Over (<=5,2) and (<=4,3): every
    F1/F2 relation row and every basis-check composition (F3's too) lies
    in one block (the leaf sequence of its bound word); every block is a
    copy of the degree's words over x1 under kappa; normal_form keeps each
    word in its block and commutes with kappa; and within each block
    compare(u, v) == compare(kappa u, kappa v) for every ordered pair.
    The relation rows of each degree fill all n^m blocks, and each block's
    rows have the rank of the rows over x1.  This is what lets the basis
    sweeps and quotient_dim run over x1 and relabel.
    """
    kappa = _collapser()
    counts = dict.fromkeys(
        ("blocks", "unfaithful_blocks", "order_pairs", "order_mismatches", "normal_forms",
         "normal_form_mismatches", "relation_rows", "row_blocks", "rank_mismatches", "compositions", "off_block"),
        0,
    )
    for max_degree, n in ((5, 2), (4, 3)):
        for m in range(1, max_degree + 1):
            ones = enumerate_normal_lwords(m, 1)
            at = {w: i for i, w in enumerate(ones)}
            table = [[compare(a, b) for b in ones] for a in ones]
            blocks: dict[tuple[int, ...], list] = {}
            for w in enumerate_normal_lwords(m, n):
                blocks.setdefault(_leaf_sequence(w), []).append(w)
            counts["blocks"] += len(blocks)
            for block in blocks.values():
                positions = [at[kappa(w)] for w in block]
                counts["unfaithful_blocks"] += len(block) != len(ones) or len(set(positions)) != len(ones)
                for u, i in zip(block, positions):
                    row = table[i]
                    for v, j in zip(block, positions):
                        counts["order_mismatches"] += compare(u, v) != row[j]
                counts["order_pairs"] += len(block) ** 2
            for sequence, block in blocks.items():
                for w in block:
                    nf = normal_form(Polynomial.monomial(w, n=n))
                    counts["off_block"] += sum(_leaf_sequence(t) != sequence for t in nf._terms)
                    collapsed = Polynomial(1, [(kappa(t), c) for t, c in nf._terms.items()])
                    counts["normal_form_mismatches"] += collapsed != normal_form(Polynomial.monomial(kappa(w)))
                    counts["normal_forms"] += 1
            if m >= 3:
                matrix = build_relation_matrix(m, n)
                sequences = [_leaf_sequence(w) for w in matrix.words]
                row_blocks: dict[tuple[int, ...], list] = {}
                for row in matrix.rows:
                    spanned = {sequences[c] for c in row}
                    counts["off_block"] += len(spanned) != 1
                    if len(spanned) == 1:
                        row_blocks.setdefault(spanned.pop(), []).append(row)
                counts["relation_rows"] += len(matrix.rows)
                # A block without rows has rank 0, below the x1 rank.
                rank = build_relation_matrix(m, 1).rank
                counts["row_blocks"] += len(row_blocks)
                counts["rank_mismatches"] += n**m - len(row_blocks)
                counts["rank_mismatches"] += sum(len(row_echelon(rows)) != rank for rows in row_blocks.values())
        for rule, bindings, v in _right_mult_instances(max_degree, n):
            sequence = sum(map(_leaf_sequence, bindings), ()) + _leaf_sequence(v)
            composition = mul(rule_polynomial(rule, bindings, n=n), PREC, Polynomial.monomial(v, n=n))
            counts["off_block"] += sum(_leaf_sequence(t) != sequence for t in composition._terms)
            counts["compositions"] += 1
        for w, r1, r2 in _redex_pairs(_normal_words_from_degree_3(max_degree, n)):
            sequence = _leaf_sequence(w)
            composition = rewrite_step(w, r1, n=n) - rewrite_step(w, r2, n=n)
            counts["off_block"] += sum(_leaf_sequence(t) != sequence for t in composition._terms)
            counts["compositions"] += 1
    ok = not any(
        counts[k] for k in ("unfaithful_blocks", "order_mismatches", "normal_form_mismatches", "rank_mismatches", "off_block")
    )
    return ok, counts


CHECKS = (
    criterion_1_dimension_formula_three_ways,
    criterion_2_seed_dimensions,
    criterion_3_oracle_quotient,
    criterion_4_basis_verification,
    criterion_5_rewrite_soundness,
    criterion_6_entanglement_identity,
    criterion_7_series_decomposition,
    criterion_8_growth_divergence,
    family_census,
    planar_grading,
)

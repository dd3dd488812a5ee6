import hashlib
import random

from dendriform import audit, series, terms
from dendriform.audit import criterion_7_series_decomposition, sample_normal_word


def test_entanglement_sampler_draws_are_pinned():
    # The 1,500 words criterion 6 draws for seed 93: a different draw would
    # silently change the criterion's sample.
    rng = random.Random(93)
    words = [str(sample_normal_word(rng, 5, (1, 2, 3)[i // 3 % 3])) for i in range(1500)]
    assert words[:3] == ["(x1 > (x1 > (x1 > x1)))", "((x1 < (x1 > x1)) > (x1 > x1))", "x1"]
    digest = hashlib.sha256("\n".join(words).encode()).hexdigest()
    assert digest == "e6193adc9dbdaa22f5ee70561709527b0de5f93e583b1932d9f6b945541a7a00"


def test_series_decomposition_fails_on_a_wrong_b(monkeypatch):
    # B comes from the shape recursion, A from the square-root expansion, so
    # a wrong shape count must make criterion 7 fail.
    shape_count = series.f_recursive
    monkeypatch.setattr(series, "f_recursive", lambda m: shape_count(m) + (m == 4))
    assert criterion_7_series_decomposition() == (False, {})


def test_planar_grading_fails_on_a_label_dependent_order(monkeypatch):
    # An order that reverses itself on words using x2 or x3 still ranks the
    # words over x1 as before, so kappa no longer preserves it in the blocks
    # with a leaf other than x1.
    real = terms.compare

    def label_dependent(u, v):
        flip = terms.max_generator_index(u) > 1
        return -real(u, v) if flip else real(u, v)

    monkeypatch.setattr(audit, "compare", label_dependent)
    ok, counts = audit.planar_grading()
    assert not ok
    assert counts["order_mismatches"] > 0

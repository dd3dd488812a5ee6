import hashlib
import random

from dendriform.audit import sample_normal_word


def test_entanglement_sampler_draws_are_pinned():
    # The 1,500 words criterion 6 draws for seed 93: a different draw would
    # silently change the criterion's sample.
    rng = random.Random(93)
    words = [str(sample_normal_word(rng, 5, (1, 2, 3)[i // 3 % 3])) for i in range(1500)]
    assert words[:3] == ["(x1 > (x1 > (x1 > x1)))", "((x1 < (x1 > x1)) > (x1 > x1))", "x1"]
    digest = hashlib.sha256("\n".join(words).encode()).hexdigest()
    assert digest == "e6193adc9dbdaa22f5ee70561709527b0de5f93e583b1932d9f6b945541a7a00"

"""Acceptance suite: one test per check of ``dendriform.audit.CHECKS``.

The criteria, with their degree bounds and seeds, are defined once in
``dendriform/audit.py``; ``dendriform audit`` runs the same tuple and prints
one PASS/FAIL line per check.  Each test is named ``test_`` plus its check's
name, so a failure reads as the claim that failed.
"""

from dendriform import audit


def _acceptance_test(check):
    def test():
        ok, counts = check()
        assert ok, f"{check.__name__} failed: {check.__doc__} {counts}"

    test.__name__ = test.__qualname__ = f"test_{check.__name__}"
    return test


for _check in audit.CHECKS:
    globals()[f"test_{_check.__name__}"] = _acceptance_test(_check)

"""The left-symmetric scan over the pairs i < j, against the scan over i != j.

LS(i, j, k) = (b_i b_j) b_k - b_i (b_j b_k) - (b_j b_i) b_k + b_j (b_i b_k) is
-LS(j, i, k), so the first failing triple in lexicographic order has i < j,
and `check_left_symmetric` scans only those pairs.  This module keeps the scan
of every pair i != j as `oracle_check_left_symmetric` and compares verdicts
and witnesses on the seeded tables of `tests/test_identity_generators_oracle.py`
(random tables, group and matrix-unit algebras, in their own and in a random
basis, their one-constant perturbations and zero-product tables), on
left-symmetric tables that are not associative (the affine line, the alpha
family and the half-plane six-field table) and on their perturbations.
Passing tables, failing tables and tables whose first failure is at the
last j all occur.
"""
import random

import pytest

from flataffine import check_associative, check_left_symmetric
from flataffine.algebra import CheckReport, _first_failure
from helpers import aff_line_lsa, alpha_family, perturbed, six_field_table_algebra
from test_identity_generators_oracle import CASES as IDENTITY_CASES


def oracle_check_left_symmetric(A):
    """The scan of every basis pair (i, j) with i != j, each for every k at once."""
    n = A.dim
    witness = _first_failure(A, ((i, j) for i in range(n) for j in range(n) if i != j),
                             lambda s, neg, i, j: (s[i][j] + neg[j][i],
                                                   ((neg[i], j), (s[j], i)), 0))
    return CheckReport(witness is None, witness)


def inputs():
    yield from IDENTITY_CASES.items()
    lsa = [("aff-line", aff_line_lsa()), ("six-field", six_field_table_algebra())]
    lsa += [(f"alpha-{alpha}", alpha_family(alpha)) for alpha in (-1, 0, 2, 3)]
    for name, A in lsa:
        yield name, A
        rng = random.Random(f"perturbed-lsa-{name}")
        for seed in range(3):
            yield f"{name}-perturbed-{seed}", perturbed(rng, A, fractional=seed == 2)


CASES = dict(inputs())


@pytest.mark.parametrize("name, A", CASES.items(), ids=list(CASES))
def test_the_scan_over_i_below_j_matches_the_scan_over_i_not_j(name, A):
    report = check_left_symmetric(A)
    assert report == oracle_check_left_symmetric(A)
    if not report.holds:
        i, j, _ = report.witness
        assert i < j


def test_the_cases_reach_every_kind_of_verdict():
    reports = {name: oracle_check_left_symmetric(A) for name, A in CASES.items()}
    passing = [name for name, r in reports.items() if r.holds]
    late = [name for name, r in reports.items()
            if not r.holds and CASES[name].dim > 2 and r.witness[1] == CASES[name].dim]
    assert len(passing) >= 30 and len(reports) - len(passing) >= 40
    # the first failure at the last j, so the scan reads past every earlier pair
    assert len(late) >= 5
    # left-symmetric tables that are not associative pass too
    assert any(not check_associative(CASES[name]).holds for name in passing)

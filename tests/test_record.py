"""The result records: their construction checks, their contract as
immutable values, and an import of the CLI that loads no dataclasses."""

from __future__ import annotations

import copy
import inspect
import os
import pickle
import re
import subprocess
import sys

import pytest

import polya
from polya.arith import Factorization, factor
from polya.biquad import (BiquadraticField, LericheVerdict, biquadratic_field,
                          leriche_classify, polya_report, ramification)
from polya.quadratic import (FundamentalUnit, NormEquationSolution, UnitSplit, cf_expand,
                             dirichlet_norm_criterion, epsilon_decomposition,
                             fundamental_unit, norm_equation, period_invariants,
                             zantema_classify)
from polya.sqclass import SquareClass, class_of
from polya.verify import (T3, ContrastReport, check_hypotheses, contrast_rajaei,
                          verify_theorem)

# One record of each result type, built by the function that returns it.
SAMPLES = {
    "Factorization": lambda: factor(360),
    "SquareClass": lambda: class_of(-12),
    "ContinuedFraction": lambda: cf_expand(13),
    "FundamentalUnit": lambda: fundamental_unit(85),
    "UnitSplit": lambda: epsilon_decomposition(15),
    "PeriodInvariants": lambda: period_invariants(34),
    "NormEquationSolution": lambda: norm_equation(7, 2),
    "ZantemaVerdict": lambda: zantema_classify(85),
    "DirichletReport": lambda: dirichlet_norm_criterion(5, 13),
    "BiquadraticField": lambda: biquadratic_field(2, 85),
    "RamificationProfile": lambda: ramification(biquadratic_field(2, 85)),
    "PolyaReport": lambda: polya_report(biquadratic_field(2, 85)),
    "LericheVerdict": lambda: leriche_classify(2, 5),
    "HypothesisReport": lambda: check_hypotheses(T3, (5, 17)),
    "TheoremReport": lambda: verify_theorem("T3", (5, 17)),
    "ContrastReport": lambda: contrast_rajaei(3, 7, 5),
}


def _fields(record) -> dict:
    return {name: getattr(record, name) for name in type(record).__slots__}


def _with(record, **changes):
    """A record of the same type with some fields changed, built by keyword."""
    return type(record)(**{**_fields(record), **changes})


def _report():
    return polya_report(biquadratic_field(2, 85))   # h 4, index 1, h1 4, po 2, product 8


def _theorem():
    return verify_theorem("T3", (5, 17))             # po order 2, claim matches


# One case per construction check: each input breaks that check alone, so
# the case fails if the check is dropped, and the message names the check.
CONSTRUCTION_CHECKS = [
    pytest.param(lambda: Factorization(12, ((3, 1), (2, 2))),
                 "factors must have strictly increasing primes and exponents >= 1",
                 id="Factorization-order"),
    pytest.param(lambda: Factorization(1, ((2, 0),)),
                 "factors must have strictly increasing primes and exponents >= 1",
                 id="Factorization-exponent"),
    pytest.param(lambda: Factorization(7, ((2, 1), (3, 1))),
                 "factor list does not multiply back to 7",
                 id="Factorization-product"),
    pytest.param(lambda: SquareClass(0, 5),
                 "sign must be +1 or -1",
                 id="SquareClass-sign"),
    pytest.param(lambda: SquareClass(1, -5),
                 "kernel must be a positive integer",
                 id="SquareClass-kernel"),
    pytest.param(lambda: SquareClass(1, 12),
                 "kernel 12 is divisible by 2^2",
                 id="SquareClass-square"),
    pytest.param(lambda: FundamentalUnit(3, -2, 1, 1, 1),
                 "malformed unit",
                 id="FundamentalUnit-z"),
    pytest.param(lambda: FundamentalUnit(3, 2, -1, 1, 1),
                 "malformed unit",
                 id="FundamentalUnit-t"),
    pytest.param(lambda: FundamentalUnit(3, 8, 4, 4, 1),
                 "malformed unit",
                 id="FundamentalUnit-denom"),
    pytest.param(lambda: FundamentalUnit(3, 3, 1, 1, 6),
                 "malformed unit",
                 id="FundamentalUnit-norm"),
    pytest.param(lambda: FundamentalUnit(3, 2, 2, 1, 1),
                 "unit fails its norm equation",
                 id="FundamentalUnit-equation"),
    pytest.param(lambda: FundamentalUnit(3, 4, 2, 2, 1),
                 "half-integral unit outside the ring of integers",
                 id="FundamentalUnit-ring"),
    pytest.param(lambda: UnitSplit(2, fundamental_unit(2), 1, 1, 0, 2, 1),
                 "unit split needs norm +1",
                 id="UnitSplit-norm"),
    pytest.param(lambda: _with(epsilon_decomposition(15), d=30),
                 "epsilon * eta must equal d",
                 id="UnitSplit-d"),
    pytest.param(lambda: _with(epsilon_decomposition(15), m=2),
                 "epsilon side fails",
                 id="UnitSplit-epsilon-side"),
    pytest.param(lambda: _with(epsilon_decomposition(15), n=2),
                 "eta side fails",
                 id="UnitSplit-eta-side"),
    pytest.param(lambda: NormEquationSolution(3, 1, 8, 4, 4),
                 "denom must be 1 or 2",
                 id="NormEquationSolution-denom"),
    pytest.param(lambda: NormEquationSolution(3, 1, 2, 2, 1),
                 "claimed solution fails the norm equation",
                 id="NormEquationSolution-equation"),
    pytest.param(lambda: NormEquationSolution(3, 1, 4, 2, 2),
                 "half-integral solution outside the ring of integers",
                 id="NormEquationSolution-ring"),
    pytest.param(lambda: BiquadraticField(1, 5, (5,)),
                 "kernels must be squarefree integers other than 0 and 1",
                 id="BiquadraticField-kernel"),
    pytest.param(lambda: BiquadraticField(6, 10, (3, 2, 5)),
                 "primes must be distinct primes, ascending",
                 id="BiquadraticField-order"),
    pytest.param(lambda: BiquadraticField(15, 2, (2, 15)),
                 "primes must be distinct primes, ascending",
                 id="BiquadraticField-prime"),
    pytest.param(lambda: BiquadraticField(6, 10, (2, 3)),
                 "primes do not match m and n",
                 id="BiquadraticField-primes"),
    pytest.param(lambda: BiquadraticField(6, 6, (2, 3)),
                 "m and n must generate distinct quadratic fields",
                 id="BiquadraticField-same-field"),
    pytest.param(lambda: _with(_report(), index_factor=2),
                 "index bookkeeping violated",
                 id="PolyaReport-index"),
    pytest.param(lambda: _with(_report(), po_order=1),
                 "exact sequence arithmetic violated",
                 id="PolyaReport-exact-sequence"),
    pytest.param(lambda: _with(_theorem(), claim_matches=False),
                 "claim_matches must mirror po_order == 2",
                 id="TheoremReport-claim"),
    pytest.param(lambda: _with(_theorem(), field_report=None, epsilon_witness=None,
                           epsilon_in_allowed_set=None),
                 "claim_matches requires a field report",
                 id="TheoremReport-no-field"),
]


@pytest.mark.parametrize(("build", "message"), CONSTRUCTION_CHECKS)
def test_construction_check_rejects_a_bad_value(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("name", SAMPLES)
def test_record_fields_are_the_constructor_parameters(name):
    record = SAMPLES[name]()
    cls = type(record)
    assert cls.__name__ == name
    assert tuple(inspect.signature(cls).parameters) == cls.__slots__
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", SAMPLES)
def test_record_rejects_assignment_and_deletion(name):
    record = SAMPLES[name]()
    before = _fields(record)
    for field in before:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert _fields(record) == before


@pytest.mark.parametrize("name", SAMPLES)
def test_equal_fields_give_equal_records_and_hashes(name):
    record = SAMPLES[name]()
    values = _fields(record)
    by_position = type(record)(*values.values())
    by_keyword = type(record)(**values)
    for twin in (by_position, by_keyword, SAMPLES[name](), copy.copy(record),
                 copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and not twin != record
        assert hash(twin) == hash(record)
        assert repr(twin) == repr(record)
    assert record != tuple(values.values())
    assert repr(record).startswith(f"{name}(")


def test_records_differ_in_one_field_or_in_their_type():
    assert SquareClass(1, 5) != SquareClass(1, 6)
    assert SquareClass(1, 5) != SquareClass(-1, 5)
    assert len({SquareClass(1, 5), SquareClass(1, 5), SquareClass(-1, 5)}) == 2
    report = _report()
    assert _with(report, po_structure="other") != report
    assert fundamental_unit(85) != fundamental_unit(13)
    # records of two types are never equal, even with equal fields
    assert LericheVerdict(2, 5, "Polya", "r") != ContrastReport(2, 5, "Polya", "r")


def test_cli_import_loads_no_dataclasses():
    # modules that click itself loads are taken before the snapshot, so a
    # click that imports dataclasses does not fail this test
    code = ("import sys, click\n"
            "before = set(sys.modules)\n"
            "import polya.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    src = os.path.dirname(os.path.dirname(polya.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    assert "polya.cli" in out
    assert "dataclasses" not in out

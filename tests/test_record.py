"""The result records: their construction checks, their contract as
immutable values, the binding of arguments to fields, and imports of the
package and the CLI that load no dataclasses."""

from __future__ import annotations

import copy
import importlib
import inspect
import os
import pickle
import pkgutil
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
from polya.record import Record
from polya.sqclass import SquareClass, class_of
from polya.verify import (FAMILIES, T3, ContrastReport, check_hypotheses, contrast_rajaei,
                          verify_theorem)

# One record of each result type, built by the function that returns it, or
# for a Family, declared in FAMILIES.
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
    "Family": lambda: FAMILIES["T1"],
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
    pytest.param(lambda: UnitSplit(15, 3, 3, 1, 1, 5, 3),
                 "unit split denom must be 1 or 2",
                 id="UnitSplit-denom"),
    pytest.param(lambda: _with(epsilon_decomposition(15), d=30),
                 "epsilon * eta must equal d",
                 id="UnitSplit-d"),
    # 4 + sqrt(15) splits as (denom, g, m, n) = (1, 1, 1, 1); each change
    # below breaks the norm +1 equation of the unit the split spells
    pytest.param(lambda: _with(epsilon_decomposition(15), g=2),
                 "split fails g*(m^2*epsilon - n^2*eta) = 2*denom",
                 id="UnitSplit-norm"),
    pytest.param(lambda: _with(epsilon_decomposition(15), m=2),
                 "split fails g*(m^2*epsilon - n^2*eta) = 2*denom",
                 id="UnitSplit-epsilon-side"),
    pytest.param(lambda: _with(epsilon_decomposition(15), n=2),
                 "split fails g*(m^2*epsilon - n^2*eta) = 2*denom",
                 id="UnitSplit-eta-side"),
    # 8^2 - 15*2^2 = 4: (62 + 16*sqrt(15))/2 has norm +1 but is no fundamental split
    pytest.param(lambda: UnitSplit(15, 2, 1, 8, 2, 1, 15),
                 "m and n must be coprime",
                 id="UnitSplit-coprime"),
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


def _record_classes() -> set[type]:
    """Every Record subclass defined in the package, each module imported."""
    for module in pkgutil.iter_modules(polya.__path__, "polya."):
        importlib.import_module(module.name)
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("polya."):
                found.add(cls)
    return found


def test_samples_cover_every_record_type():
    assert sorted(SAMPLES) == sorted(cls.__name__ for cls in _record_classes())


def test_no_record_type_writes_its_own_init():
    assert all("__init__" not in vars(cls) for cls in _record_classes())


def _written(name):
    """A function with a written signature of the fields of SAMPLES[name],
    the reference for how a record binds its arguments."""
    scope: dict = {}
    exec(f"def written({', '.join(type(SAMPLES[name]()).__slots__)}): pass", scope)
    return scope["written"]


# Each call breaks the binding of a sample's fields, given as the tuple
# args and the dict kw, once: a field missing, given twice or not a field,
# with all the fields passed by position or by keyword.
BAD_CALLS = [
    pytest.param(lambda args, kw: (args[:-1], {}), id="missing-by-position"),
    pytest.param(lambda args, kw: ((), dict(list(kw.items())[1:])), id="missing-by-keyword"),
    pytest.param(lambda args, kw: (args, dict(list(kw.items())[-1:])),
                 id="repeated-by-position"),
    pytest.param(lambda args, kw: (args[:1], kw), id="repeated-by-keyword"),
    pytest.param(lambda args, kw: ((*args, None), {}), id="unknown-by-position"),
    pytest.param(lambda args, kw: ((), {**kw, "extra": None}), id="unknown-by-keyword"),
]


@pytest.mark.parametrize("bad_call", BAD_CALLS)
def test_a_bad_binding_raises_type_error_as_a_written_signature_does(bad_call):
    for name in SAMPLES:
        record = SAMPLES[name]()
        kw = _fields(record)
        args, kwargs = bad_call(tuple(kw.values()), kw)
        with pytest.raises(TypeError):
            _written(name)(*args, **kwargs)
        with pytest.raises(TypeError):
            type(record)(*args, **kwargs)


@pytest.mark.parametrize("name", SAMPLES)
def test_positional_and_keyword_fields_bind_in_slot_order(name):
    record = SAMPLES[name]()
    values = list(_fields(record).items())
    for split in range(len(values) + 1):
        head, tail = values[:split], dict(values[split:])
        assert type(record)(*(v for _, v in head), **tail) == record


def test_copy_and_pickle_rerun_the_checks_that_known_skips():
    # _known builds a class without factoring its kernel, so it takes 289 =
    # 17^2; rebuilding it through __init__ runs the check again
    unchecked = SquareClass._known(1, 289)
    assert unchecked.kernel == 289
    for rebuild in (copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))):
        with pytest.raises(ValueError, match="^kernel 289 is divisible by 17\\^2$"):
            rebuild(unchecked)


def _new_modules(setup: str, statement: str) -> list[str]:
    """The modules a fresh interpreter loads for `statement` after `setup`."""
    code = (f"import sys\n{setup}\n"
            "before = set(sys.modules)\n"
            f"{statement}\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    src = os.path.dirname(os.path.dirname(polya.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout.split()


def test_cli_import_loads_no_dataclasses():
    out = _new_modules("", "import polya.cli")
    assert "polya.cli" in out
    assert "click" not in out
    assert "dataclasses" not in out and "inspect" not in out


def test_package_import_loads_neither_dataclasses_nor_inspect():
    # a record's signature is built when asked for, so inspect stays unloaded
    out = _new_modules("", "import polya")
    assert "polya.record" in out
    assert "click" not in out
    assert "dataclasses" not in out and "inspect" not in out

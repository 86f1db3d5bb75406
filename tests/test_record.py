"""Value classes: frozen-dataclass semantics without the dataclasses module.

Each class built on gkspec._record.Record is compared with a test-local
frozen dataclass of the same name and fields, the semantics it replaced.
"""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gkspec
from gkspec import _record, atlasdb
from gkspec.atlasdb import CrosscheckReport, FilterResult, GroupRecord
from gkspec._record import Record
from gkspec.gf import FieldElement, FiniteField, make_field, subgroup_generator
from gkspec.groups import GammaSemilinearGroup, build_gamma_frobenius
from gkspec.linact import GFMatrix, LinearAction
from gkspec.orderset import Factorization, OrderSet
from gkspec.primegraph import PrimeGraph
from gkspec.verify import CheckResult, VerificationReport


def _values(obj, fields):
    return tuple(getattr(obj, name) for name in fields)


def _cases():
    """(class, fields, args, other args, a _replace change, derived attributes)."""
    f, f3 = make_field(3, 4), make_field(3, 1)
    u = subgroup_generator(f, 5)
    by_name = {r.name: r for r in atlasdb.load()}
    record_fields = ("name", "pi", "order", "mu", "has9", "has25", "notes")
    gamma, gamma2 = build_gamma_frobenius(2, 4, 5, 4), build_gamma_frobenius(2, 4, 3, 4)
    gamma_fields = ("field", "kernel_generator", "actions", "frobenius_config")
    check = CheckResult("db.load", "[atlas]", "pass", "16 records")
    return [
        (GroupRecord, record_fields, _values(by_name["L2(23)"], record_fields),
         _values(by_name["M23"], record_fields), {"has9": None}, ()),
        (FilterResult, ("matches", "insufficient"), ((("M23", (11, 23)),), ("J4",)), ((), ()),
         {"insufficient": ()}, ()),
        (CrosscheckReport, ("name", "status", "detail"), ("L2(23)", "verified", "matches"),
         ("J4", "cited", "no oracle"), {"status": "cited"}, ()),
        (FiniteField, ("p", "k", "modulus"), (3, 4, f.modulus), (3, 1, f3.modulus),
         {"modulus": (2, 0, 0, 1, 1)}, ("order", "_frobenius_tables")),
        (FieldElement, ("field", "value"), (f, u.value), (f3, 2), {"value": 1}, ()),
        (GammaSemilinearGroup, gamma_fields, _values(gamma, gamma_fields),
         _values(gamma2, gamma_fields), {"frobenius_config": not gamma.frobenius_config}, ()),
        (GFMatrix, ("p", "rows"), (2, ((1, 0), (1, 1))), (3, ((1,),)), {"p": 5}, ()),
        (LinearAction, ("field", "mult", "galois_exp"), (f, u, 1), (f, u, 0),
         {"galois_exp": 2}, ("_plan",)),
        (Factorization, ("pairs",), (((2, 3), (3, 1)),), (((5, 2),),), {"pairs": ((7, 1),)}, ()),
        (OrderSet, ("maximal_elements",), ((4, 6),), ((5,),), {"maximal_elements": (2, 9)},
         ("_factored",)),
        (PrimeGraph, ("vertices", "edges"), ((2, 3, 5), frozenset({(2, 3)})),
         ((2,), frozenset()), {"edges": frozenset()}, ()),
        (CheckResult, ("check_id", "citation", "status", "detail"),
         ("db.load", "[atlas]", "pass", "16 records"), ("db.lemma8", "[L8]", "fail", "x"),
         {"status": "fail"}, ()),
        (VerificationReport, ("results",), ((check,),), ((),), {"results": ()}, ()),
    ]


CASES = _cases()


@pytest.mark.parametrize("case", CASES, ids=[case[0].__name__ for case in CASES])
def test_value_class_behaves_as_a_frozen_dataclass(case):
    cls, fields, args, other_args, change, derived = case
    ref_cls = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    x, twin, other, ref = cls(*args), cls(*args), cls(*other_args), ref_cls(*args)
    assert cls(**dict(zip(fields, args))) == x

    assert repr(x) == repr(ref)
    assert hash(x) == hash(ref) == hash(twin)
    assert x == twin and x is not twin and not x != twin and x != other and not x == other
    assert repr(cls(*other_args)) == repr(ref_cls(*other_args))
    # equality only within a class
    assert x.__eq__(ref) is NotImplemented and x != ref and ref != x and x != args

    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert _values(x, fields) == args

    # derived state takes no part in equality, hash or repr
    for name in derived:
        assert name not in fields
        getattr(x, name)
    assert x == twin and twin == x and hash(x) == hash(twin) and repr(x) == repr(ref)

    for clone in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert clone.__class__ is cls and clone == x and repr(clone) == repr(ref)
        assert all(getattr(clone, name) == getattr(x, name) for name in derived)

    fresh = x._replace()
    assert fresh == x and fresh is not x
    # the values a derived descriptor fills on first read start unfilled
    lazy = {name for name in derived if isinstance(getattr(cls, name, None), _record.derived)}
    assert not lazy & getattr(fresh, "__dict__", {}).keys()
    assert repr(x._replace(**change)) == repr(dataclasses.replace(ref, **change))
    with pytest.raises(TypeError):
        x._replace(other=None)


@pytest.mark.parametrize("case", CASES, ids=[case[0].__name__ for case in CASES])
def test_constructor_rejects_missing_extra_repeated_and_unknown_fields(case):
    cls, fields, args, *_ = case
    bad_calls = [
        (args[:-1], {}),  # missing
        ((*args, None), {}),  # extra
        (args, {fields[0]: args[0]}),  # repeated
        (args, {"other": None}),  # unknown
        (args[:-1], {"other": None}),  # unknown in place of the last
    ]
    if len(fields) > 1:
        bad_calls.append((args[:-1], {fields[0]: args[0]}))  # repeated in place of the last
    for bad_args, bad_kwargs in bad_calls:
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)


def _gkspec_modules():
    return [
        importlib.import_module(f"gkspec.{module.name}")
        for module in pkgutil.iter_modules(gkspec.__path__)
    ]


def test_every_record_constructor_takes_its_fields_in_order(monkeypatch):
    # _replace calls the constructor with every field by name, and no caller
    # leaves a field out; only the three hot-path classes write an __init__
    classes, todo = set(), [Record]
    _gkspec_modules()
    while todo:
        sub = todo.pop().__subclasses__()
        classes.update(sub)
        todo += sub
    assert classes == {case[0] for case in CASES}
    own = {cls for cls in classes if "__init__" in vars(cls)}
    assert own == {FieldElement, LinearAction, PrimeGraph}
    for cls in own:
        assert cls.__init__.__defaults__ is None, cls
        assert list(inspect.signature(cls.__init__).parameters) == ["self", *cls._fields], cls
    for cls in classes - own:
        assert cls.__init__ is Record.__init__, cls
        calls = []
        monkeypatch.setattr(cls, "_post_init", lambda self: calls.append(self._astuple()))
        values = tuple(range(len(cls._fields)))
        positional = cls(*values)
        by_name = cls(**dict(zip(cls._fields, values)))
        assert positional._astuple() == by_name._astuple() == values
        assert calls == [values, values], cls
        positional._replace(**{cls._fields[0]: -1})
        assert calls == [values, values, (-1, *values[1:])], cls


def test_process_wide_memos_are_the_named_four():
    # a memo added to the library is named here, with its measured worth
    # in CHANGES.md
    namespaces = [vars(module) for module in _gkspec_modules()]
    namespaces += [vars(v) for ns in namespaces for v in ns.values() if isinstance(v, type)]
    memos = {name for ns in namespaces for name, fn in ns.items() if hasattr(fn, "cache_info")}
    assert memos == {"make_field", "_order_plan", "psl2_spectrum", "build_remark_group"}


def test_value_classes_never_equal_across_classes():
    values = [cls(*args) for cls, _, args, *_ in CASES]
    for a in values:
        for b in values:
            assert (a == b) is (a is b) and (a != b) is (a is not b)
    # not even with equal field values
    assert VerificationReport((4, 6)) != OrderSet((4, 6))
    assert not VerificationReport((4, 6)) == OrderSet((4, 6))


def test_replace_validates_afresh():
    l2_23 = atlasdb.record(atlasdb.load(), "L2(23)")
    with pytest.raises(atlasdb.RecordError, match="name must be a single token"):
        l2_23._replace(name="L2 (23)")
    with pytest.raises(atlasdb.RecordError, match="pi does not match the primes of order"):
        l2_23._replace(pi=(2, 3, 11))
    with pytest.raises(ValueError, match="4 is not prime"):
        Factorization(((2, 3), (3, 1)))._replace(pairs=((2, 1), (4, 1)))
    with pytest.raises(ValueError, match="primes must be strictly increasing"):
        Factorization(((2, 3), (3, 1)))._replace(pairs=((3, 1), (2, 3)))
    with pytest.raises(ValueError, match="not an antichain"):
        OrderSet((4, 6))._replace(maximal_elements=(2, 4))
    f = make_field(3, 4)
    with pytest.raises(ValueError, match="zero multiplier"):
        LinearAction(f, f.one, 0)._replace(mult=f.zero)


def _modules_added(*statements):
    """The modules a bare interpreter (-I -S: no site, no environment) loads
    while it runs the statements, so every one was added by gkspec."""
    src = Path(gkspec.__file__).resolve().parents[1]
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(src)!r})",
        "before = set(sys.modules)",
        *statements,
        "print(' '.join(sorted(set(sys.modules) - before)))",
    ])
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_cli_and_verify_import_neither_dataclasses_nor_inspect():
    added = _modules_added(
        "import gkspec.cli, gkspec.verify", "gkspec.cli.main(['verify', '--only', 'db'])"
    )
    assert "gkspec.verify" in added
    assert not added & {"dataclasses", "inspect"}


def test_cli_and_verify_import_no_importlib_resources():
    # the embedded corpus is read through the package's loader; the import
    # alone cost about 15 ms of the import of gkspec.cli and gkspec.verify
    added = _modules_added("import gkspec.cli, gkspec.verify")
    assert "gkspec.atlasdb" in added and "importlib.resources" not in added
    added = _modules_added(
        "import gkspec.cli, gkspec.verify", "gkspec.cli.main(['db', 'list'])"
    )
    assert "importlib.resources" not in added

"""The frozen-record behaviour shared by the package's ten value classes."""

import numpy as np
import pytest

from tsvar import (
    ELReport,
    GridFunction,
    KappaKind,
    KappaSet,
    Lagrangian,
    PartialGridFunction,
    PerturbationAudit,
    SolveResult,
    SolverConfig,
    TimeScale,
    VariationalProblem,
    kappa_set,
    parse_lagrangian,
)

SCALE = TimeScale(np.array([0.0, 1.0, 2.0]))
UPPER = kappa_set(SCALE, KappaKind.UPPER)
TRACE = np.array([1.0, 1.0])


def _zero(t, u, v):
    return 0.0


LAGRANGIAN = Lagrangian(_zero, _zero, _zero, "zero")
Y = GridFunction(SCALE, [0.0, 1.0, 2.0])
EL1 = ELReport("EL1", SCALE, kappa_set(SCALE, KappaKind.LOWER), TRACE, 1.0, 0.0, 2.0, 3.0)
EL2 = ELReport("EL2", SCALE, UPPER, TRACE, 1.0, 0.0, 2.0, 3.0)

# Each class with the positional arguments of one instance; two instances
# built from them have the same fields.
ARGS = {
    KappaSet: (KappaKind.FULL, 0, 3),
    TimeScale: ([0.0, 1.0, 2.0],),
    GridFunction: (SCALE, [0.0, 1.0, 2.0]),
    PartialGridFunction: (SCALE, UPPER, [0.5, 1.5]),
    Lagrangian: (_zero, _zero, _zero, "zero", None),
    VariationalProblem: (SCALE, LAGRANGIAN, LAGRANGIAN, 0.0, 1.0),
    ELReport: ("EL1", SCALE, UPPER, TRACE, 1.0, 0.0, 2.0, 3.0),
    SolverConfig: (100, 1e-8, False),
    SolveResult: (Y, 6.0, 0.0, 3, True, EL1, EL2),
    PerturbationAudit: (0.1, 10, 1.0, 1.0, 2.0, 0.0, "local-min evidence"),
}
# The field-compared classes, each with one change that makes a record unequal.
BY_FIELDS = {
    KappaSet: {"stop": 2},
    Lagrangian: {"origin": "other"},
    VariationalProblem: {"beta": 2.0},
    SolverConfig: {"maximize": True},
    PerturbationAudit: {"trials": 11},
}
CLASSES = pytest.mark.parametrize("cls", list(ARGS), ids=lambda cls: cls.__name__)


def _same(a, b) -> bool:
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a is b or a == b


@CLASSES
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = cls(*ARGS[cls])
    for name in cls._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_time_scale_gaps_is_set_but_not_a_field():
    assert TimeScale._fields == ("points",)
    assert np.array_equal(SCALE.gaps, [1.0, 1.0])
    with pytest.raises(AttributeError):
        SCALE.gaps = np.zeros(2)
    assert not SCALE.gaps.flags.writeable and not SCALE.points.flags.writeable


@CLASSES
def test_equality_and_hash(cls):
    a, b = cls(*ARGS[cls]), cls(*ARGS[cls])
    assert a == a and hash(a) == hash(a)
    if cls in BY_FIELDS:
        assert a == b and hash(a) == hash(b)
        assert a.replace(**BY_FIELDS[cls]) != a
    else:
        assert a != b and len({a, b}) == 2
    assert a != tuple(getattr(a, name) for name in cls._fields)


@CLASSES
def test_replace_builds_and_checks_a_new_record(cls):
    record = cls(*ARGS[cls])
    copy = record.replace()
    assert type(copy) is cls and copy is not record
    assert all(_same(getattr(copy, name), getattr(record, name)) for name in cls._fields)
    with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
        record.replace(nope=1)


def test_replace_runs_post_init_again():
    with pytest.raises(ValueError, match="max_iterations must be non-negative"):
        SolverConfig().replace(max_iterations=-1)
    assert SolverConfig().replace(maximize=True) == SolverConfig(maximize=True)
    values = np.array([5.0, 6.0, 7.0])
    y = Y.replace(values=values)
    assert np.array_equal(y.values, values) and y.values is not values
    assert not y.values.flags.writeable
    with pytest.raises(ValueError, match="need one value per point"):
        Y.replace(values=[1.0])


@CLASSES
def test_bad_arguments_raise_type_error(cls):
    args, fields = ARGS[cls], cls._fields
    if len(cls._defaults) < len(fields):  # SolverConfig's fields all have defaults
        with pytest.raises(TypeError, match="missing required argument"):
            cls()
    with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
        cls(*args, nope=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{fields[0]}'"):
        cls(*args, **{fields[0]: args[0]})
    with pytest.raises(TypeError, match=f"takes {len(fields)} arguments but {len(fields) + 1} were given"):
        cls(*args, None)


@CLASSES
def test_keywords_bind_like_positions(cls):
    by_name, by_position = cls(**dict(zip(cls._fields, ARGS[cls]))), cls(*ARGS[cls])
    assert all(_same(getattr(by_name, n), getattr(by_position, n)) for n in cls._fields)


def test_class_attributes_are_defaults():
    assert SolverConfig() == SolverConfig(10000, 1e-10, False)
    assert SolverConfig(5) == SolverConfig(max_iterations=5)
    assert Lagrangian(_zero, _zero, _zero, "zero").program is None


@CLASSES
def test_repr_keeps_the_dataclass_format(cls):
    record = cls(*ARGS[cls])
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in cls._fields)
    assert repr(record) == f"{cls.__name__}({fields})"
    assert repr(KappaSet(KappaKind.FULL, 0, 3)) == "KappaSet(kind=<KappaKind.FULL: 'full'>, start=0, stop=3)"
    assert repr(SolverConfig()) == "SolverConfig(max_iterations=10000, gradient_tolerance=1e-10, maximize=False)"
    assert repr(SCALE) == "TimeScale(points=array([0., 1., 2.]))"


def test_perturbation_audit_to_dict_lists_the_fields_in_order():
    audit = PerturbationAudit(*ARGS[PerturbationAudit])
    assert audit.to_dict() == dict(zip(PerturbationAudit._fields, ARGS[PerturbationAudit]))
    assert list(audit.to_dict()) == ["radius", "trials", "j_reference", "j_min", "j_max", "fraction_below",
                                     "classification"]


def test_cached_properties_still_work_on_a_frozen_problem():
    p = VariationalProblem(SCALE, parse_lagrangian("dy^2"), parse_lagrangian("dy^2 + 1"), 0.0, 1.0)
    assert p._tape is p._tape is not None
    assert "_tape" in vars(p)

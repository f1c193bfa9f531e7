"""The frozen-record contract every record class of the package keeps."""

import pytest

import becnlo
from becnlo import (
    FockSuperposition,
    GridError,
    RadialGrid,
    StoredMode,
    check_conditions,
    compare_tf_vs_gpe,
    derive_scales,
    estimate_lifetime,
    host_problem,
    ns_gate_time,
    sodium_reference_config,
    solve_stored_in_host,
    tf_host,
    validity_report,
)
from becnlo.gpe import StoredComparison, TfGpeComparison

# every public class that is not an exception, plus the oracle's two reports
RECORDS = [
    cls
    for cls in (getattr(becnlo, name) for name in becnlo.__all__)
    if isinstance(cls, type) and not issubclass(cls, Exception)
] + [StoredComparison, TfGpeComparison]


@pytest.fixture(scope="module")
def records():
    """One instance of each record class, built by the package's own functions."""
    config = sodium_reference_config()
    scales = derive_scales(config)
    host = tf_host(config, scales)
    grid = RadialGrid(1.5 * host.radius, 64)
    stored = solve_stored_in_host(config, grid_points=256)
    problem = host_problem(config, scales, grid)
    built = [
        config, scales,
        check_conditions(config, scales, host.mu), host, grid,
        estimate_lifetime(config, scales, host), StoredMode(scales.s),
        FockSuperposition.normalized([1, 1, 1]), ns_gate_time(scales),
        validity_report(config),
        problem, stored, stored.solution,
        compare_tf_vs_gpe(config, grid_points=256),
    ]
    return {type(rec): rec for rec in built}


def test_every_record_class_is_covered(records):
    assert len(RECORDS) == 14
    assert set(records) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(records, cls):
    rec = records[cls]
    names = tuple(cls.__annotations__)
    values = tuple(getattr(rec, name) for name in names)
    kwargs = dict(zip(names, values))

    # binding by position and by keyword; a field left out takes its class attribute
    by_position, by_keyword = cls(*values), cls(**kwargs)
    assert by_position == by_keyword == rec
    required = [name for name in names if name not in cls.__dict__]
    by_default = cls(**{name: kwargs[name] for name in required})
    for name in names[len(required):]:
        assert getattr(by_default, name) == cls.__dict__[name]

    # equality and hashing follow the field tuple; another class is never equal
    assert hash(rec) == hash(by_keyword) == hash(values)
    assert rec != values
    assert all(rec != other for other in records.values() if type(other) is not cls)

    assert repr(rec) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in kwargs.items())})"

    for name in (names[0], "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(rec, name, values[0])
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert getattr(rec, names[0]) is values[0]

    for args, extra in [
        (values, {"no_such_field": 1}),  # unknown
        (values, {names[0]: values[0]}),  # duplicate
        ((*values, values[0]), {}),  # too many
        ((), {name: kwargs[name] for name in names if name != required[0]}),  # missing
    ]:
        with pytest.raises(TypeError):
            cls(*args, **extra)


def test_results_store_only_what_they_compute():
    # the host is (mu, R); the regime verdicts and the lifetime are properties of the stored values
    results = (becnlo.TfSolution, becnlo.ConditionFlags, becnlo.LossEstimate)
    assert {cls: tuple(cls.__annotations__) for cls in results} == {
        becnlo.TfSolution: ("mu", "radius"),
        becnlo.ConditionFlags: ("tf_ratio", "diluteness"),
        becnlo.LossEstimate: ("loss_rate_l",),
    }


def test_post_init_still_validates():
    with pytest.raises(GridError):
        RadialGrid(1.0, 3)

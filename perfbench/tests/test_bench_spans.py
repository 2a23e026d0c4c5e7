import math
import types

import pytest

from spans import END, NAME, START, Tracer, children_of, percentile, self_times_ns, \
    summarize_ms


def _span(name, parent, start, end):
    return [name, parent, start, end, None]


def test_self_time_subtracts_direct_children_only():
    # root 0..100 holds a 10..40 (which holds b 15..25) and c 50..90
    spans = [
        _span("root", -1, 0, 100),
        _span("a", 0, 10, 40),
        _span("b", 1, 15, 25),
        _span("c", 0, 50, 90),
    ]
    assert self_times_ns(spans) == [100 - 30 - 40, 30 - 10, 10, 40]
    assert children_of(spans) == {-1: [0], 0: [1, 3], 1: [2]}


def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 90) == pytest.approx(4.6)
    assert percentile([7.0], 90) == 7.0
    assert math.isnan(percentile([], 50))


def test_summary_reports_sample_count_and_ms():
    count, p50, p90 = summarize_ms(range(0, 101_000_000, 1_000_000))
    assert count == 101
    assert p50 == pytest.approx(50.0)
    assert p90 == pytest.approx(90.0)
    # p90 of 101 samples leaves ten above it
    assert sum(1 for v in range(101) if v > p90) == 10


def test_tracer_records_nesting_and_restores_attributes():
    module = types.ModuleType("fake")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer

    class Box:
        def twice(self, x):
            return 2 * x

    original_method = Box.__dict__["twice"]
    tracer = Tracer()
    tracer.wrap(module, "inner", "fake.inner", lambda a, k, r: r)
    tracer.wrap(module, "outer", "fake.outer")
    tracer.wrap(Box, "twice", "fake.Box.twice")
    try:
        assert module.outer(1) == 4
        assert Box().twice(3) == 6
    finally:
        tracer.restore()
    assert module.inner is inner and module.outer is outer
    assert Box.__dict__["twice"] is original_method
    names = [s[NAME] for s in tracer.spans]
    assert names == ["fake.outer", "fake.inner", "fake.Box.twice"]
    assert tracer.spans[1][1] == 0 and tracer.spans[2][1] == -1
    assert tracer.spans[1][4] == 2
    assert all(s[END] >= s[START] for s in tracer.spans)


def test_tracer_restores_after_an_exception_and_refuses_inherited_names():
    class Base:
        def f(self):
            raise RuntimeError("boom")

    class Child(Base):
        pass

    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer.wrap(Child, "f", "Child.f")
    tracer.wrap(Base, "f", "Base.f")
    with pytest.raises(RuntimeError):
        Child().f()
    tracer.restore()
    assert "f" not in vars(Child)
    assert Base.f.__name__ == "f" and not hasattr(Base.f, "__wrapped__")
    assert tracer.spans[0][END] >= tracer.spans[0][START] > 0

"""Span recorder: self-time arithmetic and wrapper install/restore."""

import inspect
import types

import layers
from spans import Patches, Span, SpanRecorder, Target, self_times


class FakeClock:
    """Returns the queued instants one by one."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_self_time_of_a_nested_call_tree():
    # root [0, 10] -> a [1, 6] -> b [2, 3]
    #                          -> b [3.5, 5]
    #             -> c [7, 9]
    recorder = SpanRecorder(clock=FakeClock(0, 1, 2, 3, 3.5, 5, 6, 7, 9, 10))
    recorder.open("root")
    recorder.open("a")
    recorder.open("b")
    recorder.close()
    recorder.open("b")
    recorder.close()
    recorder.close()
    recorder.open("c")
    recorder.close()
    recorder.close()

    assert recorder.spans[0] == Span("root", 0, 10, -1)
    assert [s.parent for s in recorder.spans] == [-1, 0, 1, 1, 0]
    times = self_times(recorder.spans)
    assert times["root"] == (1, 10 - 5 - 2)
    assert times["a"] == (1, 5 - 1 - 1.5)
    assert times["b"] == (2, 1 + 1.5)
    assert times["c"] == (1, 2)
    # Self times partition the root: nothing is counted twice or lost.
    assert sum(seconds for _, seconds in times.values()) == 10


def test_recursive_spans_of_one_name_are_not_double_counted():
    recorder = SpanRecorder(clock=FakeClock(0, 2, 5, 9))
    recorder.open("f")
    recorder.open("f")
    recorder.close()
    recorder.close()
    assert self_times(recorder.spans) == {"f": (2, 9)}


def test_wrap_closes_its_span_when_the_call_raises():
    recorder = SpanRecorder(clock=FakeClock(0, 1))

    def boom():
        raise ValueError("x")

    traced = recorder.wrap("boom", boom)
    try:
        traced()
    except ValueError:
        pass
    assert recorder.spans == [Span("boom", 0, 1, -1)]
    assert recorder._stack == []


class Base:
    def run(self):
        return "base"

    @staticmethod
    def helper(x):
        return x + 1


class Child(Base):
    pass


def test_patches_wrap_inherited_static_and_module_targets_and_restore():
    module = types.ModuleType("fake")
    module.func = lambda: "func"
    originals = {
        "Base.run": Base.__dict__["run"],
        "Base.helper": Base.__dict__["helper"],
        "module.func": module.func,
    }
    recorder = SpanRecorder()
    targets = [
        Target(Base, "run", span="base.run"),
        Target(Child, "run", span="child.run"),
        Target(Base, "helper", count="helper.calls"),
        Target(module, "func", span="module.func"),
    ]
    with Patches(recorder, targets):
        assert Child().run() == "base"
        assert Base().run() == "base"
        assert Child.helper(1) == 2 and Base().helper(1) == 2
        assert module.func() == "func"
    # The child got its own wrapper around the original, not a wrapper
    # around the base's wrapper.
    assert [s.name for s in recorder.spans] == ["child.run", "base.run", "module.func"]
    assert all(s.parent == -1 for s in recorder.spans)
    assert recorder.counts["helper.calls"] == 2

    assert Base.__dict__["run"] is originals["Base.run"]
    assert Base.__dict__["helper"] is originals["Base.helper"]
    assert "run" not in Child.__dict__
    assert module.func is originals["module.func"]
    Child().run()
    assert len(recorder.spans) == 3


def test_patches_restore_when_installing_fails():
    recorder = SpanRecorder()
    original = Base.__dict__["run"]
    targets = [Target(Base, "run", span="ok"), Target(Base, "missing", span="no")]
    try:
        with Patches(recorder, targets):
            pass
    except AttributeError:
        pass
    assert Base.__dict__["run"] is original


def test_every_layer_target_is_restored_after_a_traced_run():
    trace = layers.LayerTrace()
    targets = trace.targets()
    before = [inspect.getattr_static(t.owner, t.attr) for t in targets]
    with Patches(trace.recorder, targets):
        patched = [inspect.getattr_static(t.owner, t.attr) for t in targets]
    after = [inspect.getattr_static(t.owner, t.attr) for t in targets]
    assert all(p is not b for p, b in zip(patched, before))
    assert all(a is b for a, b in zip(after, before))
    names = {t.span for t in targets if t.span is not None}
    assert names == set(layers.SPAN_NAMES)

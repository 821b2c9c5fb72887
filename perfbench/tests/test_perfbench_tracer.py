"""Tests of the benchmark's own tracer, layer metrics and run scoring.

They use fake modules and a fake clock, so they run in milliseconds and do
not depend on semicav's internals.
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Hook, Tracer  # noqa: E402


def ticking_clock():
    """Returns 0, 1, 2, ... so every span boundary is one tick apart."""
    return iter(range(1000)).__next__


@pytest.fixture
def fake_modules(monkeypatch):
    lib = types.ModuleType("fakelib")
    user = types.ModuleType("fakeuser")

    def inner(x):
        return x + 1

    def outer(x):
        return lib.inner(x) + lib.inner(x)

    def recurse(n):
        return 0 if n == 0 else 1 + lib.recurse(n - 1)

    class Stepper:
        def step(self, x):
            return lib.inner(x)

    lib.inner, lib.outer, lib.recurse, lib.Stepper = inner, outer, recurse, Stepper
    user.inner = inner  # a by-name copy, as after ``from fakelib import inner``
    monkeypatch.setitem(sys.modules, "fakelib", lib)
    monkeypatch.setitem(sys.modules, "fakeuser", user)
    return lib, user


def test_self_time_is_duration_minus_direct_children(fake_modules):
    lib, _ = fake_modules
    tracer = Tracer(clock=ticking_clock())
    tracer.install([Hook("fakelib", "outer", "outer"), Hook("fakelib", "inner", "inner")], [])
    assert lib.outer(1) == 4
    tracer.uninstall()
    # outer [0, 5] holds inner [1, 2] and inner [3, 4]
    assert tracer.spans == [("outer", 0, 5, -1, None), ("inner", 1, 2, 0, None),
                            ("inner", 3, 4, 0, None)]
    stats = tracer.summary()
    assert (stats["outer"].calls, stats["outer"].total, stats["outer"].self_time) == (1, 5, 3)
    assert (stats["inner"].calls, stats["inner"].total, stats["inner"].self_time) == (2, 2, 2)
    assert set(tracer.summary(parent="outer")) == {"inner"}
    assert tracer.summary(parent="inner") == {}


def test_grandchildren_count_only_against_their_parent(fake_modules):
    lib, _ = fake_modules
    tracer = Tracer(clock=ticking_clock())
    tracer.install([Hook("fakelib", "Stepper.step", "step"), Hook("fakelib", "outer", "outer"),
                    Hook("fakelib", "inner", "inner")], [])
    lib.Stepper().step(0)  # step [0, 3] > inner [1, 2]
    lib.outer(0)  # outer [4, 9] > inner [5, 6], inner [7, 8]
    tracer.uninstall()
    stats = tracer.summary()
    assert stats["step"].self_time == 2
    assert stats["outer"].self_time == 3
    assert stats["inner"].calls == 3


def test_absent_names_are_reported_not_raised(fake_modules):
    lib, _ = fake_modules
    tracer = Tracer()
    tracer.install([Hook("fakelib", "deleted_function", "gone"),
                    Hook("fakelib", "Missing.method", "no_class"),
                    Hook("fakelib", "Stepper.deleted_method", "no_method"),
                    Hook("no_such_module_here", "f", "no_module"),
                    Hook("fakelib", "inner", "inner")], [])
    assert tracer.absent == ["gone", "no_class", "no_method", "no_module"]
    lib.inner(0)
    tracer.uninstall()
    assert tracer.counts == {"inner": 1}


def test_by_name_copies_are_patched_and_restored(fake_modules):
    lib, user = fake_modules
    original = lib.inner
    tracer = Tracer()
    tracer.install([Hook("fakelib", "inner", "inner", span=False)], [user])
    user.inner(0)
    lib.inner(0)
    assert tracer.counts == {"inner": 2}
    assert tracer.spans == []
    tracer.uninstall()
    assert lib.inner is original and user.inner is original


def test_outermost_records_one_span_per_recursive_call(fake_modules):
    lib, _ = fake_modules
    tracer = Tracer(clock=ticking_clock())
    tracer.install([Hook("fakelib", "recurse", "recurse", outermost=True,
                         measure=lambda args, kwargs, result: {"depth": result})], [])
    assert lib.recurse(4) == 4
    tracer.uninstall()
    assert tracer.spans == [("recurse", 0, 1, -1, {"depth": 4})]
    assert tracer.summary()["recurse"].attrs == {"depth": 4}


def test_layer_metrics_read_zero_when_every_hook_is_absent():
    tracer = Tracer()
    tracer.install([Hook("no_such_module_here", "f", name) for name in ("a", "b")], [])
    metrics = layers.layer_metrics(tracer)
    assert metrics["trace.absent_hooks"] == 2
    assert all(value == 0 for name, value in metrics.items() if name != "trace.absent_hooks")


def test_layer_metric_names_match_the_benchmark_definition():
    spec = run.json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    # the two metrics that need more than one repetition are added by run.py
    assert declared == set(layers.layer_metrics(Tracer())) | {"swe_err", "trace.overhead_s"}


def rep(checks, hashes=None, error=None):
    return {"checks": checks, "hashes": hashes or {}, "error": error}


def test_score_counts_checks_and_fails_the_whole_run_on_a_hash_mismatch():
    good = rep({"a": True, "b": True}, {"f": "1"})
    assert run.score([good, good]) == (5, 0, {})
    assert run.score([good, rep({"a": False, "b": True}, {"f": "1"})]) == (5, 1, {"a": 1})
    assert run.score([good, rep({"a": True, "b": True}, {"f": "2"})]) == \
        (5, 5, {"determinism": 1})
    assert run.score([good, rep({}, error="RuntimeError: boom")]) == (4, 4, {"crash": 1})


def write_semicav_csv(path: Path, columns: list[str], rows: np.ndarray) -> None:
    lines = ["# kind=test", ",".join(columns)] + [",".join(repr(float(v)) for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def test_rabi_check_accepts_the_closed_form_and_rejects_a_perturbation(tmp_path):
    t = np.arange(workloads.RABI_ROWS) * 1.571
    rows = np.stack([t, np.cos(t) ** 2, np.cos(t) ** 2, np.sin(t) ** 2, np.sin(t) ** 2,
                     np.full_like(t, 1e-16)], axis=1)
    columns = ["t", "P_e_oracle", "P_e_swe", "n_oracle", "n_swe_via_noise_subtraction",
               "linf_husimi"]
    write_semicav_csv(tmp_path / "rabi_timeseries.csv", columns, rows)
    checks, _ = workloads.check_rabi(tmp_path, [0])
    assert all(checks.values())
    rows[2, 2] += 2e-6
    write_semicav_csv(tmp_path / "rabi_timeseries.csv", columns, rows)
    checks, _ = workloads.check_rabi(tmp_path, [0])
    assert [name for name, ok in checks.items() if not ok] == ["P_e_swe_cos2"]

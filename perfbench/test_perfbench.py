"""Tests for the benchmark itself; run with ``python3 -m pytest perfbench``
from the repository root."""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import algebroid  # noqa: E402
import calibrate  # noqa: E402
import pytest  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


# ------------------------------------------------------------ generators

def test_generators_repeat_for_a_seed_and_vary_across_seeds():
    for gen in (W.two_branch_inputs, W.prime_tower_inputs, W.case2_inputs):
        assert gen(7) == gen(7)
        assert [i.text for i in gen(7)] != [i.text for i in gen(8)]
    for k in range(3):
        assert W.semigroup_vectors(7, k) == W.semigroup_vectors(7, k)
    assert W.shuffled(range(50), 7, "x") == W.shuffled(range(50), 7, "x")
    assert W.shuffled(range(50), 7, "x") != W.shuffled(range(50), 8, "x")


def test_semigroup_passes_cycle_through_each_group():
    passes = [W.semigroup_vectors(3, k) for k in range(3)]
    for g, group in enumerate(W.SEMIGROUP_GROUPS):
        picked = {p[g] for p in passes}
        assert picked == set(group)


def test_mutations_repeat_for_a_seed_and_break_the_certificate():
    prime = W.prime_tower_inputs(1)[0]
    pair = [i for i in W.two_branch_inputs(1)
            if i.input_id == "tangent-pair.F101"][0]
    for inp, mutations in ((prime, W.MUTATIONS[2:]),
                           (pair, W.MUTATIONS[:3])):
        doc = W.cli.report_json(W.decide_text(inp.text))
        ok, _ = W.verify_text(json.dumps(doc))
        assert ok
        for mutation in mutations:
            a = W.mutate(doc, mutation, random.Random(4))
            b = W.mutate(doc, mutation, random.Random(4))
            assert a == b and a != doc
            ok, _ = W.verify_text(json.dumps(a))
            assert not ok


def test_verify_passes_repeat_for_a_seed_and_draw_their_own_mutants():
    inp = [i for i in W.prime_tower_inputs(1)
           if i.input_id == "tower-1.F7"][0]
    report = W.decide_text(inp.text)
    docs = [W.VerifyDocument(inp.input_id, W.cli.report_json(report),
                             W.certificate_digest(report.certificate))] * 4
    first = W.verify_inputs(docs, 5, 0)
    assert first == W.verify_inputs(docs, 5, 0)
    assert len(first) == 12 and sum(i.valid for i in first) == 4
    passes = {tuple(i.text for i in W.verify_inputs(docs, 5, k))
              for k in range(5)}
    assert len(passes) > 1


def test_oracles():
    assert W.oracle_conductor((3, 5)) == 8
    assert W.oracle_conductor((2, 3)) == 2
    reach = W.oracle_members((4, 6), 12)
    assert [n for n in range(13) if reach[n]] == [0, 4, 6, 8, 10, 12]


# --------------------------------------------------------------- tracing

def _span(name, start, end, parent, op=0):
    return [name, start, end, parent, op, None]


def test_self_times_on_a_hand_built_tree():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("c", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("a", 6.0, 8.0, 3),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 2.0, 2.0]
    assert tracing.op_self_sums(spans) == {0: 10.0}
    m = tracing.layer_metrics(spans, 1, bindings=("a", "b", "c"))
    assert m["a.calls"] == (2.0, "1/op")
    # the nested "a" lies inside the outer one, so it adds no total time
    assert m["a.total_s"] == (10.0, "s/op")
    assert m["a.self_s"] == (5.0, "s/op")
    assert m["b.total_s"] == (7.0, "s/op")
    assert m["c.self_s"] == (1.0, "s/op")


def test_missing_binding_is_reported_not_raised():
    tracer = tracing.Tracer(("groebner.no_such_function",
                             "groebner.buchberger"))
    tracer.install()
    try:
        assert tracer.missing == ["groebner.no_such_function"]
    finally:
        tracer.uninstall()


def test_every_binding_is_wrapped_and_restored():
    from algebroid import decide, groebner, localalg, parametric
    original = groebner.buchberger
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        for mod in (groebner, localalg, algebroid):
            assert mod.buchberger is not original
        assert parametric.intersection_number is localalg.intersection_number
        assert decide.intersection_number is localalg.intersection_number
    finally:
        tracer.uninstall()
    for mod in (groebner, localalg, algebroid):
        assert mod.buchberger is original


def _outcomes(ops):
    out = []
    for op in ops:
        ok, verdict, kind, digest = op.check(op.run())
        assert ok
        out.append((op.key, verdict, kind, digest))
    return out


def test_traced_and_untraced_runs_agree():
    # The F7 towers cover the pencil test; the tangent pair needs the
    # tropism-ray search.
    inputs = [i for i in W.prime_tower_inputs(2) + W.two_branch_inputs(2)
              if i.input_id.endswith(".F7")
              or i.input_id == "tangent-pair.F101"]
    ops = [W.decide_op(i) for i in inputs]
    ops += W.semigroup_ops((8, 5))[:20]
    plain = _outcomes(ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _outcomes(ops)
    finally:
        tracer.uninstall()
    assert traced == plain
    names = {s[tracing.NAME] for s in tracer.spans}
    assert {"decide.decide_irreducible", "decide._rays_for_false",
            "groebner.buchberger", "semigroups.membership"} <= names


# ----------------------------------------------------------- calibration

def test_clock_factor_uses_the_readings_around_an_operation():
    ref = calibrate.REFERENCE_S
    clock = calibrate.Clock(window_s=0.5)
    clock.times = [0.0, 1.0, 2.0]
    clock.values = [ref, 2 * ref, 4 * ref]
    assert clock.factor(0.2, 0.5) == pytest.approx(1 / 1.5)
    assert clock.factor(1.0, 1.5) == pytest.approx(1 / 3)
    # an operation after the last reading uses it on both sides
    assert clock.factor(2.5, 2.6) == pytest.approx(1 / 4)
    # the mean of the readings within the window around it
    clock = calibrate.Clock(window_s=0.2)
    clock.times = [i / 10 for i in range(11)]
    clock.values = [ref * v for v in (9, 9, 9, 2, 1, 3, 2, 2, 9, 9, 9)]
    assert clock.factor(0.5, 0.5) == pytest.approx(1 / 2)


def test_phase_keeps_wall_time_beside_calibrated_time():
    ops = W.semigroup_ops((3, 5))[:30]
    phase = run.run_phase(run.Plan(lambda k: ops), range(2))
    assert len(phase.records) == 60 and phase.completed == 60
    assert phase.wall_busy_s == pytest.approx(
        sum(r.wall for r in phase.records))
    assert phase.busy_s == pytest.approx(
        sum(r.latency for r in phase.records))
    assert all(r.wall > 0 and r.latency > 0 for r in phase.records)


# ---------------------------------------------------------------- runner

def _record(input_id, key, digest, ok=True, error=""):
    return run.Record(input_id, key, 0.1, ok, "reducible", "two_tropisms",
                      digest, error)


def test_mismatches_compare_records_on_the_same_input():
    first = [_record("a.Q", "k1", "h1"), _record("a.Q", "k2", "h2")]
    # another scaling of a.Q (key k3) is not compared with k1 or k2
    same = [_record("a.Q", "k2", "h2"), _record("a.Q", "k3", "h9")]
    assert run.mismatches(first, same) == []
    changed = [_record("a.Q", "k1", "h3")]
    assert run.mismatches(first, changed) == ["a.Q"]


def test_only_the_known_defect_passes_as_a_case2_failure():
    def raising(exc):
        def run_():
            raise exc
        return W.Op("p", run_, lambda out: (True, "", "", ""))
    known = run.execute(raising(AssertionError(
        "a two-parameter verdict must raise both attached values")))
    other = run.execute(raising(AssertionError("another invariant")))
    new = run.execute(raising(TypeError("bad operand")))
    assert not known.ok and run.probe_ok(known)
    assert not run.probe_ok(other) and not run.probe_ok(new)

"""Tests of the benchmark's own machinery; run with ``python3 -m pytest bench/tests``."""

import json
import signal
import time
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

import dtmpade
from dtmpade import cli, dtm, pade, rootfind, series, shooting

import harness
import speed
import tracing
from tracing import Span, Tracer, self_times
from workloads import WORKLOADS, load_refs, manifest, rounds

VERSION = dtmpade.__version__
MODULES = {"cli": cli, "dtm": dtm, "pade": pade, "rootfind": rootfind,
           "series": series, "shooting": shooting, "dtmpade": dtmpade}


def _kind(m: dict) -> tuple:
    """What a request asks for, without its seeded inputs."""
    return tuple((k, v) for k, v in m.items() if k not in {"guess", "a", "b", "order"})


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_requests_are_determined_by_the_seed(name):
    w, refs = WORKLOADS[name], load_refs()
    first = list(islice(rounds(w, 7, VERSION, refs), 3))
    again = list(islice(rounds(w, 7, VERSION, refs), 3))
    other = list(islice(rounds(w, 8, VERSION, refs), 3))
    assert first == again
    assert first != other
    # every round holds the same request kinds, whatever the seed
    kinds = {frozenset(Counter(map(_kind, r)).items()) for r in first + other}
    assert len(kinds) == 1
    # the ladder repeats compare's rungs; elsewhere no two requests are the same
    flat = [repr(m) for r in first for m in r]
    assert len(set(flat)) == (len(first[0]) if name == "dtm_ladder" else len(flat))


def test_outcome_classes_repeat_for_a_fixed_seed():
    w = WORKLOADS["dtm_ladder"]
    batch = next(rounds(w, 3, VERSION, load_refs()))
    first = [harness.issue(m) for m in batch]
    again = [harness.issue(m) for m in batch]
    assert [(o.cls, o.digest) for o in first] == [(o.cls, o.digest) for o in again]
    assert {o.exit_code for o in first} >= {0, 4}


def test_classes_follow_the_cli_exit_codes(capsys):
    code = cli.run(["solve", "--pade", "1", "--format", "json"])
    with pytest.raises(Exception) as info:
        cli.execute(manifest("solve", VERSION, problem="free-convection", pr=1.0, pade=1,
                             order=None, mode="corrected", tol=1e-10, max_iter=50,
                             guess=None))
    assert harness.classify(info.value) == (code, "pade.limit.degenerate")
    assert code == 4
    assert harness.classify(ValueError("bad input")) is None


def test_checks_reject_a_wrong_root_and_a_wrong_profile():
    refs = load_refs()
    checker = harness.Checker(refs, VERSION)
    root = harness.issue(checker.pinned_requests()[1])
    checker(root)
    root.result["a"] += 1e-5
    with pytest.raises(harness.CheckFailed, match="closure residual"):
        checker(root)
    profile = next(m for m in next(rounds(WORKLOADS["series_profile"], 1, VERSION, refs))
                   if m["subcommand"] == "profile")
    out = harness.issue(profile)
    checker(out)
    out.result["rows"][50][3] += 1e-7  # theta of the series column at eta = 0.5
    with pytest.raises(harness.CheckFailed, match="near the wall"):
        checker(out)


def _span(parent, start, end):
    s = Span("x", parent, 0)
    s.start, s.end = start, end
    return s


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(-1, 0, 100),  # 0: root
        _span(0, 10, 30),   # 1
        _span(0, 20, 50),   # 2: overlaps 1, as only concurrent children could
        _span(0, 60, 70),   # 3
        _span(1, 12, 18),   # 4: grandchild, not subtracted from the root
        _span(0, 95, 120),  # 5: runs past the root's end; only 95..100 counts
    ]
    assert self_times(spans) == [100 - (40 + 10 + 5), 20 - 6, 30, 10, 6, 25]


def test_span_times_are_scaled_by_their_request():
    spans = []
    for request in (0, 1):
        s = Span("cli.emit", -1, request)
        s.start, s.end = 0, 2_000_000
        spans.append(s)
    metrics = tracing.layer_metrics(spans, 2, 0, 0, 0.0, scales=[1.0, 0.5])
    assert metrics["cli.emit.ms"] == pytest.approx((2.0 + 1.0) / 2)


def test_speed_scale_refers_to_the_reference_kernel_time():
    assert speed.scale(speed.REF_NS, speed.REF_NS) == 1.0
    # twice as slow on one side, as fast on the other: 1.5 times slower in all
    assert speed.scale(speed.REF_NS, 2 * speed.REF_NS) == pytest.approx(1 / 1.5)


def test_kernel_timings_inside_a_request_are_taken_out():
    # (start, end, kernel ns): inside the request, across its end, after it
    interrupts = [(1100, 1200, 5), (1950, 2050, 7), (2100, 2200, 9)]
    assert speed.uninterrupted(1000, 1000, interrupts) == (1000 - 100 - 50, [5])


def test_probe_disarms_its_timer_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    with probe.inside() as interrupts:
        deadline = time.perf_counter() + 3 * speed.INSIDE_S
        while time.perf_counter() < deadline:
            pass
    assert interrupts
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_layer_metrics_cover_every_declared_name():
    metrics = tracing.layer_metrics([], 1, 0, 0, 0.0)
    assert list(metrics) == [name for name, _, _ in tracing.LAYER_METRICS]


def test_tracer_restores_module_attributes():
    before = {(n, a): v for n, m in MODULES.items() for a, v in vars(m).items()}
    tracer = Tracer(MODULES)
    with pytest.raises(ZeroDivisionError):
        with tracer:
            # looked up where callers look them up, under every alias
            assert rootfind.generate is not before["dtm", "generate"]
            assert cli.generate is rootfind.generate
            assert cli.series_evaluate is series.evaluate
            assert shooting.newton_solve is rootfind.newton_solve
            harness.issue(manifest(
                "solve", VERSION, problem="free-convection", pr=1.0, pade=3,
                order=None, mode="paper", tol=1e-10, max_iter=50, guess=None))
            1 / 0
    after = {(n, a): v for n, m in MODULES.items() for a, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = Counter(s.name for s in tracer.spans)
    assert names["cli.execute"] == 1 and names["rootfind.newton_solve"] == 1
    newton = next(s for s in tracer.spans if s.name == "rootfind.newton_solve")
    assert newton.iterations == 6 and newton.work == names["rootfind.closure_residual"]
    generate = next(s for s in tracer.spans if s.name == "dtm.generate")
    assert generate.work == 3 * 5 * 6 // 2  # paper mode n = 3: order 6


def test_tracing_leaves_results_unchanged():
    m = next(rounds(WORKLOADS["series_profile"], 1, VERSION, load_refs()))[0]
    plain = harness.issue(m)
    with Tracer(MODULES):
        traced = harness.issue(m)
    assert traced.text == plain.text


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(
        harness.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(
        tracing.LAYER_METRICS)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in WORKLOADS.values()]

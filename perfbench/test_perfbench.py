"""Tests of the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import compare  # noqa: E402
import serve_workload  # noqa: E402
import suite_workload  # noqa: E402

common.require_source()


def golden():
    with open(os.path.join(HERE, "golden.json"), "r",
              encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", common.PROGRAMS)
def test_select_isas_still_yields_pinned_maps(name):
    """``suite`` and ``serve`` pin these maps; fail loudly on drift."""
    from repro.framework.selection import select_isas
    from repro.programs import load_program

    report = select_isas(load_program(name), filename=f"{name}.kc")
    assert report.isa_map == common.PINNED_ISA_MAPS[name]


@pytest.fixture(scope="module")
def dct4x4_program(tmp_path_factory):
    tracer = common.Tracer(False)
    return suite_workload.Program(
        "dct4x4", str(tmp_path_factory.mktemp("plans")), tracer)


def test_suite_round_matches_golden(dct4x4_program):
    checker = common.Checker()
    suite_workload.run_round([dct4x4_program], golden()["suite"], checker,
                             common.Tracer(False), [], {})
    assert checker.attempted == 5
    assert checker.failures == []


@pytest.mark.parametrize("section,key", [
    ("functional", "instructions"),
    ("doe", "cycles"),
    ("sampled", "cycles_estimated"),
])
def test_suite_check_trips_on_wrong_expected_value(dct4x4_program, section,
                                                   key):
    wrong = copy.deepcopy(golden()["suite"])
    wrong["dct4x4"][section][key] += 1
    checker = common.Checker()
    suite_workload.run_round([dct4x4_program], wrong, checker,
                             common.Tracer(False), [], {})
    assert checker.failures
    assert all(key in failure for failure in checker.failures)
    assert checker.expected == 0


def _served(jt, doc):
    return {"type": jt, "doc": doc, "due": 0.0, "sent": 0.0,
            "submitted": 0.0, "received": 1.0}


def _golden_doc(expect):
    """A served job document that matches the golden ``expect``."""
    assert common.digest("") == expect["output"]
    return {"state": "done", "output": "", "exit_code": expect["exit_code"],
            "instructions": expect["instructions"],
            "cycles": expect["cycles"],
            "report": {"metrics": dict(expect["counters"],
                                       **{"sim.mips": 0.5})}}


@pytest.mark.parametrize("program,model", [("fft", "doe"),
                                           ("aes", "none")])
def test_serve_judge_trips_on_result_differing_from_golden(program, model):
    gold = golden()["serve"]
    jt = {"program": program, "build": "isa", "model": model,
          "sampling": None}
    expect = gold["types"][serve_workload.type_key(jt)]
    good = common.Checker()
    serve_workload.judge([_served(jt, _golden_doc(expect))], gold, good)
    assert good.failures == []
    wrong = []
    for name in expect["counters"]:
        doc = _golden_doc(expect)
        doc["report"]["metrics"][name] += 1
        wrong.append(doc)
    if model == "doe":
        wrong.append(dict(_golden_doc(expect), cycles=expect["cycles"] + 1))
    bad = common.Checker()
    serve_workload.judge([_served(jt, doc) for doc in wrong], gold, bad)
    assert len(bad.failures) == len(wrong) and bad.expected == 0


def test_serve_width_defect_is_a_known_failure_only_for_wide_callees():
    gold = golden()["serve"]
    wide = {"program": "cjpeg", "build": "isa_map", "model": "doe",
            "sampling": None}
    narrow = dict(wide, program="fft")
    fault = {"state": "failed",
             "error": "internal fault: IndexError('list index out of "
                      "range') ip=0x000028ec isa=vliw6"}
    checker = common.Checker()
    serve_workload.judge([_served(wide, fault), _served(narrow, fault)],
                         gold, checker)
    assert len(checker.failures) == 2
    assert checker.expected == 1


def test_tail_takes_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))
    assert common.tail(values) == (pytest.approx(90.5, abs=0.05), 90, 10)
    assert common.tail(values[:40])[1:] == (75, 10)
    assert common.tail([1.0, float("inf")] * 20)[0] == float("inf")


def test_quantile_is_smooth_between_order_statistics():
    assert common.quantile([5.0], 0.5) == 5.0
    assert common.quantile([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)
    # Symmetric samples: the median estimate is the centre.
    assert common.quantile(list(range(10)), 0.5) == pytest.approx(4.5)
    # Two clusters: a single order statistic jumps from 1 to 10 when one
    # sample moves across; the estimate moves by a fraction of that.
    low = [1.0] * 15 + [10.0] * 14
    high = [1.0] * 14 + [10.0] * 15
    jump = common.quantile(high, 0.5) - common.quantile(low, 0.5)
    assert 0 < jump < 4.5


def test_self_time_subtracts_child_spans():
    tracer = common.Tracer(True)
    with tracer.span("outer", trace="r1"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner.parent == 0 and inner.trace == "r1"
    self_s = tracer.self_times()
    assert self_s["outer"] == pytest.approx(outer.seconds - inner.seconds)


def test_host_clock_scales_by_nearby_kernel_samples():
    clock = common.HostClock()
    ref = common.REFERENCE_KERNEL_S
    # A host twice as slow as the reference until t=10, then as fast.
    clock.times = [0.0, 1.0, 2.0, 10.0, 11.0]
    clock.kernel_s = [2 * ref, 2 * ref, 2 * ref, ref, ref]
    slow = 0.5 ** common.KERNEL_EXPONENT
    assert clock.seconds(1.0, 1.5) == pytest.approx(0.5 * slow)
    # Speed is averaged over the samples in the interval.
    assert clock.scale(1.5, 10.5) == pytest.approx((slow + 1) / 2)
    # No sample within the window: the nearest on each side.
    assert clock.seconds(10.5, 10.6) == pytest.approx(0.1)
    assert clock.scale(5.0, 6.0) == pytest.approx((slow + 1) / 2)


def test_host_clock_sampler_stops_with_the_clock():
    with common.HostClock(wall=True) as clock:
        time.sleep(3 * common.SAMPLE_EVERY_S)
    assert clock._proc.poll() is not None
    assert len(clock.kernel_s) >= 2
    assert all(k > 0 for k in clock.kernel_s)
    assert abs(clock.times[-1] - time.time()) < 5


def test_compare_verdicts():
    parent = [10.0 + 0.1 * i for i in range(10)]
    assert compare.verdict(parent, [v * 1.5 for v in parent], "higher",
                           0.1) == "better"
    assert compare.verdict(parent, [v * 0.5 for v in parent], "higher",
                           0.1) == "worse"
    assert compare.verdict(parent, list(parent), "higher",
                           0.1) == "unchanged"
    assert compare.verdict(parent[:5], [v * 1.1 for v in parent[:5]],
                           "higher", 0.1) == "unresolved"
    assert compare.verdict(parent[:5], [v * 1.001 for v in parent[:4]]
                           + [9.0], "higher", 0.1) == "unresolved"
    noisy = [1.0, 2.0] * 5
    assert compare.verdict(noisy, [v * 1.01 for v in noisy], "lower",
                           0.25) == "unresolved"

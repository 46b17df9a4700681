"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

import copy
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import hostspeed                                                # noqa: E402
import run                                                      # noqa: E402
import tracer                                                   # noqa: E402
import workloads                                                # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
# the heavy tail of the descent pipeline; the rest of its jobs take ~1 s
SLOW_JOBS = {"chain.free_datum", "chain.pseudonatural"}


def fingerprint(w):
    """Everything a workload generated from its seed, as plain data."""
    def presheaf(p):
        return ({o: (a.mult, a.unit) for o, a in p.algebras.items()},
                {u: sorted(m.items()) for u, m in p.restrictions.items()})
    if isinstance(w, workloads.GSLadder):
        return [(name, presheaf(p)) for name, p in w.fixtures]
    if isinstance(w, workloads.Hodge):
        return presheaf(w.presheaf)
    if isinstance(w, workloads.DescentDeform):
        return (w.sections,
                [({o: sorted(m.items()) for o, m in t.m1.items()},
                  {u: sorted(m.items()) for u, m in t.f1.items()},
                  t.c1, bad) for t, bad in w.candidates])
    return w.commands


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_inputs(name):
    assert fingerprint(workloads.build(name, 7)) == \
        fingerprint(workloads.build(name, 7))


def test_seed_changes_inputs():
    assert any(fingerprint(workloads.build(name, 1))
               != fingerprint(workloads.build(name, 2))
               for name in ("hodge", "descent_deform"))


def traced_counts(seed):
    w = workloads.build("descent_deform", seed)
    w.reset()
    tr = tracer.Tracer().install([workloads])
    try:
        for job in w.jobs(True):
            if job.name not in SLOW_JOBS:
                job.check(job.run())
    finally:
        tr.uninstall()
    return {k: v for k, v in tr.summary().items() if not k.endswith("self_s")}


def test_same_seed_same_layer_counts():
    first = traced_counts(3)
    assert first["linalg.elim.calls"] > 0
    assert first["deform.rejected"] > 0
    assert first["checks.check_descent.calls"] > 0
    assert traced_counts(3) == first


def test_uninstall_restores_the_library():
    from gscohom import gs, linalg
    before = (linalg.RatMatrix.rank, gs.linalg_cohomology, workloads.deform)
    tr = tracer.Tracer().install([workloads])
    assert linalg.RatMatrix.rank is not before[0]
    assert gs.linalg_cohomology is not before[1]
    assert workloads.deform is not before[2]
    assert not tr.missing
    tr.uninstall()
    assert (linalg.RatMatrix.rank, gs.linalg_cohomology,
            workloads.deform) == before


def test_self_time_arithmetic():
    tr = tracer.Tracer()
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 6]
    tr.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0],
                ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert tr.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_nested_calls_of_one_layer_count_once():
    from gscohom.linalg import RatMatrix
    tr = tracer.Tracer().install()
    try:
        # kernel builds a Subspace, whose constructor runs a rank
        RatMatrix.from_rows([[1, 2], [2, 4]]).kernel()
    finally:
        tr.uninstall()
    assert tr.counters["linalg.elim.calls"] == 1
    names = [s[0] for s in tr.spans]
    assert names.count("linalg.elim") >= 2
    assert names[-1] == tracer.HOOK and names.count(tracer.HOOK) == 1
    assert all(s[3] >= 0 for s in tr.spans[1:-1])       # nested in the first
    total = tr.spans[0][2] - tr.spans[0][1]
    assert tr.self_times()["linalg.elim"] == pytest.approx(total)


def test_bookkeeping_is_no_layers_self_time():
    from gscohom import linalg
    m = linalg.RatMatrix.from_rows([[1, 2], [2, 4]])
    tr = tracer.Tracer().install()
    try:
        linalg.cohomology(linalg.RatMatrix.zeros(2, 0), m)
    finally:
        tr.uninstall()
    hooks = [s for s in tr.spans if s[0] == tracer.HOOK]
    assert hooks and all(tr.spans[s[3]][0] == "linalg.cohomology"
                         for s in hooks)
    outer = tr.spans[0]
    assert outer[0] == "linalg.cohomology"
    covered = sum(e - b for _, b, e, parent in tr.spans if parent == 0)
    assert tr.self_times()["linalg.cohomology"] == \
        pytest.approx(outer[2] - outer[1] - covered)
    assert tracer.HOOK not in tr.self_times()


def test_wrong_expected_value_fails_jobs():
    expected = copy.deepcopy(workloads.load_expected())
    # a short ladder keeps the run quick; H^2 of diamond_mixed is 1
    expected["gs_ladder"] = {"v_poset_triangular": [1, 0],
                             "diamond_mixed": [2, 1, 2]}
    result, lines = run.run("gs_ladder", 1, 0, 0, expected)
    assert result["failed"] > 0 and not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert any("diamond_mixed.H2" in line for line in lines)


def test_metric_names_and_declaration():
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        decl = json.load(fh)
    for m in decl["end_to_end"] + decl["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
    assert {m["name"]: m["unit"] for m in decl["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in decl["per_layer"]] == tracer.PER_LAYER
    for m in decl["per_layer"]:
        assert m["unit"] == tracer.unit_of(m["name"])
    assert [w["name"] for w in decl["workloads"]] == list(workloads.NAMES)


def test_rank_mod_p_matches_exact_rank():
    from fractions import Fraction as F
    cols = [{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}, {2: F(1, 3)}]
    assert workloads.rank_mod_p(cols) == 2


def test_host_speed_correction():
    probe = hostspeed.SpeedProbe()
    ref = hostspeed.REF_SECONDS
    # the host runs at full speed until t = 2, at half speed after it
    probe.starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    probe.durations = [ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    probe.costs = [2 * d for d in probe.durations]
    # two samples inside [2.5, 4.5]; the window takes in 2.0 and 5.0
    assert probe.slowdown(2.5, 4.5) == pytest.approx(2.0)
    assert probe.corrected(2.5, 4.5) == pytest.approx((2.0 - 8 * ref) / 2)
    # a short job between samples is judged by its nearest neighbours,
    # here the samples at 0, 1, 2 and 3
    assert probe.slowdown(0.4, 0.5) == pytest.approx(1.5)
    assert hostspeed.SpeedProbe().corrected(1.0, 3.0) == 2.0


def test_probe_samples_and_stops():
    with hostspeed.SpeedProbe() as probe:
        end = hostspeed.time.perf_counter() + 4 * hostspeed.INTERVAL
        while hostspeed.time.perf_counter() < end:
            pass
    n = len(probe.durations)
    assert n >= 2 and probe.starts == sorted(probe.starts)
    assert all(c > d for c, d in zip(probe.costs, probe.durations))
    assert hostspeed.reference() == 5
    hostspeed.time.sleep(2 * hostspeed.INTERVAL)
    assert len(probe.durations) == n

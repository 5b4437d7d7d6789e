"""Self-tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import clock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qpklab import primitives, schemes, sim  # noqa: E402
from qpklab.bits import int_to_bits  # noqa: E402


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, env=None):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=170,
    )
    return proc


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    runs = [run_bench("--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", "1")
            for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        assert result_line(proc)["correct"]
    first, second = (result_line(proc)["metrics"] for proc in runs)
    for name in tracing.COUNT_METRICS:
        assert first[name]["value"] == second[name]["value"], name
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in first.items()} == declared


def test_untraced_run_reports_every_end_to_end_metric():
    proc = run_bench("--workload", "prfs-compare", "--seed", "3", "--seconds", "0.1")
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2000
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_clock_pauses_to_calibrate_and_scales_each_segment(monkeypatch):
    monkeypatch.setattr(clock, "CALIBRATE_EVERY_S", 0.0)  # calibrate at every checkpoint
    c = clock.Clock()
    first = c.start()
    time.sleep(0.02)
    c.checkpoint()
    time.sleep(0.02)
    handle = c.stop(first)
    c.finish()
    assert len(handle) == 2 and len(c.calibrations) == 3
    before, after = handle[:1], handle[1:]
    assert c.raw(handle) == c.raw(before) + c.raw(after)
    assert 0.04 <= c.raw(handle) < 0.04 + c.calibrations[1]
    cal = c.calibrations
    expected = (c.raw(before) * 2 / (cal[0] + cal[1])
                + c.raw(after) * 2 / (cal[1] + cal[2])) * clock.REFERENCE_S
    assert c.scaled(handle) == pytest.approx(expected, rel=1e-12)


def test_missing_target_is_reported_absent():
    table = tracing.TARGETS + [("qpklab.sim.no_such_function", "sim.gone", tracing.SPAN)]
    tracer = tracing.Tracer()
    inst = tracing.install(tracer, table)
    try:
        scheme = schemes.OwfScheme(2)
        scheme.qpk_gen(scheme.gen(np.random.default_rng(0)))
    finally:
        inst.uninstall()
    assert inst.absent == ["qpklab.sim.no_such_function"]
    tracing.PER_LAYER["sim.gone_s"] = ("s", ["sim.gone"], True, lambda t, i, x: 0.0)
    try:
        metrics = tracing.layer_metrics(tracer, inst, 1, {"games": 0, "games_valid": 0,
                                                          "oracle_s": {}})
    finally:
        del tracing.PER_LAYER["sim.gone_s"]
    assert metrics["sim.gone_s"] == (None, "s", ["qpklab.sim.no_such_function"])
    assert metrics["schemes.qpk_gen_calls"][0] == 1


def test_family_without_cache_reports_hit_ratio_absent():
    family = primitives.PhasePrfs(primitives.PrfsParams(2, 2, 1))
    del family._cache  # the seed's gen then fails, but the lookup before it sees no cache
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        with pytest.raises(AttributeError):
            family.gen("00", "00")
    finally:
        inst.uninstall()
    metrics = tracing.layer_metrics(tracer, inst, 1, {"games": 0, "games_valid": 0,
                                                      "oracle_s": {}})
    assert metrics["primitives.state_cache_hit_ratio"][0] is None


def test_uninstall_restores_every_binding():
    before = (primitives.prf_eval, schemes.prf_eval, primitives.ToyPrfspd.__init__.__defaults__,
              schemes.OwfScheme.__init__.__defaults__, sim.check_bits, np.linalg.eigvalsh)
    inst = tracing.install(tracing.Tracer())
    assert schemes.prf_eval is not before[1]
    assert primitives.ToyPrfspd.__init__.__defaults__[0] is primitives.prf_eval
    inst.uninstall()
    after = (primitives.prf_eval, schemes.prf_eval, primitives.ToyPrfspd.__init__.__defaults__,
             schemes.OwfScheme.__init__.__defaults__, sim.check_bits, np.linalg.eigvalsh)
    assert all(a is b for a, b in zip(before, after))


def test_reference_prfs_compare_win():
    """Enumerate all keys and input pairs of the prfs-compare configuration."""
    w = workloads.PrfsCompare
    family = primitives.PhasePrfs(primitives.PrfsParams(w.lam, w.lam, w.n))
    accept_same = 0.0
    for kv in range(1 << w.lam):
        key = int_to_bits(kv, w.lam)
        psi = np.array([family.gen(key, int_to_bits(xv, w.lam)).amplitudes
                        for xv in range(1 << w.lam)])
        accept_same += np.mean(np.abs(psi.conj() @ psi.T) ** 2)
    # b=0: accept (win) with the mean fidelity of the reference and the
    # challenge state; b=1: a random basis state is accepted w.p. 2^-n.
    win = 0.5 * accept_same / (1 << w.lam) + 0.5 * (1 - 2.0 ** -w.n)
    assert abs(win - workloads.REFERENCE["prfs_compare_win"]) <= 1e-12


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "owf-copies", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("cap", ["12", "abc", "24"])
def test_unusable_qubit_cap_is_a_configuration_error(cap):
    env = dict(os.environ, QPKLAB_QMAX=cap)
    workload = "oracles" if cap == "24" else "owf-copies"
    proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "1", env=env)
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout

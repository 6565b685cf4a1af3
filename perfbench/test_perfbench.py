"""Tests of the benchmark itself.

Run from the repository root with:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

VARWIT = run.import_cli()

# The work counts that must repeat exactly for the same inputs.
EXACT_COUNTS = ("calls", "_matrices", "fallbacks", "constructions")


def traced_pass(workload):
    tracer = Tracer()
    tally = run.Tally()
    tally.run_pass(VARWIT, workload.ops, tracer)
    assert not tally.failures, tally.failures
    return tracer, tally


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_traced_runs_count_the_same_work(name, tmp_path):
    first, tally = traced_pass(workloads.WORKLOADS[name](11, str(tmp_path / "a")))
    second, _ = traced_pass(workloads.WORKLOADS[name](11, str(tmp_path / "b")))
    assert run.trace_signature(first) == run.trace_signature(second)
    a = run.layer_metrics([first], tally.pass_walls[:1], tally.pass_walls[:1])
    b = run.layer_metrics([second], tally.pass_walls[:1], tally.pass_walls[:1])
    exact = [m for m in a if any(key in m for key in EXACT_COUNTS)]
    assert exact and all(a[m] == b[m] for m in exact)
    if name == "report":
        assert 350_000 < a["linalg.eigh_matrices"] < 420_000
        assert a["noise.fit_alpha.calls"] == 0
    if name == "calibrate":
        assert 20_000 <= a["noise.channel_constructions"] < 21_000
        assert a["bounds.seesaw_bound.calls"] == 0


def test_uninstall_restores_the_program():
    cli_main, seesaw, eigh = VARWIT.cli.main, VARWIT.bounds.seesaw_bound, numpy.linalg.eigh
    tracer = Tracer()
    tracer.install(VARWIT)
    assert VARWIT.bounds.seesaw_bound.__wrapped__ is seesaw and numpy.linalg.eigh is not eigh
    tracer.uninstall()
    assert (VARWIT.cli.main, VARWIT.bounds.seesaw_bound, numpy.linalg.eigh) == (cli_main, seesaw, eigh)


def run_one(argv, out_dir=None):
    op = workloads.Op(argv, lambda r: [], out_dir)
    return run.run_op(VARWIT, op)[1]


def tampered(result, **changes):
    data = json.loads(result.stdout)
    for path, value in changes.items():
        node = data
        keys = path.split(".")
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value(node[keys[-1]])
    return workloads.Result(result.code, json.dumps(data), result.stderr)


def test_checks_reject_wrong_bounds():
    result = run_one(["bound", "--lambda", "0.5", "--mu", "0.5", "--alpha", "0.2"])
    check = lambda r: workloads.check_bound(r, 0.5, 0.5, 0.2, 0.2)  # noqa: E731
    assert check(result)
    bad = [
        tampered(result, **{"results.seesaw.c_sep": lambda v: v + 1e-3, "c_sep": lambda v: v + 1e-3}),
        tampered(result, **{"results.grid.local_a.value": lambda v: v + 1e-3}),
        workloads.Result(64, result.stdout, result.stderr),
        workloads.Result(2, result.stdout, result.stderr),
    ]
    for wrong in bad:
        with pytest.raises(workloads.Wrong):
            check(wrong)


def penalty_minimum(lam, mu, alpha, n=41, rounds=16):
    """Smallest eigenvalue of lam (X2 - 2x X1 + x^2) + mu (Y2 - 2y Y1 + y^2) over the means (x, y).

    An n x n mesh over [-(1 - alpha), 1 - alpha]^2, then `rounds` meshes
    each a quarter as wide around the best point so far.
    """
    (x1, x2), (y1, y2) = ref.local_moments(alpha)
    centre, half = numpy.zeros(2), max(1.0 - alpha, 1e-3)
    best = numpy.inf
    for _ in range(rounds):
        xs = centre[0] + numpy.linspace(-half, half, n)[:, None, None, None]
        ys = centre[1] + numpy.linspace(-half, half, n)[None, :, None, None]
        pen = lam * (x2 - 2.0 * xs * x1 + xs**2 * ref.EYE3) + mu * (y2 - 2.0 * ys * y1 + ys**2 * ref.EYE3)
        low = numpy.linalg.eigvalsh(pen)[..., 0]
        i, j = numpy.unravel_index(numpy.argmin(low), low.shape)
        if low[i, j] < best:
            best, centre = float(low[i, j]), numpy.array([xs[i, 0, 0, 0], ys[0, j, 0, 0]])
        half /= 4.0
    return best


def test_local_infimum_is_exact():
    rng = numpy.random.default_rng(3)
    vecs = rng.normal(size=(4000, 3)) + 1j * rng.normal(size=(4000, 3))
    vecs /= numpy.linalg.norm(vecs, axis=1, keepdims=True)
    points = [(0.5, 0.5, a) for a in (0.0, 0.2, 0.5, 0.9, 1.0)]
    points += [(lam, 1.0 - lam, a) for lam in (0.01, 0.1, 0.3, 0.45, 0.55, 0.8, 0.99) for a in (0.0, 0.2, 0.6)]
    points += [tuple(rng.uniform(0.02, 1.8, 2)) + (float(rng.choice([0.0, rng.uniform(), 1.0])),) for _ in range(20)]
    for lam, mu, alpha in points:
        exact = ref.local_infimum(lam, mu, alpha)
        if lam == mu == 0.5:
            assert exact == pytest.approx(ref.local_bound_half(alpha), abs=1e-15)
        vx, vy = ref.local_variances(vecs, alpha)
        assert exact <= float(numpy.min(lam * vx + mu * vy)) + 1e-12  # no state goes below it
        # the minimum over the means, found without the closed form, is the same value
        assert penalty_minimum(lam, mu, alpha) == pytest.approx(exact, abs=1e-9), (lam, mu, alpha)


def test_report_curve_check_is_two_sided():
    lams = [0.0, 0.1, 0.3, 0.495, 0.7, 1.0]
    curve = [2.0 * ref.local_infimum(lam, 1.0 - lam, 0.2) for lam in lams]
    workloads._check_curve(lams, curve, 0.2)
    for k in range(len(lams)):
        for delta in (3e-6, -3e-6):
            wrong = list(curve)
            wrong[k] += delta
            with pytest.raises(workloads.Wrong):
                workloads._check_curve(lams, wrong, 0.2)


def test_checks_reject_wrong_verdicts():
    result = run_one(["witness", "--tuple", "0.3,0.4", "--alpha", "0.2", "--lambda", "0.5"])
    check = lambda r: workloads.check_witness(r, 0.5, 0.2, True, tuple_=(0.3, 0.4))  # noqa: E731
    check(result)
    for wrong in (
        tampered(result, detected=lambda v: not v),
        tampered(result, c_sep=lambda v: v + 1e-3, margin=lambda v: v + 1e-3),
    ):
        with pytest.raises(workloads.Wrong):
            check(wrong)


def test_checks_reject_a_wrong_noise_fit(tmp_path):
    wl = workloads.calibrate_workload(5, str(tmp_path))
    calibrate, fit = wl.ops[:2]
    cal_result = run.run_op(VARWIT, calibrate)[1]
    assert calibrate.check(cal_result) == []
    fit_result = run.run_op(VARWIT, fit)[1]
    fit.check(fit_result)
    with pytest.raises(workloads.Wrong):
        fit.check(tampered(fit_result, alpha=lambda v: v + 0.02))


def test_benchmark_json_declares_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calibrate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

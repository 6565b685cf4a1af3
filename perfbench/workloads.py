"""Seeded workloads: the CLI commands of one pass and the check of each output.

A workload turns a seed into a list of `Op`s (argv plus a check) and a
short warm-up list. The same seed gives the same argv, state files and
tuples. Each check reads the command's exit code, stdout and files and
raises `Wrong` if any output is wrong; it returns the |c_sep(1/2) - exact|
errors it certified along the way.

Workloads (see README.md for why each one was chosen):
  report     one `varwit report --state singlet --alpha 0.2` pass
  calibrate  calibrate --sweep theta1/theta2 at alpha 0.2, each followed by fit-noise
  queries    a shuffled stream of single-lambda bound/witness/region/simulate requests
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

import reference as ref

EXIT_OK, EXIT_NUMERICAL = 0, 2

# Certified bounds must match the exact value this closely, and no value may
# lie further below it; the solver stops on a 1e-10 eigenvalue step and was
# seen up to 3e-9 high, the paper's own headline is 9e-4 off.
EXACT_TOL = 1e-6
# A seesaw result that exits 0 must agree with the mesh oracle this closely.
AGREE_TOL = 1e-6
# A reported bound value must equal V at its reported minimizer.
VALUE_TOL = 1e-9

WINDOW_IDEAL = (0.028, 0.985)
WINDOW_ADAPTED = (0.250, 0.755)
CALIBRATION_ALPHA = 0.2
FIT_TOL = 0.01
ALPHA_GRID = [round(0.05 * k, 2) for k in range(21)]


class Wrong(Exception):
    """An output of the program is wrong."""


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str


@dataclass
class Op:
    argv: List[str]
    check: Callable[[Result], List[float]]
    out_dir: Optional[str] = None


@dataclass
class Workload:
    """`ops` is one pass, the same in every pass of a run; `warmup` runs untimed first."""

    ops: List[Op]
    warmup: List[Op]


def _require(cond, message):
    if not cond:
        raise Wrong(message)


def _close(a, b, tol, what):
    _require(abs(a - b) <= tol, f"{what}: {a!r} vs {b!r} (tol {tol:g})")


def _json(result):
    try:
        return json.loads(result.stdout)
    except ValueError:
        raise Wrong(f"stdout is not JSON: {result.stdout[:80]!r}")


def _exit(result, allowed=(EXIT_OK, EXIT_NUMERICAL)):
    _require(result.code in allowed, f"exit code {result.code}: {result.stderr.strip()[:200]}")


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _manifests(paths):
    for path in paths:
        _require(os.path.isfile(path + ".manifest.json"), f"no manifest next to {path}")


def _fmt(x):
    return repr(float(x))


def _check_exact(value, lam, mu, alpha, certified, what):
    """No value lies below the exact local infimum; a certified one equals it.

    An uncertified value (exit 2) may sit above it: a stalled search stops
    at a state whose variance is not yet the minimum.
    """
    exact = ref.local_infimum(lam, mu, alpha)
    _require(value >= exact - EXACT_TOL, f"{what} = {value} below the exact bound {exact}")
    if certified:
        _require(value <= exact + EXACT_TOL, f"{what} = {value} above the exact bound {exact}")


# ---------------------------------------------------------------- report


def report_workload(seed, work):
    out = os.path.join(work, "report")
    argv = ["report", "--state", "singlet", "--alpha", str(CALIBRATION_ALPHA),
            "--output-dir", out, "--seed", str(seed)]
    ops = [Op(argv, lambda r: check_report(r, out), out_dir=out)]
    return Workload(ops=ops, warmup=[Op(argv + ["--lambda-grid", "5"], lambda r: [], out_dir=out)])


def _check_curve(lams, values, alpha):
    # composed curve of two equal parties: every point is twice the local bound
    for lam, c in zip(lams, values):
        _check_exact(c / 2.0, lam, 1.0 - lam, alpha, True, f"c({lam})/2 at alpha={alpha}")


def check_report(result, out_dir):
    _exit(result, (EXIT_OK,))
    summary = _json(result)
    rows = _read_csv(os.path.join(out_dir, "report.csv"))
    with open(os.path.join(out_dir, "windows.json"), encoding="utf-8") as fh:
        _require(json.load(fh) == summary, "windows.json differs from stdout")
    _manifests([os.path.join(out_dir, "report.csv"), os.path.join(out_dir, "windows.json")])
    _require(len(rows) == 201, f"report.csv has {len(rows)} rows")
    lams = [float(r["lambda"]) for r in rows]
    c_nl = [float(r["c_noiseless"]) for r in rows]
    c_ad = [float(r["c_adapted"]) for r in rows]
    rho = np.outer(ref.SINGLET, ref.SINGLET.conj())
    tuples = {"ideal": ref.global_variance_tuple(rho, 0.0),
              "noisy": ref.global_variance_tuple(rho, CALIBRATION_ALPHA)}
    for key in ("ideal", "noisy"):
        for got, want in zip(summary[f"tuple_{key}"], tuples[key]):
            _close(got, want, VALUE_TOL, f"tuple_{key}")
    for lam, row in zip(lams, rows):
        v_id = lam * tuples["ideal"][0] + (1 - lam) * tuples["ideal"][1]
        v_no = lam * tuples["noisy"][0] + (1 - lam) * tuples["noisy"][1]
        _close(float(row["v_ideal"]), v_id, VALUE_TOL, "v_ideal")
        _close(float(row["v_noisy"]), v_no, VALUE_TOL, "v_noisy")
        for col, v, c in (("detected_ideal", float(row["v_ideal"]), float(row["c_noiseless"])),
                          ("detected_adapted", float(row["v_noisy"]), float(row["c_adapted"])),
                          ("detected_non_adapted", float(row["v_noisy"]), float(row["c_noiseless"]))):
            _require((row[col] == "true") == (v < c), f"{col} wrong at lambda={lam}")
    _check_curve(lams, c_nl, 0.0)
    _check_curve(lams, c_ad, CALIBRATION_ALPHA)
    half = lams.index(0.5)
    errors = [abs(c_nl[half] - ref.sep_bound_half(0.0)),
              abs(c_ad[half] - ref.sep_bound_half(CALIBRATION_ALPHA))]
    _require(max(errors) <= EXACT_TOL, f"c_sep(1/2) off the closed form by {max(errors):.3e}")
    for key, (lo_max, hi_min) in (("ideal", WINDOW_IDEAL), ("adapted", WINDOW_ADAPTED)):
        windows = summary["windows"][key]
        _require(len(windows) == 1, f"{len(windows)} {key} windows")
        lo, hi = windows[0]["lambda_lo"], windows[0]["lambda_hi"]
        _require(lo < lo_max and hi > hi_min,
                 f"{key} window ({lo}, {hi}) does not enclose ({lo_max}, {hi_min})")
    _require(summary["detected"] is True, "singlet not detected at alpha 0.2")
    return errors


# ------------------------------------------------------------- calibrate


def calibrate_workload(seed, work):
    ops, warmup = [], []
    for sweep in ("theta1", "theta2"):
        out = os.path.join(work, f"calibrate_{sweep}")
        csv_path = os.path.join(out, "calibration.csv")
        ops.append(Op(["calibrate", "--sweep", sweep, "--alpha", str(CALIBRATION_ALPHA),
                                    "--output-dir", out, "--seed", str(seed)],
                      lambda r, sweep=sweep, out=out: check_calibrate(r, sweep, out), out_dir=out))
        ops.append(Op(["fit-noise", "--input", csv_path],
                      lambda r, csv_path=csv_path: check_fit(r, csv_path)))
    out = os.path.join(work, "calibrate_warmup")
    warmup.append(Op(["calibrate", "--sweep", "theta1", "--steps", "5", "--trials", "5",
                                   "--alpha", str(CALIBRATION_ALPHA), "--output-dir", out],
                     lambda r: [], out_dir=out))
    warmup.append(Op(["fit-noise", "--input", os.path.join(out, "calibration.csv")],
                     lambda r: []))
    return Workload(ops=ops, warmup=warmup)


def _sweep_angles(sweep, steps=45):
    step = 180.0 / (steps + 1)
    if sweep == "theta1":
        return [(k * step, 23.3) for k in range(1, steps + 1)]
    return [(28.0, k * step) for k in range(1, steps + 1)]


def check_calibrate(result, sweep, out_dir):
    _exit(result, (EXIT_OK,))
    csv_path = os.path.join(out_dir, "calibration.csv")
    _manifests([csv_path])
    rows = _read_csv(csv_path)
    angles = _sweep_angles(sweep)
    _require(len(rows) == len(angles), f"calibration.csv has {len(rows)} rows")
    for row, (t1, t2) in zip(rows, angles):
        _close(float(row["theta1"]), t1, 1e-9, "theta1")
        _close(float(row["theta2"]), t2, 1e-9, "theta2")
        vec = ref.calibration_state(t1, t2)
        for col, alpha in (("V_ideal", 0.0), ("V_noisy", CALIBRATION_ALPHA)):
            vx, vy = ref.local_variances(vec, alpha)
            _close(float(row[col]), 0.5 * (vx + vy), VALUE_TOL, col)
        std = float(row["V_std"])
        _require(0.0 <= std < 0.01, f"V_std {std} out of range")
        # 100 trials: the sampled mean sits within 6 standard errors of the exact value
        _close(float(row["V_mean"]), float(row["V_noisy"]), 6.0 * std / 10.0 + 1e-12, "V_mean")
    return []


def check_fit(result, csv_path):
    _exit(result, (EXIT_OK,))
    fit = _json(result)
    rows = _read_csv(csv_path)
    per_state = fit["per_state_residuals"]
    _require(len(per_state) == len(rows), "one residual per calibration row")
    _close(fit["residual"], math.fsum(per_state), 1e-12, "residual sum")
    terms = [ref.calibration_terms(ref.calibration_state(float(r["theta1"]), float(r["theta2"])))
             for r in rows]
    measured = [float(r["V_mean"]) for r in rows]
    eta2 = (1.0 - fit["alpha"]) ** 2
    for (a, b), m, res in zip(terms, measured, per_state):
        _close(res, (a - eta2 * b - m) ** 2, 1e-12, "per-state residual")
    _close(fit["alpha"], ref.least_squares_alpha(terms, measured), 1e-5, "alpha vs exact least squares")
    _close(fit["alpha"], CALIBRATION_ALPHA, FIT_TOL, "alpha vs generating alpha")
    return []


# --------------------------------------------------------------- queries


def _random_state_files(rng, work):
    """Two-qutrit state files: pure, product, noisy-singlet and random mixed states."""
    paths = []
    os.makedirs(work, exist_ok=True)

    def pure(dim):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return v / np.linalg.norm(v)

    for k in range(12):
        kind = k % 4
        if kind < 2:
            vec = pure(9) if kind == 0 else np.kron(pure(3), pure(3))
            vec = vec / np.linalg.norm(vec)
            data = {"amplitudes": [[float(z.real), float(z.imag)] for z in vec]}
        else:
            if kind == 2:
                p = float(rng.uniform(0.5, 1.0))
                rho = p * np.outer(ref.SINGLET, ref.SINGLET.conj()) + (1 - p) * np.eye(9) / 9
            else:
                g = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
                rho = g @ g.conj().T
                rho = rho / np.trace(rho).real
            rho = (rho + rho.conj().T) / 2.0
            data = {"entries": [[[float(z.real), float(z.imag)] for z in row] for row in rho]}
        path = os.path.join(work, f"state_{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        # the program reads back what was written, so the reference does too
        paths.append((path, _load_rho(data)))
    return paths


def _load_rho(data):
    if "amplitudes" in data:
        vec = np.array([complex(re, im) for re, im in data["amplitudes"]])
        return np.outer(vec, vec.conj())
    return np.array([[complex(re, im) for re, im in row] for row in data["entries"]])


def _check_local(res, lam, mu, alpha, certified, what):
    vec = np.array([complex(re, im) for re, im in res["minimizer"]["amplitudes"]])
    _close(float(np.linalg.norm(vec)), 1.0, 1e-9, f"{what} minimizer norm")
    vx, vy = ref.local_variances(vec, alpha)
    _close(res["value"], lam * vx + mu * vy, VALUE_TOL, f"{what} value at its minimizer")
    for got, want in zip(res["means"], ref.local_means(vec, alpha)):
        _close(got, want, VALUE_TOL, f"{what} means")
    _check_exact(res["value"], lam, mu, alpha, certified, what)


def check_bound(result, lam, mu, alpha, alpha_b):
    _exit(result)
    out = _json(result)
    for key, want in (("lambda", lam), ("mu", mu), ("alpha", alpha), ("alpha_b", alpha_b)):
        _require(out[key] == want, f"{key} echoed as {out[key]!r}")
    results = out["results"]
    certified = result.code == EXIT_OK
    converged = True
    for method in ("seesaw", "grid"):
        r = results[method]
        _check_local(r["local_a"], lam, mu, alpha, certified, f"{method} local_a")
        _check_local(r["local_b"], lam, mu, alpha_b, certified, f"{method} local_b")
        _close(r["c_sep"], r["local_a"]["value"] + r["local_b"]["value"], 1e-12, f"{method} c_sep sum")
        converged = converged and r["local_a"]["converged"] and r["local_b"]["converged"]
    _require(out["c_sep"] == results["seesaw"]["c_sep"], "c_sep is not the seesaw value")
    gap = results["seesaw"]["c_sep"] - results["grid"]["c_sep"]
    want_code = EXIT_OK if converged and abs(gap) <= 1e-4 else EXIT_NUMERICAL
    _require(result.code == want_code, f"exit {result.code}, expected {want_code}")
    if certified:
        _require(abs(gap) <= AGREE_TOL, f"seesaw and mesh differ by {gap:.3e}")
    errors = []
    if lam == mu == 0.5:
        exact = ref.sep_bound_half(alpha, alpha_b)
        methods = ["grid"] + (["seesaw"] if certified else [])
        errors = [abs(results[m]["c_sep"] - exact) for m in methods]
        _require(max(errors) <= EXACT_TOL, f"c_sep(1/2) off the closed form by {max(errors):.3e}")
    return errors


def check_witness(result, lam, alpha, adapted, tuple_=None, rho=None):
    _exit(result)
    out = _json(result)
    d2x, d2y = tuple_ if tuple_ is not None else ref.global_variance_tuple(rho, alpha)
    _close(out["d2x"], max(d2x, 0.0), VALUE_TOL, "d2x")
    _close(out["d2y"], max(d2y, 0.0), VALUE_TOL, "d2y")
    _close(out["v_value"], lam * out["d2x"] + (1 - lam) * out["d2y"], 1e-12, "v_value")
    _close(out["margin"], out["c_sep"] - out["v_value"], 1e-12, "margin")
    _require(out["detected"] == (out["margin"] > 0), "detected contradicts margin")
    _require(out["adapted"] == adapted, "adapted flag")
    bound_alpha = alpha if adapted else 0.0
    _check_exact(out["c_sep"] / 2.0, lam, 1.0 - lam, bound_alpha, result.code == EXIT_OK, "c_sep/2")
    if lam == 0.5 and result.code == EXIT_OK:
        err = abs(out["c_sep"] - ref.sep_bound_half(bound_alpha))
        _require(err <= EXACT_TOL, f"c_sep(1/2) off the closed form by {err:.3e}")
        return [err]
    return []


def check_region(result, alpha, out_dir):
    _exit(result)
    csv_path = os.path.join(out_dir, "region.csv")
    _manifests([csv_path])
    rows = _read_csv(csv_path)
    lams = np.linspace(0.0, 1.0, 21)[1:-1]
    _require(len(rows) == len(lams), f"region.csv has {len(rows)} rows")
    errors = []
    for row, lam in zip(rows, lams):
        _close(float(row["lambda"]), lam, 1e-15, "region lambda")
        c, dx, dy = float(row["c"]), float(row["delta2x"]), float(row["delta2y"])
        _require(dx >= -VALUE_TOL and dy >= -VALUE_TOL, "negative variance on the boundary")
        _close(lam * dx + (1 - lam) * dy, c, VALUE_TOL, "boundary point off its supporting line")
        _check_exact(c, lam, 1 - lam, alpha, result.code == EXIT_OK, f"region c({lam})")
        if lam == 0.5 and result.code == EXIT_OK:
            errors.append(abs(2.0 * c - ref.sep_bound_half(alpha)))
            _require(errors[-1] <= EXACT_TOL, f"c_sep(1/2) off the closed form by {errors[-1]:.3e}")
    return errors


def check_simulate(result, alpha, shots, trials, seed, rho):
    _exit(result, (EXIT_OK,))
    out = _json(result)
    for key, want in (("alpha", alpha), ("shots", shots), ("trials", trials), ("seed", seed)):
        _require(out[key] == want, f"{key} echoed as {out[key]!r}")
    per_trial = np.array(out["per_trial"], dtype=float)
    _require(per_trial.shape == (trials, 2), f"per_trial shape {per_trial.shape}")
    exact = ref.global_variance_tuple(rho, alpha)
    for k, key in enumerate(("d2x", "d2y")):
        _close(out[key], float(np.mean(per_trial[:, k])), 1e-12, f"{key} mean of trials")
        std = float(np.std(per_trial[:, k], ddof=1))
        _close(out[f"{key}_std"], std, 1e-12, f"{key}_std")
        # 8 standard errors: a false alarm is below 1e-6 per value at 20 trials
        _close(out[key], exact[k], 8.0 * std / math.sqrt(trials) + 1e-9, f"{key} vs exact")
    _close(out["v_half_half"], 0.5 * out["d2x"] + 0.5 * out["d2y"], 1e-12, "v_half_half")
    return []


def queries_workload(seed, work):
    """150 interactive requests per pass, in a seeded, shuffled order; every pass repeats them."""
    ops = query_stream(seed, os.path.join(work, "stream"))
    warmup = [Op(o.argv, lambda r: [], o.out_dir) for o in query_stream(seed, os.path.join(work, "warmup"))[:8]]
    return Workload(ops=ops, warmup=warmup)


def _strata(rng, n, lo, hi):
    """n values in [lo, hi], one uniform inside each of n equal strata, in a random order."""
    return rng.permutation(lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n)


def query_stream(seed, work):
    """One pass of requests, mixed so that p50 and p90 fall inside latency clusters.

    About a third are fast (simulate, witness; 5-25 ms), half are single
    `bound` calls (about 80 ms) and a sixth are slow (`--alpha-b` bounds,
    regions, stalls; 150-600 ms). The lambda = 1/2 block asks once for
    every alpha on a 0.05 grid, so every stream holds the flat-valley stall
    at alpha = 0.5 and the degenerate box at alpha = 1. The other bounds
    take one point in each cell of a 12 x 6 grid over lambda / (lambda + mu)
    and alpha: the seesaw stalls where lambda is close to mu and alpha is
    small, and a fixed number of cells there keeps the count of stalls
    nearly the same from seed to seed.
    """
    rng = np.random.default_rng([seed, 7])
    states = _random_state_files(rng, os.path.join(work, "states"))
    singlet = np.outer(ref.SINGLET, ref.SINGLET.conj())
    ops = []

    def cli_seed():
        return int(rng.integers(0, 2**31))

    def bound(lam, mu, alpha, alpha_b=None):
        argv = ["bound", "--lambda", _fmt(lam), "--mu", _fmt(mu), "--alpha", _fmt(alpha),
                "--seed", str(cli_seed())]
        if alpha_b is not None:
            argv += ["--alpha-b", _fmt(alpha_b)]
        b = alpha if alpha_b is None else alpha_b
        ops.append(Op(argv, lambda r: check_bound(r, lam, mu, alpha, b)))

    for alpha in rng.permutation(ALPHA_GRID):
        bound(0.5, 0.5, float(alpha))
    ratio_cells, alpha_cells = 12, 6
    alphas_b = _strata(rng, ratio_cells * alpha_cells, 0.0, 1.0)
    for k in range(ratio_cells * alpha_cells):
        i, j = divmod(k, alpha_cells)
        ratio = 0.02 + 0.96 * (i + float(rng.uniform())) / ratio_cells
        scale = 1.0 if k % 6 else float(rng.uniform(0.3, 1.8))
        lam, mu = round(ratio * scale, 4), round((1.0 - ratio) * scale, 4)
        alpha = 1.0 if k % 24 == 23 else round((j + float(rng.uniform())) / alpha_cells, 3)
        alpha_b = round(float(alphas_b[k]), 3) if k % 7 in (1, 3, 5) else None
        bound(lam, mu, alpha, alpha_b)

    witness_lams, witness_alphas = _strata(rng, 34, 0.05, 0.95), _strata(rng, 34, 0.0, 0.6)
    for k in range(34):
        lam = 0.5 if k % 5 == 0 else round(float(witness_lams[k]), 4)
        alpha = round(float(witness_alphas[k]), 3)
        adapted = bool(k % 3)
        argv = ["witness", "--alpha", _fmt(alpha), "--lambda", _fmt(lam),
                "--adapted" if adapted else "--non-adapted", "--seed", str(cli_seed())]
        if k % 2:
            path, rho = states[int(rng.integers(len(states)))]
            argv += ["--state", path]
            check = (lambda r, lam=lam, alpha=alpha, adapted=adapted, rho=rho:
                     check_witness(r, lam, alpha, adapted, rho=rho))
        else:
            t = (round(float(rng.uniform(0.0, 1.5)), 4), round(float(rng.uniform(0.0, 1.5)), 4))
            argv += ["--tuple", f"{t[0]!r},{t[1]!r}"]
            check = (lambda r, lam=lam, alpha=alpha, adapted=adapted, t=t:
                     check_witness(r, lam, alpha, adapted, tuple_=t))
        ops.append(Op(argv, check))

    for k in range(3):
        # one alpha from each third of the grid: a region costs 30 ms at alpha = 1, 800 ms at 0
        alpha = float(rng.choice(ALPHA_GRID[7 * k:7 * k + 7]))
        out = os.path.join(work, f"region_{k}")
        ops.append(Op(["region", "--lambdas", "19", "--alpha", _fmt(alpha),
                                 "--output-dir", out, "--seed", str(cli_seed())],
                      lambda r, alpha=alpha, out=out: check_region(r, alpha, out), out_dir=out))

    for k in range(20):
        alpha = round(float(rng.uniform(0.0, 1.0)), 3)
        shots, trials, sim_seed = 2000, 20, cli_seed()
        if k % 2:
            path, rho = states[int(rng.integers(len(states)))]
        else:
            path, rho = "singlet", singlet
        ops.append(Op(["simulate", "--state", path, "--alpha", _fmt(alpha),
                                   "--shots", str(shots), "--trials", str(trials), "--seed", str(sim_seed)],
                      lambda r, a=alpha, s=sim_seed, rho=rho: check_simulate(r, a, shots, trials, s, rho)))

    return [ops[i] for i in rng.permutation(len(ops))]


WORKLOADS = {
    "report": report_workload,
    "calibrate": calibrate_workload,
    "queries": queries_workload,
}

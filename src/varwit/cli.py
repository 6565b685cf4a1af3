"""Command line front end for reproducible witness workflows.

Every command that writes files drops a sibling manifest next to each
artifact; replaying the manifest re-runs the exact command with its
resolved seed and reproduces the bytes. Exit codes follow one
convention: 0 success, 2 numerical warning (a result is printed but some
solve did not certify; stderr names its lambdas), 64 usage, 74 I/O.
Every bound comes from one rule, `bounds._certify`: a coarse
branch-and-bound from the box alone, then a polish of its lowest vertex;
a converged polish, or a stalled polish whose branch-and-bound lower
bound proves it within `bounds.GAP_TOL`, certifies. `bound` solves both
parties through `bounds.local_bounds`, in one batch, so each result is
the party's `certified_bound`, the one `witness`, `region` and `report`
use; it prints that result under every route --method names (seesaw,
grid or both) and exits 2 unless both parties certify. No bound draws
seeded starts: `bound`, `region`, `witness` and `report` keep --starts
and --seed parsed so that old command lines and recorded manifests still
run, and no output of theirs depends on either.

The argument parser is built once, when the module is imported, and
every `main` call reuses it; `main` looks up the command function
`cmd_<command>` by name at call time, so replacing one in the module
(a test, a tracer) takes effect on the next call.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .bounds import (
    WeightedPair,
    certified_bound,
    local_bounds,
    sep_bound_curve,
    trace_region,
)
from .noise import fit_alpha, spin1_moment_pairs, spin1_povms
from .operators import (
    DensityMatrix,
    HermitianOperator,
    MomentPair,
    PureState,
    variance,
)
from .simulate import (
    SampleConfig,
    TestStateParams,
    make_singlet,
    make_test_state,
    run_calibration,
    sample_std,
    sample_variance_tuple,
    theta1_sweep,
    theta2_sweep,
)
from .svgplot import svg_line_plot
from .witness import (
    build_global_moments,
    detection_window,
    evaluate_witness_from_tuple,
    knot_spacing,
)

ENV_SEED = "VARWIT_SEED"

EXIT_OK = 0
EXIT_NUMERICAL = 2
EXIT_USAGE = 64
EXIT_IO = 74


class _UsageError(Exception):
    pass


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_at_least(low: int):
    """argparse type: an integer >= low, rejected while the arguments are parsed."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _resolve_seed(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is not None:
        return int(seed)
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"{ENV_SEED} must be an integer, got {env!r}")
    return 0


_SKIP_KEYS = {"command", "seed"}

_FLAG_NAMES = {"lam": "--lambda", "tuple_": "--tuple"}


def _manifest_parameters(args, seed: int) -> dict:
    params: Dict[str, object] = {}
    for key, value in vars(args).items():
        if key in _SKIP_KEYS:
            continue
        params[key] = value
    params["seed"] = seed
    params["argv"] = _replay_argv(args.command, params)
    return params


def _replay_argv(command: str, params: dict) -> List[str]:
    argv = [command]
    for key, value in params.items():
        if value is None or key == "argv":
            continue
        flag = _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))
        if isinstance(value, bool):
            if key == "adapted":
                argv.append("--adapted" if value else "--non-adapted")
            elif value:
                argv.append(flag)
            continue
        argv.extend([flag, str(value)])
    return argv


def _emit_manifests(args, seed: int, artifact_paths: Sequence[str]) -> None:
    manifest = {
        "command": args.command,
        "parameters": _manifest_parameters(args, seed),
        "seed": seed,
        "artifact_paths": list(artifact_paths),
        "tool_version": __version__,
    }
    payload = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    for path in artifact_paths:
        with open(path + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(payload)


def replay_manifest(path: str) -> int:
    """Re-run the command recorded in a manifest; outputs are bit-identical."""
    with open(path, encoding="utf-8") as fh:
        argv = json.load(fh)["parameters"]["argv"]
    return main(list(argv))


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _read_csv(path: str) -> Tuple[set, List[dict]]:
    """The header's columns and the data rows of a CSV file.

    The header alone decides the format, so a file with no data rows is
    read as valid and fails later, as empty data. A data row with fewer or
    more fields than the header is malformed.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for row in reader:
            # DictReader fills the fields a short row lacks with None, and
            # files a long row's extra fields under the key None
            if None in row.values() or None in row:
                which = "more" if None in row else "fewer"
                raise _UsageError(
                    f"CSV file {path!r} line {reader.line_num} has {which} fields than its header"
                )
            rows.append(row)
        # read while the file is open: DictReader looks for the header
        # line of an empty file again on every access
        columns = set(reader.fieldnames or ())
    return columns, rows


def _load_state(source: str) -> DensityMatrix:
    """A state source: the name 'singlet' or a JSON file path.

    The file may hold a pure state ({"amplitudes": [[re,im],...]}) or a
    density matrix in operator form ({"entries": [[[re,im],...],...]}).
    """
    if source == "singlet":
        return make_singlet().density()
    with open(source, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise _UsageError(f"state file {source!r} does not hold a JSON object")
    try:
        if "amplitudes" in data:
            return PureState.from_dict(data).density()
        if "entries" in data:
            return DensityMatrix(HermitianOperator.from_dict(data))
    except TypeError as exc:
        # numbers where [re, im] pairs belong, or the reverse
        raise _UsageError(f"state file {source!r} is malformed: {exc}")
    raise _UsageError(f"state file {source!r} has neither amplitudes nor entries")


def _parse_tuple(text: str) -> Tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError(f"--tuple expects 'd2x,d2y', got {text!r}")
    try:
        d2x, d2y = float(parts[0]), float(parts[1])
    except ValueError:
        raise _UsageError(f"--tuple expects two numbers, got {text!r}")
    if not (math.isfinite(d2x) and math.isfinite(d2y)):
        raise _UsageError(f"--tuple expects finite numbers, got {text!r}")
    if d2x < 0 or d2y < 0:
        raise _UsageError(f"--tuple variances must be nonnegative, got {text!r}")
    return d2x, d2y


def _parse_lambdas(text: str) -> List[float]:
    try:
        count = int(text)
    except ValueError:
        try:
            return [float(v) for v in text.split(",")]
        except ValueError:
            raise _UsageError(f"--lambdas expects a count or comma-separated values, got {text!r}")
    if count < 1:
        raise _UsageError(f"--lambdas count must be >= 1, got {count}")
    return [float(l) for l in np.linspace(0.0, 1.0, count + 2)[1:-1]]


def _measured_tuples(
    args, *pair_sets: Tuple[MomentPair, MomentPair]
) -> List[Tuple[float, float]]:
    """The --tuple given, else the --state's exact global variance tuple per pair set."""
    if args.tuple_ is not None:
        return [_parse_tuple(args.tuple_)] * len(pair_sets)
    state = _load_state(args.state)
    # exact spin-zero states land at zero up to rounding dust
    return [
        tuple(max(variance(state, build_global_moments(p)), 0.0) for p in pairs)
        for pairs in pair_sets
    ]


def _uncertified_exit(what: str, lams: Sequence[float], certified: Sequence[bool]) -> int:
    """Name on stderr the lambdas where `what` did not certify; the exit code."""
    missed = [repr(float(lam)) for lam, ok in zip(lams, certified) if not ok]
    if not missed:
        return EXIT_OK
    print(f"varwit: {what} did not certify at lambda = {', '.join(missed)}", file=sys.stderr)
    return EXIT_NUMERICAL


def cmd_bound(args) -> int:
    alpha_b = args.alpha_b if args.alpha_b is not None else args.alpha
    pair_a = WeightedPair(args.lam, args.mu, *spin1_moment_pairs(args.alpha))
    pair_b = (
        pair_a
        if alpha_b == args.alpha
        else WeightedPair(args.lam, args.mu, *spin1_moment_pairs(alpha_b))
    )
    routed = local_bounds([pair_a] if pair_b is pair_a else [pair_a, pair_b])
    res_a, res_b = routed[0], routed[-1]
    c_sep = res_a.value + res_b.value
    # every route is the same run, printed under each key asked for
    labels = {"seesaw": "seesaw", "grid": "grid_refined"}
    results = {
        key: {
            "local_a": dict(res_a.to_dict(), method=labels[key]),
            "local_b": dict(res_b.to_dict(), method=labels[key]),
            "c_sep": c_sep,
        }
        for key in (labels if args.method == "both" else [args.method])
    }
    _print_json(
        {
            "lambda": args.lam,
            "mu": args.mu,
            "alpha": args.alpha,
            "alpha_b": alpha_b,
            "c_sep": c_sep,
            "results": results,
        }
    )
    return _uncertified_exit("bound", [args.lam], [res_a.certified and res_b.certified])


def cmd_region(args) -> int:
    seed = _resolve_seed(args)
    lambdas = _parse_lambdas(args.lambdas)
    x, y = spin1_moment_pairs(args.alpha)
    region = trace_region(x, y, lambdas)
    os.makedirs(args.output_dir, exist_ok=True)
    csv_path = os.path.join(args.output_dir, "region.csv")
    rows = [
        [lam, c, point[0], point[1]]
        for lam, c, point in zip(region.lambdas, region.bounds, region.points)
    ]
    _write_csv(csv_path, ["lambda", "c", "delta2x", "delta2y"], rows)
    paths = [csv_path]
    if args.svg:
        svg_path = os.path.join(args.output_dir, "region.svg")
        svg_line_plot(
            svg_path,
            [("boundary", [p[0] for p in region.points], [p[1] for p in region.points])],
            title=f"variance region boundary, alpha={args.alpha}",
            xlabel="delta2 X",
            ylabel="delta2 Y",
        )
        paths.append(svg_path)
    _emit_manifests(args, seed, paths)
    return _uncertified_exit("region point", region.lambdas, region.certified)


def cmd_witness(args) -> int:
    seed = _resolve_seed(args)
    noisy_pairs = spin1_moment_pairs(args.alpha)
    bound_pairs = noisy_pairs if args.adapted else spin1_moment_pairs(0.0)
    d2x, d2y = _measured_tuples(args, noisy_pairs)[0]
    local = certified_bound(WeightedPair(args.lam, 1.0 - args.lam, *bound_pairs))
    verdict = evaluate_witness_from_tuple(d2x, d2y, args.lam, 1.0 - args.lam, 2.0 * local.value)
    code = EXIT_OK
    if args.output_dir is not None:
        os.makedirs(args.output_dir, exist_ok=True)
        lams, cs, certified = sep_bound_curve(*bound_pairs, num=args.lambda_grid)
        v = lams * d2x + (1.0 - lams) * d2y
        rows = list(zip(lams.tolist(), v.tolist(), cs.tolist(), (v < cs).tolist()))
        csv_path = os.path.join(args.output_dir, "witness_sweep.csv")
        _write_csv(csv_path, ["lambda", "V", "c", "detected"], rows)
        _emit_manifests(args, seed, [csv_path])
        code = _uncertified_exit("sweep bound", lams, certified)
    _print_json(
        {
            "alpha": args.alpha,
            "adapted": args.adapted,
            "d2x": d2x,
            "d2y": d2y,
            "lambda": verdict.lam,
            "mu": verdict.mu,
            "v_value": verdict.v_value,
            "c_sep": verdict.c_sep,
            "detected": verdict.detected,
            "margin": verdict.margin,
        }
    )
    return max(code, _uncertified_exit("bound", [args.lam], [local.certified]))


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    state = _load_state(args.state)
    povm_x, povm_y = spin1_povms(args.alpha)
    config = SampleConfig(shots=args.shots, seed=seed, trials=args.trials)
    d2x, d2y, per_trial = sample_variance_tuple(state, povm_x, povm_x, povm_y, povm_y, config)
    _print_json(
        {
            "alpha": args.alpha,
            "shots": args.shots,
            "trials": args.trials,
            "seed": seed,
            "d2x": d2x,
            "d2y": d2y,
            "d2x_std": sample_std([t[0] for t in per_trial]),
            "d2y_std": sample_std([t[1] for t in per_trial]),
            "v_half_half": 0.5 * d2x + 0.5 * d2y,
            "per_trial": [[t[0], t[1]] for t in per_trial],
        }
    )
    return EXIT_OK


def _load_sweep_file(path: str) -> List[TestStateParams]:
    columns, rows = _read_csv(path)
    if not {"theta1_deg", "theta2_deg"}.issubset(columns):
        raise OSError(f"sweep file {path!r} needs columns theta1_deg,theta2_deg")
    return [
        TestStateParams(theta1=float(r["theta1_deg"]), theta2=float(r["theta2_deg"]))
        for r in rows
    ]


def cmd_calibrate(args) -> int:
    seed = _resolve_seed(args)
    if args.sweep == "theta1":
        sweep = theta1_sweep(args.steps)
    elif args.sweep == "theta2":
        sweep = theta2_sweep(args.steps)
    else:
        sweep = _load_sweep_file(args.sweep)
    config = SampleConfig(shots=args.shots, seed=seed, trials=args.trials)
    records = run_calibration(sweep, args.alpha, config)
    os.makedirs(args.output_dir, exist_ok=True)
    csv_path = os.path.join(args.output_dir, "calibration.csv")
    rows = [
        [r.params.theta1, r.params.theta2, r.v_ideal, r.v_noisy, r.v_sampled_mean, r.v_sampled_std]
        for r in records
    ]
    _write_csv(
        csv_path, ["theta1", "theta2", "V_ideal", "V_noisy", "V_mean", "V_std"], rows
    )
    paths = [csv_path]
    if args.svg:
        theta1s = [r.params.theta1 for r in records]
        varying_theta1 = len(set(theta1s)) > 1
        xs = theta1s if varying_theta1 else [r.params.theta2 for r in records]
        svg_path = os.path.join(args.output_dir, "calibration.svg")
        svg_line_plot(
            svg_path,
            [
                ("V ideal", xs, [r.v_ideal for r in records]),
                ("V noisy", xs, [r.v_noisy for r in records]),
                ("V sampled", xs, [r.v_sampled_mean for r in records]),
            ],
            title=f"calibration sweep, alpha={args.alpha}",
            xlabel="theta1 (deg)" if varying_theta1 else "theta2 (deg)",
            ylabel="V at weights (1/2, 1/2)",
        )
        paths.append(svg_path)
    _emit_manifests(args, seed, paths)
    return EXIT_OK


def cmd_fit_noise(args) -> int:
    columns, rows = _read_csv(args.input)
    if {"theta1_deg", "theta2_deg", "V_measured"}.issubset(columns):
        t1_col, t2_col, v_col = "theta1_deg", "theta2_deg", "V_measured"
    elif {"theta1", "theta2", "V_mean"}.issubset(columns):
        # the calibrate command's own output feeds straight back in
        t1_col, t2_col, v_col = "theta1", "theta2", "V_mean"
    else:
        raise OSError(
            f"calibration file {args.input!r} needs columns theta1_deg,theta2_deg,V_measured"
        )
    calibration = [
        (
            make_test_state(
                TestStateParams(theta1=float(r[t1_col]), theta2=float(r[t2_col]))
            ),
            float(r[v_col]),
        )
        for r in rows
    ]
    fit = fit_alpha(calibration, weights=(args.lam, args.mu))
    _print_json(
        {
            "alpha": fit.alpha,
            "residual": fit.residual,
            "per_state_residuals": list(fit.per_state_residuals),
        }
    )
    return EXIT_OK


def cmd_report(args) -> int:
    seed = _resolve_seed(args)
    ideal_pairs = spin1_moment_pairs(0.0)
    noisy_pairs = ideal_pairs if args.alpha == 0.0 else spin1_moment_pairs(args.alpha)
    tuple_ideal, tuple_noisy = _measured_tuples(args, ideal_pairs, noisy_pairs)
    lams, c_noiseless, ok_noiseless = sep_bound_curve(*ideal_pairs, num=args.lambda_grid)
    if noisy_pairs is ideal_pairs:
        c_adapted, ok_adapted = c_noiseless, ok_noiseless
    else:
        _, c_adapted, ok_adapted = sep_bound_curve(*noisy_pairs, num=args.lambda_grid)
    windows = {
        "ideal": detection_window(*tuple_ideal, lams, c_noiseless),
        "adapted": detection_window(*tuple_noisy, lams, c_adapted),
        "non_adapted": detection_window(*tuple_noisy, lams, c_noiseless),
    }
    # V at every knot, formed as `detection_window` forms it
    v_ideal = lams * tuple_ideal[0] + (1.0 - lams) * tuple_ideal[1]
    v_noisy = lams * tuple_noisy[0] + (1.0 - lams) * tuple_noisy[1]
    columns = (
        lams,
        v_ideal,
        v_noisy,
        c_noiseless,
        c_adapted,
        v_ideal < c_noiseless,
        v_noisy < c_adapted,
        v_noisy < c_noiseless,
    )
    rows = list(zip(*(col.tolist() for col in columns)))
    os.makedirs(args.output_dir, exist_ok=True)
    csv_path = os.path.join(args.output_dir, "report.csv")
    _write_csv(
        csv_path,
        [
            "lambda",
            "v_ideal",
            "v_noisy",
            "c_noiseless",
            "c_adapted",
            "detected_ideal",
            "detected_adapted",
            "detected_non_adapted",
        ],
        rows,
    )
    windows_path = os.path.join(args.output_dir, "windows.json")
    summary = {
        "alpha": args.alpha,
        "resolution": knot_spacing(lams),
        "tuple_ideal": [tuple_ideal[0], tuple_ideal[1]],
        "tuple_noisy": [tuple_noisy[0], tuple_noisy[1]],
        "windows": {key: [w.to_dict() for w in ws] for key, ws in windows.items()},
        "detected": bool(windows["adapted"]),
    }
    with open(windows_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    paths = [csv_path, windows_path]
    if args.svg:
        svg_path = os.path.join(args.output_dir, "report.svg")
        series = [
            ("c noiseless", lams, c_noiseless),
            ("c adapted", lams, c_adapted),
            ("V measured", lams, v_noisy),
        ]
        svg_line_plot(
            svg_path,
            series,
            title=f"witness sweep, alpha={args.alpha}",
            xlabel="lambda",
            ylabel="value",
        )
        paths.append(svg_path)
    _emit_manifests(args, seed, paths)
    _print_json(summary)
    return _uncertified_exit("bound curve", lams, ok_noiseless & ok_adapted)


def build_parser() -> _CliParser:
    parser = _CliParser(
        prog="varwit",
        description="Noise-adapted variance witnesses: bounds, verdicts, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CliParser)

    def add_seed(p, help=f"RNG seed (default: ${ENV_SEED} or 0)"):
        p.add_argument("--seed", type=int, default=None, help=help)

    # no bound draws starts; the bound commands keep --starts and --seed
    # parsed, because old command lines and recorded manifests pass them
    ignored_starts = dict(type=_int_at_least(1), default=16,
                          help="ignored: no bound draws seeded starts")
    manifest_seed = f"recorded in manifests (default: ${ENV_SEED} or 0); no bound draws seeded starts"

    b = sub.add_parser("bound", help="local uncertainty bound and composed two-party bound")
    b.add_argument("--lambda", dest="lam", type=float, required=True)
    b.add_argument("--mu", type=float, required=True)
    b.add_argument("--alpha", type=float, default=0.0)
    b.add_argument("--alpha-b", dest="alpha_b", type=float, default=None,
                   help="noise on the second party (default: same as --alpha)")
    b.add_argument("--method", choices=["seesaw", "grid", "both"], default="both")
    b.add_argument("--starts", **ignored_starts)
    add_seed(b, "ignored: no bound draws seeded starts")

    r = sub.add_parser("region", help="trace the variance region lower boundary")
    r.add_argument("--lambdas", required=True,
                   help="interior point count, or comma-separated lambda values")
    r.add_argument("--alpha", type=float, default=0.0)
    r.add_argument("--starts", **ignored_starts)
    r.add_argument("--output-dir", dest="output_dir", default=".")
    r.add_argument("--svg", action="store_true")
    add_seed(r, manifest_seed)

    w = sub.add_parser("witness", help="witness verdict for a state or variance tuple")
    src = w.add_mutually_exclusive_group(required=True)
    src.add_argument("--state", help="'singlet' or a JSON state file")
    src.add_argument("--tuple", dest="tuple_", help="measured variances 'd2x,d2y'")
    w.add_argument("--alpha", type=float, default=0.0)
    w.add_argument("--lambda", dest="lam", type=float, default=0.5)
    w.add_argument("--lambda-grid", dest="lambda_grid", type=_int_at_least(2), default=201)
    w.add_argument("--adapted", dest="adapted", action="store_true", default=True,
                   help="judge against the noise-adapted bound (default)")
    w.add_argument("--non-adapted", dest="adapted", action="store_false",
                   help="judge against the noiseless bound")
    w.add_argument("--starts", **ignored_starts)
    w.add_argument("--output-dir", dest="output_dir", default=None,
                   help="also write the lambda sweep CSV here")
    add_seed(w, manifest_seed)

    s = sub.add_parser("simulate", help="finite-statistics variance tuple of a state")
    s.add_argument("--state", default="singlet")
    s.add_argument("--alpha", type=float, default=0.0)
    s.add_argument("--shots", type=int, default=20000)
    s.add_argument("--trials", type=int, default=100)
    add_seed(s)

    c = sub.add_parser("calibrate", help="sweep test states through the measurement box")
    c.add_argument("--sweep", required=True,
                   help="'theta1', 'theta2', or a CSV file with theta1_deg,theta2_deg")
    c.add_argument("--alpha", type=float, default=0.0)
    c.add_argument("--steps", type=_int_at_least(1), default=45)
    c.add_argument("--shots", type=int, default=20000)
    c.add_argument("--trials", type=int, default=100)
    c.add_argument("--output-dir", dest="output_dir", default=".")
    c.add_argument("--svg", action="store_true")
    add_seed(c)

    f = sub.add_parser("fit-noise", help="fit the noise parameter from calibration data")
    f.add_argument("--input", required=True,
                   help="CSV with columns theta1_deg,theta2_deg,V_measured")
    f.add_argument("--lambda", dest="lam", type=float, default=0.5)
    f.add_argument("--mu", type=float, default=0.5)

    rep = sub.add_parser("report", help="full sweep: bound curves, verdicts, windows")
    rsrc = rep.add_mutually_exclusive_group(required=True)
    rsrc.add_argument("--state", help="'singlet' or a JSON state file")
    rsrc.add_argument("--tuple", dest="tuple_", help="measured variances 'd2x,d2y'")
    rep.add_argument("--alpha", type=float, default=0.0)
    rep.add_argument("--lambda-grid", dest="lambda_grid", type=_int_at_least(2), default=201)
    rep.add_argument("--starts", **ignored_starts)
    rep.add_argument("--output-dir", dest="output_dir", default=".")
    rep.add_argument("--svg", action="store_true")
    add_seed(rep, manifest_seed)

    return parser


_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        print(f"varwit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # looked up now, so a cmd_* replaced after import is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except _UsageError as exc:
        print(f"varwit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"varwit: invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"varwit: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO

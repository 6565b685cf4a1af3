"""End-to-end checks of the command line front end.

Each test drives ``varwit.cli.main`` directly with an argv list, reads
stdout through capsys, and inspects the files a command leaves behind.
"""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from varwit import bounds, cli
from varwit import (
    TestStateParams,
    WeightedPair,
    __version__,
    certified_bound,
    make_singlet,
    make_test_state,
    seesaw_bound,
    spin1_moment_pairs,
    variance,
)
from helpers import capped_seesaw, local_infimum, raw_grid_route
from varwit.cli import (
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
    replay_manifest,
)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    return rows[0], rows[1:]


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE


def test_missing_required_flag_is_usage_error():
    assert main(["bound", "--mu", "0.5"]) == EXIT_USAGE


def test_witness_sources_are_mutually_exclusive():
    assert main(["witness", "--state", "singlet", "--tuple", "0.1,0.1"]) == EXIT_USAGE
    assert main(["witness"]) == EXIT_USAGE


def test_malformed_tuple_is_usage_error(tmp_path, capsys):
    assert main(["witness", "--tuple", "nope"]) == EXIT_USAGE
    assert main(["witness", "--tuple", "1,2,3"]) == EXIT_USAGE
    assert main(["witness", "--tuple", "nan,0.1"]) == EXIT_USAGE
    assert main(["report", "--tuple", "inf,0.1", "--output-dir", str(tmp_path)]) == EXIT_USAGE
    assert main(["report", "--tuple=-0.1,0.1", "--output-dir", str(tmp_path)]) == EXIT_USAGE
    assert main(["witness", "--tuple=-0.1,0.1"]) == EXIT_USAGE
    assert "variances must be nonnegative" in capsys.readouterr().err
    assert main(["report", "--state", "singlet", "--lambda-grid", "1",
                 "--output-dir", str(tmp_path)]) == EXIT_USAGE
    assert main(["witness", "--tuple", "0.1,0.1", "--lambda-grid", "0",
                 "--output-dir", str(tmp_path)]) == EXIT_USAGE
    assert main(["region", "--lambdas", "3", "--starts", "0",
                 "--output-dir", str(tmp_path)]) == EXIT_USAGE
    assert main(["bound", "--lambda", "1e308", "--mu", "1e308"]) == EXIT_USAGE
    # a step count below 1 would divide the sweep's span by zero
    assert main(["calibrate", "--sweep", "theta1", "--steps", "-1",
                 "--output-dir", str(tmp_path)]) == EXIT_USAGE
    # the multinomial sampler counts shots in int64
    capsys.readouterr()
    for command in (["simulate"], ["calibrate", "--sweep", "theta1", "--output-dir", str(tmp_path)]):
        assert main(command + ["--shots", "100000000000000000000"]) == EXIT_USAGE
        assert "shots must be at most 9223372036854775807" in capsys.readouterr().err
    # no mesh knob: every bound's first proof is a branch-and-bound with a fixed gap
    assert main(["bound", "--lambda", "0.5", "--mu", "0.5", "--grid-n", "5"]) == EXIT_USAGE
    assert main(["bound", "--lambda", "0.5", "--mu", "0.5", "--method", "seesaw",
                 "--grid-n", "5"]) == EXIT_USAGE
    assert main(["bound", "--lambda", "0.5", "--mu", "0.5", "--grid-n", "201"]) == EXIT_USAGE
    assert "unrecognized arguments: --grid-n" in capsys.readouterr().err
    # no resolution knob: window edges are exact for the interpolated curve
    assert main(["report", "--state", "singlet", "--resolution", "0.001",
                 "--output-dir", str(tmp_path)]) == EXIT_USAGE
    assert "unrecognized arguments: --resolution" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
    calib = tmp_path / "calibration.csv"
    calib.write_text("theta1_deg,theta2_deg,V_measured\n30,10,0.5\n60,30,0.6\n")
    for weights in (["--lambda", "nan"], ["--lambda", "inf"], ["--lambda", "0", "--mu", "0"],
                    ["--lambda", "1e300"]):
        assert main(["fit-noise", "--input", str(calib)] + weights) == EXIT_USAGE
    flat = tmp_path / "flat.csv"
    flat.write_text("theta1_deg,theta2_deg,V_measured\n0,10,0.5\n0,30,0.6\n")
    assert main(["fit-noise", "--input", str(flat)]) == EXIT_USAGE
    # the right header and no rows is empty data, not a missing column
    empty = tmp_path / "empty.csv"
    empty.write_text("theta1_deg,theta2_deg,V_measured\n")
    assert main(["fit-noise", "--input", str(empty)]) == EXIT_USAGE
    assert "calibration data is empty" in capsys.readouterr().err
    # the same for a sweep file: an empty sweep, not a missing column
    sweep = tmp_path / "sweep.csv"
    sweep.write_text("theta1_deg,theta2_deg\n")
    assert main(["calibrate", "--sweep", str(sweep),
                 "--output-dir", str(tmp_path / "out")]) == EXIT_USAGE
    assert "theta sweep is empty" in capsys.readouterr().err
    # a data row shorter or longer than its header is malformed, in either file
    short = tmp_path / "short.csv"
    for argv, text, line, which in (
        (["fit-noise", "--input", str(short)],
         "theta1_deg,theta2_deg,V_measured\n30,10,0.5\n10,20\n", 3, "fewer"),
        (["fit-noise", "--input", str(short)], "theta1,theta2,V_mean\n10,20\n", 2, "fewer"),
        (["calibrate", "--sweep", str(short), "--output-dir", str(tmp_path / "out")],
         "theta1_deg,theta2_deg\n10\n", 2, "fewer"),
        (["fit-noise", "--input", str(short)],
         "theta1_deg,theta2_deg,V_measured\n30,10,0.5,7\n60,30,0.6\n", 2, "more"),
        (["fit-noise", "--input", str(short)],
         "theta1,theta2,V_mean\n10,20,0.5\n30,40,0.6,\n", 3, "more"),
        (["calibrate", "--sweep", str(short), "--output-dir", str(tmp_path / "out")],
         "theta1_deg,theta2_deg\n10,20,30\n", 2, "more"),
    ):
        short.write_text(text)
        assert main(argv) == EXIT_USAGE
        assert f"CSV file {str(short)!r} line {line} has {which} fields" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_env_seed_is_usage_error(monkeypatch):
    monkeypatch.setenv("VARWIT_SEED", "three")
    assert main(["simulate", "--shots", "100", "--trials", "4"]) == EXIT_USAGE


def test_bound_noiseless_both_methods(capsys):
    code, payload = run_cli(
        ["bound", "--lambda", "0.5", "--mu", "0.5", "--method", "both"], capsys
    )
    assert code == EXIT_OK
    assert abs(payload["c_sep"] - 7.0 / 16.0) < 1e-6
    assert abs(payload["results"]["seesaw"]["c_sep"] - 7.0 / 16.0) < 1e-6
    assert abs(payload["results"]["grid"]["c_sep"] - 7.0 / 16.0) < 1e-4
    assert payload["lambda"] == 0.5 and payload["mu"] == 0.5
    assert payload["alpha"] == 0.0 and payload["alpha_b"] == 0.0


def test_bound_at_huge_weights_prints_its_rounding_dust(capsys):
    # at lam = 1e300 the zero bound comes out near -8e283 by rounding, 8e-17
    # of the weights' scale, and prints clamped at 0: valid JSON and the
    # usual exit rule, not a usage error
    code = main(["bound", "--lambda", "1e300", "--mu", "0"])

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    routes = payload["results"]
    assert set(routes) == {"seesaw", "grid"}
    for route in routes.values():
        assert 0.0 <= route["c_sep"] < 1e-15 * 1e300
    converged = all(r[k]["converged"] for r in routes.values() for k in ("local_a", "local_b"))
    assert code == (EXIT_OK if converged else EXIT_NUMERICAL)


def test_bound_at_tiny_weights_converges_in_their_scale(capsys):
    # the stop rule is relative to the penalty scale; an absolute 1e-10
    # stopped this run after 2 steps at 8.75000018610379e-13
    argv = ["bound", "--lambda", "1e-12", "--mu", "1e-12", "--method", "seesaw", "--seed", "1"]
    code, payload = run_cli(argv, capsys)
    assert code == EXIT_OK
    assert abs(payload["c_sep"] - 8.75e-13) <= 1e-12 * 8.75e-13


def test_bound_seesaw_at_huge_weights_prints_valid_json(capsys):
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    argv = ["bound", "--lambda", "1e300", "--mu", "1e300", "--alpha", "0.2"]
    for method in (["--method", "seesaw"], []):
        code = main(argv + method)
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert code == EXIT_OK
        assert abs(payload["c_sep"] - 1.5246875e300) <= 1e-12 * 1.5246875e300
    # the default prints both routes, one run under two labels
    routes = payload["results"]
    for side in ("local_a", "local_b"):
        assert routes["seesaw"][side].pop("method") == "seesaw"
        assert routes["grid"][side].pop("method") == "grid_refined"
    assert routes["seesaw"] == routes["grid"]


def test_bound_mixed_party_noise(capsys):
    code, payload = run_cli(
        [
            "bound",
            "--lambda", "0.5",
            "--mu", "0.5",
            "--alpha", "0.0",
            "--alpha-b", "0.2",
            "--method", "seesaw",
        ],
        capsys,
    )
    assert code == EXIT_OK
    local_a = payload["results"]["seesaw"]["local_a"]["value"]
    local_b = payload["results"]["seesaw"]["local_b"]["value"]
    assert abs(local_a - 7.0 / 32.0) < 1e-6
    assert local_b > local_a
    assert abs(payload["c_sep"] - (local_a + local_b)) < 1e-12
    assert abs(payload["c_sep"] - (0.4375 + 0.7614) / 2.0) < 2e-3


def bound_argv(lam, mu, alpha, alpha_b, method, seed=3):
    return ["bound", "--lambda", repr(lam), "--mu", repr(mu), "--alpha", repr(alpha),
            "--alpha-b", repr(alpha_b), "--method", method, "--seed", str(seed)]


@pytest.mark.parametrize("alpha_b", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("lam,mu", [(0.3, 0.7), (0.5, 0.5)])
def test_bound_request_shares_batches_but_not_rows(lam, mu, alpha_b, capsys):
    # both parties run in one proof and one polish batch, printed under both
    # route names;
    # every result must still be the one-pair solve, bit for bit (alpha_b = 1
    # is a box of zero width, lam = mu the ring of minimizers)
    alpha = 0.2
    _, both = run_cli(bound_argv(lam, mu, alpha, alpha_b, "both"), capsys)
    for side, a in (("local_a", alpha), ("local_b", alpha_b)):
        pair = WeightedPair(lam, mu, *spin1_moment_pairs(a))
        for method, res, label in (("seesaw", seesaw_bound(pair), "seesaw"),
                                   ("grid", certified_bound(pair), "grid_refined")):
            record = dict(res.to_dict(), method=label)
            assert both["results"][method][side] == json.loads(json.dumps(record))
    for method in ("seesaw", "grid"):
        _, one = run_cli(bound_argv(lam, mu, alpha, alpha_b, method), capsys)
        assert one["results"] == {method: both["results"][method]}


def test_bound_request_makes_one_proof_and_one_descent_batch(monkeypatch, capsys):
    counts = {"_branch_and_bound": 0, "_seesaw_rows": 0, "_spectral_box": 0, "eigh": 0, "eigvalsh": 0}

    def counted(name, fn, matrices=False):
        def wrapped(*args, **kwargs):
            # a stack of matrices counts each, a lone matrix once
            counts[name] += int(np.prod(np.shape(args[0])[:-2])) if matrices else 1
            return fn(*args, **kwargs)

        return wrapped

    for name in ("_branch_and_bound", "_seesaw_rows", "_spectral_box"):
        monkeypatch.setattr(bounds, name, counted(name, getattr(bounds, name)))
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name), True))
    run_cli(bound_argv(0.3, 0.7, 0.2, 0.4, "both", seed=0), capsys)
    assert (counts["_branch_and_bound"], counts["_seesaw_rows"]) == (1, 1)
    # each box solves its spectral box once, for the proof and the polish
    assert counts["_spectral_box"] == 2
    # the same matrices as the two one-pair solves, in fewer calls
    request = dict(counts)
    for name in counts:
        counts[name] = 0
    for a in (0.2, 0.4):
        certified_bound(WeightedPair(0.3, 0.7, *spin1_moment_pairs(a)))
    assert counts["_branch_and_bound"] == 2 and counts["_seesaw_rows"] == 2
    assert counts["_spectral_box"] == 2
    assert (request["eigh"], request["eigvalsh"]) == (counts["eigh"], counts["eigvalsh"])


def test_region_writes_csv_svg_and_manifests(tmp_path, capsys):
    out = str(tmp_path)
    code = main(
        ["region", "--lambdas", "0.2,0.5,0.8", "--output-dir", out, "--svg", "--seed", "5"]
    )
    capsys.readouterr()
    assert code == EXIT_OK
    header, rows = read_csv(os.path.join(out, "region.csv"))
    assert header == ["lambda", "c", "delta2x", "delta2y"]
    assert len(rows) == 3
    mid = rows[1]
    assert float(mid[0]) == 0.5
    assert abs(float(mid[1]) - 7.0 / 32.0) < 1e-6
    assert (
        abs(0.5 * float(mid[2]) + 0.5 * float(mid[3]) - float(mid[1])) < 1e-8
    )
    assert os.path.exists(os.path.join(out, "region.svg"))
    for name in ("region.csv", "region.svg"):
        manifest_path = os.path.join(out, name + ".manifest.json")
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "region"
        assert manifest["seed"] == 5
        assert manifest["tool_version"] == __version__
        assert manifest["artifact_paths"] == [
            os.path.join(out, "region.csv"),
            os.path.join(out, "region.svg"),
        ]
        assert manifest["parameters"]["argv"][0] == "region"


def test_region_uncertified_point_warns(tmp_path, capsys, monkeypatch):
    # after one step the first polish is stalled above the infimum;
    # the branch-and-bound proves the second polish, unless a cell cap
    # stops it first
    out = str(tmp_path)
    argv = ["region", "--lambdas", "0.2", "--output-dir", out]
    with capped_seesaw(1):
        assert main(argv) == EXIT_OK
        monkeypatch.setattr(bounds, "_MAX_CELLS", 2)
        code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL
    assert "did not certify" in captured.err
    assert os.path.exists(os.path.join(out, "region.csv"))


def test_region_replay_reproduces_bytes(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["region", "--lambdas", "3", "--output-dir", out, "--seed", "11"]) == EXIT_OK
    capsys.readouterr()
    csv_path = os.path.join(out, "region.csv")
    with open(csv_path, "rb") as fh:
        original = fh.read()
    os.remove(csv_path)
    code = replay_manifest(csv_path + ".manifest.json")
    capsys.readouterr()
    assert code == EXIT_OK
    with open(csv_path, "rb") as fh:
        replayed = fh.read()
    assert replayed == original


def test_witness_singlet_adapted(capsys):
    code, payload = run_cli(["witness", "--state", "singlet", "--alpha", "0.2"], capsys)
    assert code == EXIT_OK
    assert payload["adapted"] is True
    assert payload["detected"] is True
    assert abs(payload["v_value"] - 0.48) < 1e-9
    assert abs(payload["c_sep"] - 0.7614) < 2e-3
    assert payload["margin"] > 0.25
    assert abs(payload["lambda"] - 0.5) < 1e-15 and abs(payload["mu"] - 0.5) < 1e-15


def test_witness_non_adapted_misses_noisy_singlet(capsys):
    code, payload = run_cli(
        ["witness", "--state", "singlet", "--alpha", "0.2", "--non-adapted"], capsys
    )
    assert code == EXIT_OK
    assert payload["adapted"] is False
    assert payload["detected"] is False
    assert abs(payload["v_value"] - 0.48) < 1e-9
    assert abs(payload["c_sep"] - 7.0 / 16.0) < 1e-6
    assert payload["margin"] < 0.0


def test_witness_accepts_state_file(tmp_path, capsys):
    path = str(tmp_path / "singlet.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(make_singlet().to_dict(), fh)
    code, from_file = run_cli(["witness", "--state", path, "--alpha", "0.2"], capsys)
    assert code == EXIT_OK
    code, by_name = run_cli(["witness", "--state", "singlet", "--alpha", "0.2"], capsys)
    assert code == EXIT_OK
    assert from_file == by_name


def test_witness_rejects_unrecognized_state_file(tmp_path, capsys):
    # the maximally mixed two-qutrit state with a NaN as its first entry,
    # where the eigensolver does not fail on it either
    nan_entries = [[[1.0 / 9.0 if i == j else 0.0, 0.0] for j in range(9)] for i in range(9)]
    nan_entries[0][0][0] = float("nan")
    mixed = [[[1.0 / 9.0 if i == j else 0.0, 0.0] for j in range(9)] for i in range(9)]
    singlet = make_singlet().to_dict()
    bad_files = (
        {"vector": [1, 0, 0]},
        5,
        {"amplitudes": [1, 2]},
        {"entries": [[1, 0], [0, 1]]},
        {"entries": nan_entries},
        # a dim field that int() would truncate to the true 9
        dict(singlet, dim=9.7),
        {"dim": 9.7, "entries": mixed},
        dict(singlet, dim="9"),
    )
    for k, data in enumerate(bad_files):
        path = str(tmp_path / f"state_{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        assert main(["witness", "--state", path]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_witness_does_not_detect_a_separable_tuple_at_a_knee(capsys):
    # the variance pair of psi (x) psi, psi an exact minimizer of the local
    # functional: separable, and on the bound, so it must not be detected
    argv = ["witness", "--tuple", "0.8599207990389836,0.4473465418192297",
            "--alpha", "0.11013211899741604", "--lambda", "0.307333"]
    _, payload = run_cli(argv, capsys)
    assert payload["detected"] is False


WITNESS_AT_A_STALL = ["witness", "--tuple", "0.3,0.3", "--alpha", "0.2", "--lambda", "0.355"]


@pytest.mark.parametrize(
    "argv",
    [WITNESS_AT_A_STALL, ["bound", "--lambda", "0.355", "--mu", "0.645", "--alpha", "0.2"]],
    ids=["witness", "bound"],
)
def test_witness_trusts_a_stall_the_oracle_confirms(argv, capsys):
    # two steps leave the first polish stalled here, but the branch-and-bound
    # proves the stalled value; `bound` and `witness` share that rule, and so
    # they print the same bound
    pair = WeightedPair(0.355, 0.645, *spin1_moment_pairs(0.2))
    with capped_seesaw(2):
        assert not raw_grid_route(pair).converged
        code, payload = run_cli(argv, capsys)
        _, witness = run_cli(WITNESS_AT_A_STALL, capsys)
    assert code == EXIT_OK
    assert payload["c_sep"] == witness["c_sep"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--tuple", "0,2", "--alpha", "0.5", "--lambda", "0.5"],
        ["--tuple", "0,2", "--alpha", "0.2", "--lambda", "0.72"],
        ["--tuple", "0.612,0.612", "--alpha", "0.11421472854447745",
         "--lambda", "0.3715911991772264", "--starts", "1", "--seed", "48"],
    ],
)
def test_witness_does_not_detect_a_tuple_on_or_above_the_bound(argv, capsys):
    # (0, 2) is the variance pair of a product of two L_X = 0 eigenstates:
    # separable, and on the bound at both weights. (0.612, 0.612) lies above
    # the exact bound 0.60728 at its weight, where one seeded start once
    # stopped at a non-global minimum, 0.61917
    code, payload = run_cli(["witness"] + argv, capsys)
    assert code == EXIT_OK
    assert payload["detected"] is False
    lam, alpha = payload["lambda"], payload["alpha"]
    exact = 2.0 * local_infimum(lam, 1.0 - lam, alpha)
    assert abs(payload["c_sep"] - exact) <= 1e-9
    assert payload["c_sep"] <= payload["v_value"]


def test_certified_outputs_do_not_depend_on_starts_or_seed(tmp_path, capsys):
    # the commands judged by certified bounds keep --starts and --seed
    # parsed for old manifests, and print and write the same bytes under
    # any of them; the manifests differ only in what they record of them
    requests = [
        ["witness", "--tuple", "0.3,0.3", "--alpha", "0.2", "--lambda", "0.355", "--lambda-grid", "21"],
        ["region", "--lambdas", "7", "--alpha", "0.2", "--svg"],
        ["report", "--tuple", "0.48,0.48", "--alpha", "0.2", "--lambda-grid", "21", "--svg"],
    ]
    for argv in requests:
        out = tmp_path / argv[0]
        runs = []
        for extra in ([], ["--starts", "1", "--seed", "48"]):
            code = main(argv + ["--output-dir", str(out)] + extra)
            written = {}
            for path in sorted(out.iterdir()):
                if path.name.endswith(".manifest.json"):
                    manifest = json.loads(path.read_text())
                    for key in ("seed", "starts", "argv"):
                        manifest["parameters"].pop(key)
                    written[path.name] = manifest["parameters"], manifest["artifact_paths"]
                else:
                    written[path.name] = path.read_bytes()
                path.unlink()
            runs.append((code, capsys.readouterr().out, written))
        assert runs[0] == runs[1]
        assert runs[0][0] == EXIT_OK and len(runs[0][2]) >= 2
    # bound writes no files; it prints the same bytes under any of them
    argv = ["bound", "--lambda", "0.3", "--mu", "0.7", "--alpha", "0.2", "--method", "both"]
    runs = [(main(argv + extra), capsys.readouterr().out) for extra in ([], ["--starts", "1", "--seed", "48"])]
    assert runs[0] == runs[1] and runs[0][0] == EXIT_OK


@pytest.mark.parametrize("command", ["report", "witness"])
def test_uncertified_sweep_point_is_named(command, tmp_path, capsys, monkeypatch):
    # after two steps the first polish has converged at lambda = 0
    # and 1 and is stalled at the four inner points; with a cell cap no
    # proof closes within, those four, and only they, stay uncertified
    argv = [command, "--tuple", "0.1,0.1", "--lambda-grid", "6", "--output-dir", str(tmp_path)]
    with capped_seesaw(2):
        assert main(argv) == EXIT_OK
        monkeypatch.setattr(bounds, "_MAX_CELLS", 2)
        code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_NUMERICAL
    assert "did not certify at lambda = 0.2, 0.4, 0.6000000000000001, 0.8\n" in err


def test_witness_sweep_csv_and_replay_flags(tmp_path, capsys):
    out = str(tmp_path)
    code, payload = run_cli(
        [
            "witness",
            "--tuple", "0.48,0.48",
            "--alpha", "0.2",
            "--lambda-grid", "41",
            "--output-dir", out,
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert payload["d2x"] == 0.48 and payload["d2y"] == 0.48
    csv_path = os.path.join(out, "witness_sweep.csv")
    header, rows = read_csv(csv_path)
    assert header == ["lambda", "V", "c", "detected"]
    assert len(rows) == 41
    for row in rows:
        assert abs(float(row[1]) - 0.48) < 1e-12
        assert row[3] in ("true", "false")
        assert (float(row[1]) < float(row[2])) == (row[3] == "true")
    with open(csv_path + ".manifest.json", encoding="utf-8") as fh:
        argv = json.load(fh)["parameters"]["argv"]
    assert "--tuple" in argv and "--lambda" in argv and "--adapted" in argv
    with open(csv_path, "rb") as fh:
        original = fh.read()
    os.remove(csv_path)
    assert replay_manifest(csv_path + ".manifest.json") == EXIT_OK
    capsys.readouterr()
    with open(csv_path, "rb") as fh:
        assert fh.read() == original


def test_simulate_is_seed_deterministic(capsys, monkeypatch):
    argv = ["simulate", "--alpha", "0.2", "--shots", "1000", "--trials", "4"]
    code, first = run_cli(argv + ["--seed", "3"], capsys)
    assert code == EXIT_OK
    code, second = run_cli(argv + ["--seed", "3"], capsys)
    assert code == EXIT_OK
    assert first == second
    monkeypatch.setenv("VARWIT_SEED", "3")
    code, from_env = run_cli(argv, capsys)
    assert code == EXIT_OK
    assert from_env == first
    assert from_env["seed"] == 3
    assert len(from_env["per_trial"]) == 4
    assert abs(from_env["v_half_half"] - 0.5 * (from_env["d2x"] + from_env["d2y"])) < 1e-15


def test_fit_noise_round_trip(tmp_path, capsys):
    x_pair, y_pair = spin1_moment_pairs(0.2)
    path = str(tmp_path / "calibration.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta1_deg", "theta2_deg", "V_measured"])
        for k in range(1, 20):
            theta1 = k * 180.0 / 20.0
            psi = make_test_state(TestStateParams(theta1=theta1, theta2=23.3))
            v = 0.5 * variance(psi, x_pair) + 0.5 * variance(psi, y_pair)
            writer.writerow([theta1, 23.3, repr(v)])
    code, payload = run_cli(["fit-noise", "--input", path], capsys)
    assert code == EXIT_OK
    assert abs(payload["alpha"] - 0.2) < 1e-4
    assert payload["residual"] < 1e-10
    assert len(payload["per_state_residuals"]) == 19


def test_fit_noise_accepts_calibrate_output(tmp_path, capsys):
    out = str(tmp_path)
    code = main(
        [
            "calibrate",
            "--sweep", "theta1",
            "--alpha", "0.2",
            "--steps", "15",
            "--shots", "4000",
            "--trials", "5",
            "--output-dir", out,
            "--seed", "9",
        ]
    )
    capsys.readouterr()
    assert code == EXIT_OK
    code, payload = run_cli(
        ["fit-noise", "--input", os.path.join(out, "calibration.csv")], capsys
    )
    assert code == EXIT_OK
    assert abs(payload["alpha"] - 0.2) < 0.05


def test_fit_noise_missing_file_is_io_error(capsys):
    assert main(["fit-noise", "--input", "/no/such/file.csv"]) == EXIT_IO
    capsys.readouterr()


def test_fit_noise_wrong_columns_is_io_error(tmp_path, capsys):
    path = str(tmp_path / "bad.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["angle", "value"])
        writer.writerow([10.0, 0.3])
    assert main(["fit-noise", "--input", path]) == EXIT_IO
    capsys.readouterr()
    # a 0-byte file has no header, so no columns
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    assert main(["fit-noise", "--input", str(empty)]) == EXIT_IO
    assert "needs columns" in capsys.readouterr().err


def test_calibrate_with_sweep_file(tmp_path, capsys):
    sweep_path = str(tmp_path / "sweep.csv")
    with open(sweep_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta1_deg", "theta2_deg"])
        for theta1 in (30.0, 90.0, 150.0):
            writer.writerow([theta1, 45.0])
    out = str(tmp_path / "out")
    code = main(
        [
            "calibrate",
            "--sweep", sweep_path,
            "--alpha", "0.2",
            "--shots", "500",
            "--trials", "3",
            "--output-dir", out,
            "--seed", "1",
        ]
    )
    capsys.readouterr()
    assert code == EXIT_OK
    header, rows = read_csv(os.path.join(out, "calibration.csv"))
    assert header == ["theta1", "theta2", "V_ideal", "V_noisy", "V_mean", "V_std"]
    assert len(rows) == 3
    assert [float(r[0]) for r in rows] == [30.0, 90.0, 150.0]
    for row in rows:
        assert abs(float(row[4]) - float(row[3])) < 0.1
    assert os.path.exists(os.path.join(out, "calibration.csv.manifest.json"))


def test_calibrate_rejects_bad_sweep_columns(tmp_path, capsys):
    sweep_path = str(tmp_path / "sweep.csv")
    with open(sweep_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta1_deg"])
        writer.writerow([30.0])
    assert main(["calibrate", "--sweep", sweep_path]) == EXIT_IO
    capsys.readouterr()
    # a 0-byte file has no header, so no columns
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    assert main(["calibrate", "--sweep", str(empty), "--output-dir", str(tmp_path / "out")]) == EXIT_IO
    assert "needs columns" in capsys.readouterr().err


def test_report_tuple_outside_any_window(tmp_path, capsys):
    out = str(tmp_path)
    code, payload = run_cli(
        [
            "report",
            "--tuple", "10,10",
            "--alpha", "0.2",
            "--lambda-grid", "21",
            "--output-dir", out,
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert payload["detected"] is False
    assert payload["windows"] == {"ideal": [], "adapted": [], "non_adapted": []}
    header, rows = read_csv(os.path.join(out, "report.csv"))
    assert header == [
        "lambda",
        "v_ideal",
        "v_noisy",
        "c_noiseless",
        "c_adapted",
        "detected_ideal",
        "detected_adapted",
        "detected_non_adapted",
    ]
    assert len(rows) == 21
    assert all(row[5] == row[6] == row[7] == "false" for row in rows)
    with open(os.path.join(out, "windows.json"), encoding="utf-8") as fh:
        assert json.load(fh) == payload
    assert os.path.exists(os.path.join(out, "report.csv.manifest.json"))
    assert os.path.exists(os.path.join(out, "windows.json.manifest.json"))


def test_output_dir_collision_is_io_error(tmp_path, capsys):
    clash = tmp_path / "out"
    clash.write_text("occupied")
    code = main(["region", "--lambdas", "1", "--output-dir", str(clash)])
    capsys.readouterr()
    assert code == EXIT_IO


def fresh_run(argv):
    """Exit code and stdout of one command in a new interpreter."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "varwit", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    return proc.returncode, proc.stdout


def test_calls_in_one_process_match_fresh_processes(capsys):
    # the parser is built once per process; each call must still parse from
    # scratch, with every default back in place
    requests = [
        ["bound", "--lambda", "0.3", "--mu", "0.7", "--alpha", "0.2", "--method", "grid"],
        ["simulate", "--alpha", "0.1", "--shots", "200", "--trials", "3", "--seed", "2"],
        ["fit-noise"],
        ["bound", "--lambda", "0.5", "--mu", "0.5", "--alpha-b", "0.4", "--method", "grid"],
    ]
    codes = []
    for argv in requests:
        codes.append(main(argv))
        assert (codes[-1], capsys.readouterr().out) == fresh_run(argv)
    assert codes == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK]


def test_an_option_does_not_leak_into_the_next_call(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["witness", "--tuple", "0.3,0.3"]
    sweep = tmp_path / "sweep"
    assert main(argv + ["--lambda-grid", "5", "--output-dir", str(sweep)]) == EXIT_OK
    first = capsys.readouterr().out
    (sweep / "witness_sweep.csv").unlink()
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == first
    assert not list(tmp_path.rglob("witness_sweep.csv"))


def test_main_runs_the_command_function_the_module_holds_now(monkeypatch, capsys):
    # a tracer or a test replaces cli.cmd_* after import; main must run the
    # replacement, not the function the parser saw when it was built
    argv = ["bound", "--lambda", "1", "--mu", "0", "--method", "grid"]
    assert main(argv) == EXIT_OK
    seen = []

    def spy(args):
        seen.append(args)
        return EXIT_NUMERICAL

    monkeypatch.setattr(cli, "cmd_bound", spy)
    assert main(argv) == EXIT_NUMERICAL
    assert [(args.command, args.lam, args.mu) for args in seen] == [("bound", 1.0, 0.0)]


def test_main_does_not_rebuild_the_parser(monkeypatch, capsys):
    def refuse():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    code, payload = run_cli(["bound", "--lambda", "1", "--mu", "0", "--method", "grid"], capsys)
    assert code == EXIT_OK
    assert abs(payload["c_sep"]) < 1e-12

"""Byte differential of the CLI between two source trees.

    python tools/differential.py PARENT_SRC CHANGE_SRC [--work DIR]

Runs one fixed request set against each `src` directory, each side in
its own subprocess and on the same work paths, so that paths written
into outputs and manifests agree. A request's record hashes its exit
code, stdout, stderr and every file it wrote (its output directory, or
the working directory when it names none), and whether each manifest it
wrote replays to the same bytes. The requests are every
`perfbench/workloads.py::query_stream` request at seeds 1, 2 and 60013,
`report --state singlet --alpha 0.2 --seed 1` with and without `--svg`,
`region --lambdas 33 --svg` and `witness --tuple 0,2 --lambda 0.72
--output-dir` at alpha 0 and 0.5, one single-start `witness` where a
seeded start once stopped at a non-global minimum, `bound --lambda 1e300
--mu 1e300 --alpha 0.2` (both routes, at weights near overflow), one
`bound` with `--starts 1 --seed 48` (ignored options that old command
lines still pass), `bound --lambda 1 --mu 0 --alpha 0.2` (a zero bound,
where the rounding slack would carry the value below 0 but for its clamp),
`bound --lambda 0.5 --mu 0.5 --alpha 0.2 --alpha-b 0.4` (two boxes with
a ring, proven over the radius of their means in one batch),
`bound --lambda 0.4999999 --mu 0.5000001 --alpha 0.2` (a row just off the
ring, whose proof still tiles the quarter box, the deepest proof a
request reaches),
and two requests whose certified batch, one row a
weight, spans more than one chunk of `varwit.bounds._CHUNK` (4,096)
rows: `report --lambda-grid 4500` and `region --lambdas 4200 --alpha
0.5`. Last come `calibrate --sweep theta1 --seed 1` and `fit-noise` on
the CSV it wrote, the requests that print or write sampled values besides
the stream's `simulate` requests.
Prints the digest of all records of each side, then each request whose
records differ with the parts that differ (exit code, stdout, stderr,
files, replays), and exits 1 if any request differs, else 0.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUERY_SEEDS = (1, 2, 60013)


def requests(work):
    """(argv, output directory or None) of every request, in order."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import query_stream

    out = []
    for seed in QUERY_SEEDS:
        out += [(op.argv, op.out_dir) for op in query_stream(seed, os.path.join(work, f"queries_{seed}"))]

    def with_dir(name, argv):
        path = os.path.join(work, name)
        out.append((argv + ["--output-dir", path], path))

    for svg in ([], ["--svg"]):
        with_dir(f"report{len(svg)}", ["report", "--state", "singlet", "--alpha", "0.2", "--seed", "1"] + svg)
    for alpha in ("0", "0.5"):
        with_dir(f"region_{alpha}", ["region", "--lambdas", "33", "--svg", "--alpha", alpha])
        with_dir(f"witness_{alpha}", ["witness", "--tuple", "0,2", "--lambda", "0.72", "--alpha", alpha])
    out.append((["witness", "--tuple", "0.612,0.612", "--alpha", "0.11421472854447745",
                 "--lambda", "0.3715911991772264", "--starts", "1", "--seed", "48"], None))
    out.append((["bound", "--lambda", "1e300", "--mu", "1e300", "--alpha", "0.2"], None))
    out.append((["bound", "--lambda", "0.3", "--mu", "0.7", "--alpha", "0.2", "--alpha-b", "0.5",
                 "--starts", "1", "--seed", "48"], None))
    out.append((["bound", "--lambda", "1", "--mu", "0", "--alpha", "0.2"], None))
    out.append((["bound", "--lambda", "0.5", "--mu", "0.5", "--alpha", "0.2", "--alpha-b", "0.4"], None))
    out.append((["bound", "--lambda", "0.4999999", "--mu", "0.5000001", "--alpha", "0.2"], None))
    with_dir("report_chunks", ["report", "--state", "singlet", "--alpha", "0.2", "--seed", "1",
                               "--lambda-grid", "4500"])
    with_dir("region_chunks", ["region", "--lambdas", "4200", "--alpha", "0.5"])
    with_dir("calibrate", ["calibrate", "--sweep", "theta1", "--seed", "1"])
    out.append((["fit-noise", "--input", os.path.join(work, "calibrate", "calibration.csv")], None))
    return out


def files(directory):
    """sha256 of every file under `directory`, by relative path."""
    found = {}
    for base, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(found.items()))


def call(run, *args):
    """Exit code, or the exception raised, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(*args)
        except Exception as exc:  # a traceback is an outcome to compare too
            code = repr(exc)
    return code, out.getvalue(), err.getvalue()


def run_side(src, work):
    """Print one JSON record per request, run with the varwit of `src`."""
    sys.path.insert(0, os.path.abspath(src))
    from varwit import cli

    cwd = os.path.join(work, "cwd")
    os.makedirs(cwd)
    os.chdir(cwd)
    for argv, out_dir in requests(work):
        code, stdout, stderr = call(cli.main, argv)
        written = files(out_dir or cwd)
        # each manifest re-runs its command into the same directory
        replays = {}
        for name in written:
            if name.endswith(".manifest.json"):
                replayed = call(cli.replay_manifest, os.path.join(out_dir or cwd, name))
                replays[name] = [replayed == (code, stdout, stderr), files(out_dir or cwd) == written]
        parts = {"code": code, "stdout": stdout, "stderr": stderr, "files": written, "replays": replays}
        print(json.dumps({"argv": argv, "parts": {name: hashlib.sha256(
            json.dumps(part, sort_keys=True).encode()).hexdigest() for name, part in parts.items()}}),
            flush=True)
        if out_dir is None:
            for name in os.listdir(cwd):
                os.remove(os.path.join(cwd, name))


def side_records(src, work):
    """The records of one side, run in a fresh process on an empty work directory."""
    if os.path.exists(work):
        shutil.rmtree(work)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--side", src, work],
                          stdout=subprocess.PIPE, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--work", default=os.path.join(tempfile.gettempdir(), "varwit-differential"))
    args = parser.parse_args(argv)
    sides = [side_records(src, args.work) for src in (args.parent_src, args.change_src)]
    shutil.rmtree(args.work)
    for src, records in zip((args.parent_src, args.change_src), sides):
        total = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
        print(f"{src}: {len(records)} requests, sha256 {total}")
    differ = False
    for k, (a, b) in enumerate(zip(*sides)):
        parts = [name for name, digest in a["parts"].items() if b["parts"][name] != digest]
        if parts:
            differ = True
            print(f"request {k} differs in {', '.join(parts)}: {' '.join(a['argv'])}")
    if len(sides[0]) != len(sides[1]):
        print("the sides ran different numbers of requests")
        return 1
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--side"]:
        run_side(*sys.argv[2:])
    else:
        sys.exit(main())

"""domainsift benchmark: three seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload predict-census --seed 42 --seconds 25 --trace 0

Set-up generates the workload's corpora from ``--seed`` with ``domainsift
generate`` (and, for predict-census, trains the model the predict command
reads); it is repeated ``SETUP_REPEATS`` times and must give identical bytes
each time. The timed loop then runs one ``domainsift`` command in a
subprocess, one invocation at a time (a closed loop with one client), for
``--seconds`` seconds and at least ``MIN_RUNS`` times. The program sees only
the generated files. Each invocation's outputs are checked after its timed
interval, and the exact counts it prints must repeat on every invocation.

With ``--trace 1`` the same command also runs ``TRACED_RUNS`` times under
``perfbench/trace_cli.py``, which times each layer's public functions from
outside the package; every layer count must repeat exactly between the
traced runs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``, by the names and
units listed in BENCHMARK.json. The lines before it are a readable report
and a JSON detail line stamped with the environment. The exit code is 0
only when every check passed.

The default seed is 42. Seed 20201224 is held out: use it only to confirm a
claim made on other seeds.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
TRACE_SCRIPT = os.path.join(BENCH_DIR, "trace_cli.py")
SCORE_SCRIPT = os.path.join(BENCH_DIR, "score_model.py")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

DEFAULT_SEED = 42

SETUP_REPEATS = 2
MIN_RUNS = 3
TRACED_RUNS = 2

# Sizes: 10k census rows keep a predict invocation near 6 s on 2 cores while
# kNN still dominates it; 200k rows make cluster ingestion-bound with memory
# growing with row count; train uses the generator's default 33k-row corpus.
PREDICT_ROWS = 10_000
CLUSTER_ROWS = 200_000
HOLDOUT_LEGIT, HOLDOUT_DGA = 2_000, 1_300
HOLDOUT_SEED_OFFSET = 1_000_003
ACCURACY_FLOOR = 0.90
VOTES_FOR_DGA = 3


class CheckFailed(Exception):
    """An invocation's outputs are wrong, or a count did not repeat."""


@dataclass
class Invocation:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Context:
    """What set-up produced and what the checks compare against."""

    runner: Runner
    work: str
    gen: str
    rows: int = 0  # input rows of the timed command
    expected_records: int = 0  # rows left after dedupe, computed independently
    model: str | None = None
    holdout: str | None = None
    truth: dict = field(default_factory=dict)
    reference: dict | None = None  # counts of the first checked invocation
    extra: dict = field(default_factory=dict)  # accuracies, reported once


class Runner:
    """Starts children with the checkout's ``src`` on PYTHONPATH.

    Each child's stdout and stderr go to files under ``log_dir`` (inside the
    checkout), overwritten by the next child; wall time, CPU time and peak
    RSS come from ``wait4`` on that child alone. The peak RSS ``wait4``
    reports includes this process's own peak at spawn time, so this process
    imports neither numpy nor domainsift before its last child has exited.
    """

    def __init__(self, log_dir):
        self.log_dir = log_dir
        os.makedirs(log_dir, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, self.env.get("PYTHONPATH")]))

    def run(self, cmd):
        out_path = os.path.join(self.log_dir, "stdout.txt")
        err_path = os.path.join(self.log_dir, "stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return Invocation(
            code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=stdout,
            stderr=stderr,
        )

    def cli(self, args):
        return self.run([sys.executable, "-m", "domainsift.cli", *args])

    def generate(self, out, seed, *sizes):
        must_succeed(self.cli(["generate", "--out", out, "--seed", str(seed), *sizes]), "generate")


def must_succeed(inv, what):
    if inv.code != 0:
        tail = inv.stderr.strip().splitlines()[-3:]
        raise CheckFailed(f"{what} exited {inv.code}: {' | '.join(tail)}")
    return inv


def file_digests(directory):
    digests = {}
    for dirpath, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def read_census_hosts(path):
    with open(path, encoding="utf-8") as fh:
        return [line.split("\t", 1)[0] for line in fh if line.strip()]


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# workloads: set-up, the timed command, and the output check


def setup_predict(runner, d, seed):
    runner.generate(os.path.join(d, "gen"), seed, "--census-n", str(PREDICT_ROWS))
    must_succeed(
        runner.cli(["train", "--in", os.path.join(d, "gen", "labeled.csv"),
                    "--out", os.path.join(d, "model.dsmodel")]),
        "train",
    )


def prepare_predict(ctx):
    hosts = read_census_hosts(os.path.join(ctx.gen, "census.tsv"))
    ctx.rows = len(hosts)
    # generated hosts are "<name>.<tld>", so the sld the CLI dedupes on is the name
    ctx.expected_records = len({h.rsplit(".", 1)[0] for h in hosts})
    ctx.model = os.path.join(ctx.work, "model.dsmodel")
    truth = read_csv(os.path.join(ctx.gen, "census_truth.csv"))[1:]
    ctx.truth = {host: int(label) for host, label in truth}


def argv_predict(ctx, out):
    return ["predict", "--in", os.path.join(ctx.gen, "census.tsv"), "--model", ctx.model, "--out", out]


def check_predict(ctx, out, stdout):
    rows = read_csv(os.path.join(out, "predictions.csv"))
    header, body = rows[0], rows[1:]
    if len(header) != 8 or header[:3] != ["host", "domain", "prediction"]:
        raise CheckFailed(f"predictions.csv header {header}")
    flagged = agree = 0
    for row in body:
        if len(row) != len(header):
            raise CheckFailed(f"predictions.csv row has {len(row)} cells: {row}")
        votes = [int(v) for v in row[3:]]
        label = int(row[2])
        if set(votes) - {0, 1} or label != int(sum(votes) >= VOTES_FOR_DGA):
            raise CheckFailed(f"prediction does not follow the vote rule: {row}")
        flagged += label
        agree += label == ctx.truth[row[0]]
    if len(body) != ctx.expected_records:
        raise CheckFailed(f"{len(body)} predictions for {ctx.expected_records} distinct slds")
    with open(os.path.join(out, "flagged.txt"), encoding="utf-8") as fh:
        listed = sum(1 for line in fh if line.strip())
    m = re.search(r"^(\d+) of (\d+) domains flagged", stdout, re.M)
    if not m or not int(m.group(1)) == listed == flagged or int(m.group(2)) != len(body):
        raise CheckFailed(
            f"printed {m and m.group(0)!r}, flagged.txt lists {listed}, "
            f"predictions.csv flags {flagged} of {len(body)}"
        )
    accuracy = agree / len(body)
    if accuracy < ACCURACY_FLOOR:
        raise CheckFailed(f"flag accuracy {accuracy:.4f} < {ACCURACY_FLOOR}")
    ctx.extra["flag_accuracy"] = accuracy
    return {"flagged": flagged, "records": len(body)}


def setup_train(runner, d, seed):
    runner.generate(os.path.join(d, "gen"), seed, "--census-n", "0")
    runner.generate(
        os.path.join(d, "holdout"), seed + HOLDOUT_SEED_OFFSET, "--census-n", "0",
        "--n-legit", str(HOLDOUT_LEGIT), "--n-dga", str(HOLDOUT_DGA),
    )


def prepare_train(ctx):
    with open(os.path.join(ctx.gen, "labeled.csv"), encoding="utf-8") as fh:
        ctx.rows = sum(1 for line in fh if line.strip()) - 1  # minus the header
    ctx.holdout = os.path.join(ctx.work, "holdout", "labeled.csv")


def argv_train(ctx, out):
    return ["train", "--in", os.path.join(ctx.gen, "labeled.csv"), "--out", os.path.join(out, "model.dsmodel")]


def check_train(ctx, out, stdout):
    path = os.path.join(out, "model.dsmodel")
    m = re.search(r"sha256:([0-9a-f]+)\s+(\d+) bytes", stdout)
    if not m or int(m.group(2)) != os.path.getsize(path):
        raise CheckFailed(f"printed model size does not match {path}")
    first = "holdout_accuracy" not in ctx.extra
    inv = must_succeed(
        ctx.runner.run([sys.executable, SCORE_SCRIPT, path, *([ctx.holdout] if first else [])]),
        "loading the saved model",
    )
    if first:
        accuracy = float(inv.stdout)
        if accuracy < ACCURACY_FLOOR:
            raise CheckFailed(f"holdout accuracy {accuracy:.4f} < {ACCURACY_FLOOR}")
        ctx.extra["holdout_accuracy"] = accuracy
    return {"model_bytes": int(m.group(2)), "sha256": m.group(1)}


def setup_cluster(runner, d, seed):
    runner.generate(
        os.path.join(d, "gen"), seed, "--census-n", str(CLUSTER_ROWS),
        "--n-legit", "0", "--n-dga", "0",
    )


def prepare_cluster(ctx):
    hosts = read_census_hosts(os.path.join(ctx.gen, "census.tsv"))
    ctx.rows = len(hosts)
    ctx.expected_records = len(set(hosts))  # full mode keeps the whole host


def argv_cluster(ctx, out):
    return ["cluster", "--in", os.path.join(ctx.gen, "census.tsv"), "--out", out]


def check_cluster(ctx, out, stdout):
    rows = read_csv(os.path.join(out, "centroids.csv"))
    table = {row[0]: row[1:] for row in rows[1:]}
    if rows[0] != ["feature", "cluster_1", "cluster_2"] or not {"len", "size"} <= set(table):
        raise CheckFailed(f"centroids.csv is malformed: {rows[:2]}")
    sizes = [int(v) for v in table["size"]]
    if sum(sizes) != ctx.expected_records:
        raise CheckFailed(f"cluster sizes {sizes} do not sum to {ctx.expected_records} hosts")
    lengths = [float(v) for v in table["len"]]
    if not lengths[1] > lengths[0]:
        raise CheckFailed(f"cluster 2 length centroid {lengths[1]} <= cluster 1 {lengths[0]}")
    return {"sizes": sizes}


@dataclass(frozen=True)
class Workload:
    setup: object  # (runner, directory, seed) -> None, writes the inputs
    prepare: object  # (ctx) -> None, reads what the checks compare against
    argv: object  # (ctx, out) -> domainsift arguments of the timed command
    check: object  # (ctx, out, stdout) -> exact counts; raises CheckFailed


WORKLOADS = {
    "predict-census": Workload(setup_predict, prepare_predict, argv_predict, check_predict),
    "train-labeled": Workload(setup_train, prepare_train, argv_train, check_train),
    "cluster-census": Workload(setup_cluster, prepare_cluster, argv_cluster, check_cluster),
}


# ---------------------------------------------------------------------------
# measurement


def run_checked(runner, ctx, workload, cmd, out, what, failures):
    """Run and check one invocation; a failed check is recorded, not raised."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)  # train writes a file into it; predict and cluster fill it
    inv = runner.run(cmd)
    try:
        counts = workload.check(ctx, out, must_succeed(inv, what).stdout)
        if ctx.reference is None:
            ctx.reference = counts
        elif counts != ctx.reference:
            raise CheckFailed(f"counts differ between runs of the same code: {counts} vs {ctx.reference}")
    except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
        failures.append(f"{what}: {exc}")
        return inv, False
    return inv, True


def timed_loop(runner, ctx, workload, seconds, failures):
    """Closed loop, one client: returns (invocations, number that failed).

    After MIN_RUNS invocations, the next one starts only if a median-length
    invocation would still end within ``seconds``.
    """
    results, failed = [], 0
    out = os.path.join(ctx.work, "out")
    start = time.perf_counter()
    while len(results) < MIN_RUNS or (
        time.perf_counter() - start + statistics.median(r.wall_s for r in results) <= seconds
    ):
        cmd = [sys.executable, "-m", "domainsift.cli", *workload.argv(ctx, out)]
        inv, ok = run_checked(runner, ctx, workload, cmd, out, f"run {len(results) + 1}", failures)
        results.append(inv)
        failed += not ok
    return results, failed


def traced_runs(runner, ctx, workload, name, failures):
    """Run the command under the tracer: (invocations, traces, number failed)."""
    invocations, traces, failed = [], [], 0
    out = os.path.join(ctx.work, "traced")
    for i in range(TRACED_RUNS):
        spans_path = os.path.join(ctx.work, f"spans{i}.json")
        cmd = [sys.executable, TRACE_SCRIPT, f"{name}-{i}", spans_path, "--", *workload.argv(ctx, out)]
        inv, ok = run_checked(runner, ctx, workload, cmd, out, f"traced run {i + 1}", failures)
        invocations.append(inv)
        if ok:
            with open(spans_path, encoding="utf-8") as fh:
                traces.append(json.load(fh))
        failed += not ok
    for trace in traces:
        if trace["counts"] != traces[0]["counts"]:
            failures.append(
                "layer counts differ between traced runs of the same code: "
                f"{trace['counts']} vs {traces[0]['counts']}"
            )
        if trace["counts"].get("corpus.rows_read") != ctx.rows:
            failures.append(
                f"corpus.rows_read is {trace['counts'].get('corpus.rows_read')}, "
                f"but the input has {ctx.rows} rows"
            )
    return invocations, traces, failed


def span_times(trace):
    """Total and self seconds per span name; self time excludes child spans."""
    spans = trace["spans"]
    total, self_time = {}, {}
    for span in spans:
        d = span["end"] - span["start"]
        total[span["name"]] = total.get(span["name"], 0.0) + d
        self_time[span["name"]] = self_time.get(span["name"], 0.0) + d
        if span["parent"] is not None:
            parent = spans[span["parent"]]["name"]
            self_time[parent] -= d
    return total, self_time


def layer_metrics(trace):
    total, self_time = span_times(trace)
    metrics = {f"{name}_s": value for name, value in total.items()}
    metrics["ensemble.vote_self_s"] = self_time.get("ensemble.vote", 0.0)
    metrics["cli.self_s"] = self_time["cli"]
    metrics["cli.import_s"] = trace["import_s"]
    metrics.update(trace["counts"])
    return metrics


# ---------------------------------------------------------------------------
# environment stamp


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded into this process, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "cpu": cpu,
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args, work_root, failures):
    """Set up, run the timed loop and, with --trace 1, the traced runs."""
    workload = WORKLOADS[args.workload]
    runner = Runner(os.path.join(work_root, "logs"))
    setup_times, digests = [], None
    for r in range(SETUP_REPEATS):
        d = os.path.join(work_root, f"setup{r}")
        os.makedirs(d)
        t0 = time.perf_counter()
        workload.setup(runner, d, args.seed)
        setup_times.append(time.perf_counter() - t0)
        found = file_digests(d)
        if digests is None:
            digests = found
        elif found != digests:
            failures.append("set-up is not deterministic: the same seed gave different files")
        if r:
            shutil.rmtree(d)
    work = os.path.join(work_root, "setup0")
    ctx = Context(runner=runner, work=work, gen=os.path.join(work, "gen"))
    workload.prepare(ctx)

    runs, failed = timed_loop(runner, ctx, workload, args.seconds, failures)
    traced, traces = [], []
    if args.trace:
        traced, traces, failed_traced = traced_runs(runner, ctx, workload, args.workload, failures)
        failed += failed_traced
    return ctx, setup_times, runs, traced, traces, failed


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "domainsift", "cli.py")):
        print(f"perfbench: no domainsift sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    failures = []
    os.makedirs(WORK_DIR, exist_ok=True)
    work_root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        ctx, setup_times, runs, traced, traces, failed = measure(args, work_root, failures)
    except CheckFailed as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        if not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)

    walls = [r.wall_s for r in runs]
    wall = statistics.median(walls)
    q1, _, q3 = statistics.quantiles(walls, n=4)  # MIN_RUNS >= 2
    attempted = len(runs) + len(traced)
    end_to_end = {
        "wall_s": wall,
        "rows_per_s": ctx.rows / wall,
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        "setup_s": statistics.median(setup_times),
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rows": ctx.rows,
        "env": environment(),
        "wall_s": {"median": wall, "q1": q1, "q3": q3, "n": len(walls), "samples": walls},
        "setup_s": {"median": end_to_end["setup_s"], "n": len(setup_times)},
        "ops_failed_frac": failed / attempted,
        "counts": ctx.reference,
        **ctx.extra,
        "end_to_end": end_to_end,
    }

    env = detail["env"]
    print(f"workload {args.workload}  seed {args.seed}  rows {ctx.rows}")
    print(f"  env: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']} ({env['blas_threads']} threads), {env['cpu']}")
    print(f"  wall_s          {wall:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(walls)})")
    print(f"  rows_per_s      {end_to_end['rows_per_s']:.1f} 1/s")
    print(f"  cpu_s           {end_to_end['cpu_s']:.4f} s")
    print(f"  peak_rss_mb     {end_to_end['peak_rss_mb']:.1f} MB")
    print(f"  setup_s         {end_to_end['setup_s']:.4f} s  (n={len(setup_times)})")
    print(f"  ops_failed_frac {detail['ops_failed_frac']:.4f}  ({failed} of {attempted})")
    for key, value in ctx.extra.items():
        print(f"  {key:<15} {value:.4f}")

    values = end_to_end
    wanted = spec["end_to_end"]
    if args.trace:
        per_run = [layer_metrics(t) for t in traces]
        values = {
            name: statistics.median(m.get(name, 0) for m in per_run)
            for name in {k for m in per_run for k in m}
        }
        values["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - wall
        if traces:
            total, self_time = span_times(traces[0])
            print(f"  self time by span, traced run 1 (cli total {total['cli']:.4f} s, "
                  f"self times sum to {sum(self_time.values()):.4f} s):")
            for name, value in sorted(self_time.items(), key=lambda kv: -kv[1]):
                print(f"    {name:<26}{value:.4f} s")
        detail["per_layer"] = values
        wanted = spec["per_layer"]

    for failure in failures:
        print(f"perfbench: FAILED: {failure}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

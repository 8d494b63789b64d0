"""collapselab benchmark.

Usage, from the root of a checkout (the package is run from ``src``):

    python3 perfbench/run.py --workload ensemble_m64 --seed 1 --seconds 25 --trace 0

A workload is a fixed list of ``collapselab`` CLI invocations whose
master seeds derive from ``--seed``.

``--trace 0`` runs every invocation untraced, as a fresh child process
exactly as a user runs it, repeating the whole list for ``--seconds``.
It reports the medians over those repetitions of the end-to-end metrics
named in BENCHMARK.json; ``ok_frac`` is the share of invocations that
exited 0 within their time cap and passed the output checks.  Set-up
time is measured by separate import-only children.

``--trace 1`` runs the invocations in alternating untraced and traced
passes, the traced ones in children that record spans
(perfbench/traced.py, workers forced to 1), and reports the per-layer
metrics: span calls and self times, work counts, the tracing overhead,
the layer sweep (perfbench/sweep.py) and the workers probe.

Every report is checked for the physics it claims and for byte identity
across repetitions (and across worker counts in the traced pass).  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The caller's environment is passed to the children unchanged
apart from putting the checkout's ``src`` first on PYTHONPATH; BLAS
threads are deliberately not pinned, because that would measure a
different program.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from traced import COUNTS, SPANS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

INVOCATION_CAP_S = 60.0  # an invocation running longer counts as failed
RUN_DEADLINE_S = 165.0  # no child may run past this point of the benchmark
SETUP_SAMPLES = 9
TRACE_PAIRS = 3  # untraced/traced pairs in the traced pass
PROBE_K = 1000
PROBE_CAP_S = 12.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Workload name -> invocations as (output check, CLI arguments).  --seed,
# --out and (for epr) --csv are appended per invocation.  Sizes and the
# reason for each workload are recorded in BENCHMARK.json.
WORKLOADS: dict[str, list[tuple[str, list[str]]]] = {
    "ensemble_m64": [
        ("oracle", ["oracle-compare", "--hamiltonian", "free", "--points", "64",
                    "--k", "10000", "--workers", "1"]),
    ],
    "oracle_m256": [
        ("oracle", ["oracle-compare", "--hamiltonian", "free", "--points", "256",
                    "--k", "1000", "--workers", "1"]),
    ],
    "epr_pointer_w2": [
        ("epr", ["epr", "--trials", "4000", "--workers", "2"]),
    ],
    "free_will": [
        ("singlet", ["singlet", "--same-triples", "--trials", "30000"]),
        ("ck", ["ck-trace", "--rays", "builtin:ks33"]),
    ],
}
UNSEEDED = {"ck"}

SETUP_CODE = (
    "import time, collapselab.cli; "
    "print(time.monotonic()); print(collapselab.__file__)"
)


class Deadline:
    def __init__(self) -> None:
        self.start = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def cap(self, wanted: float) -> float:
        return max(0.0, min(wanted, RUN_DEADLINE_S - self.elapsed()))


@dataclass
class Child:
    rc: int | None  # None when killed at its time cap
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int) -> None:
    """Kill and wait out any process left in the child's group (pool
    workers of a child that was killed at its cap)."""
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        _kill_group(pgid)
        time.sleep(0.01)


def spawn(argv: list[str], cap_s: float) -> Child:
    """Run a child to exit; wall time is spawn to exit, CPU time and peak
    RSS come from the child's own wait4 rusage (which includes the worker
    processes it waited for)."""
    out_path, err_path = OUT / "child.out", OUT / "child.err"
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env(),
                                start_new_session=True)

        def on_cap() -> None:
            killed.set()
            _kill_group(proc.pid)

        timer = threading.Timer(cap_s, on_cap)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _wait_group_gone(proc.pid)
    if proc.returncode != 0 and not killed.is_set():
        sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
    return Child(
        rc=None if killed.is_set() else proc.returncode,
        wall_s=wall,
        cpu_s=ru.ru_utime + ru.ru_stime,
        rss_mb=ru.ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
    )


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "collapselab.cli", *args]


# -- inputs --------------------------------------------------------------------


def master_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class Invocation:
    check: str
    args: list[str]
    out: Path
    csv: Path | None


def invocations(workload: str, seed: int) -> list[Invocation]:
    result = []
    for i, (check, args) in enumerate(WORKLOADS[workload]):
        args = list(args)
        if check not in UNSEEDED:
            args += ["--seed", str(master_seed(workload, seed, i))]
        out = OUT / f"{workload}.{i}.json"
        csv = OUT / f"{workload}.{i}.csv" if check == "epr" else None
        args += ["--out", str(out)] + (["--csv", str(csv)] if csv else [])
        result.append(Invocation(check, args, out, csv))
    return result


def serial(inv: Invocation, tag: str) -> Invocation:
    """The same invocation with one worker and its own output paths."""
    args = list(inv.args)
    if "--workers" in args:
        args[args.index("--workers") + 1] = "1"
    out = inv.out.with_suffix(f".{tag}.json")
    csv = inv.csv.with_suffix(f".{tag}.csv") if inv.csv else None
    args[args.index("--out") + 1] = str(out)
    if csv:
        args[args.index("--csv") + 1] = str(csv)
    return Invocation(inv.check, args, out, csv)


# -- output checks (physics, never a pinned hash) ------------------------------


def check_oracle(agg: dict, inv: Invocation) -> str | None:
    if not agg["within_threshold"] or not all(agg["within_threshold"]):
        return f"trace distances {agg['distances']} exceed threshold {agg['threshold']}"
    return None


def check_epr(agg: dict, inv: Invocation) -> str | None:
    conds = (agg["cond_b_delta2_given_a_delta1"], agg["cond_b_delta4_given_a_delta3"])
    if conds != (1.0, 1.0):
        return f"conditional correlations {conds} are not both 1"
    gap = abs(agg["freq_b_delta2"] - agg["oracle_b_marginal_delta2"])
    if gap > 5.0 / math.sqrt(agg["trials"]):
        return f"b-marginal {agg['freq_b_delta2']} is {gap} from the oracle"
    rows = inv.csv.read_text().count("\n") - 1
    if rows != agg["trials"]:
        return f"CSV has {rows} rows for {agg['trials']} trials"
    return None


def check_singlet(agg: dict, inv: Invocation) -> str | None:
    if agg["agreement_frequency"] != 1.0:
        return f"twin agreement frequency {agg['agreement_frequency']} is not 1"
    return None


def check_ck(agg: dict, inv: Invocation) -> str | None:
    cert = agg["certificate"]
    got = (cert["verdict"], cert["nodes_explored"], cert["propagation_steps"])
    if got != ("uncolorable", 46, 412):
        return f"certificate {got} is not (uncolorable, 46, 412)"
    return None


CHECKS = {"oracle": check_oracle, "epr": check_epr, "singlet": check_singlet, "ck": check_ck}


class Runner:
    """Runs invocations, checks their outputs and counts failures."""

    def __init__(self, deadline: Deadline) -> None:
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.reference: dict[int, str] = {}  # invocation index -> first output digest

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {what}: {why}", file=sys.stderr)

    def run(self, inv: Invocation, argv: list[str], index: int) -> tuple[Child, dict | None]:
        """Run one invocation; its outputs must equal those of every other
        run of the workload's invocation ``index``, whatever the workers or
        tracing."""
        self.attempted += 1
        for path in (inv.out, inv.csv):
            if path is not None and path.exists():
                path.unlink()
        child = spawn(argv, self.deadline.cap(INVOCATION_CAP_S))
        what = " ".join(inv.args).replace(str(OUT) + "/", "")
        if child.rc is None:
            self.fail(what, "killed at its time cap")
            return child, None
        if child.rc != 0:
            self.fail(what, f"exit code {child.rc}")
            return child, None
        try:
            report = json.loads(inv.out.read_text())
            problem = CHECKS[inv.check](report["aggregates"], inv)
            digest = hashlib.sha256(
                b"".join(p.read_bytes() for p in (inv.out, inv.csv) if p)).hexdigest()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem is None and self.reference.setdefault(index, digest) != digest:
            problem = f"output bytes differ from the first run of invocation {index}"
        if problem is not None:
            self.fail(what, problem)
            return child, None
        return child, report


# -- environment and set-up ------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name", "") + " " + deps[k].get("version", "") for k in ("blas", "lapack")}
        blas["config"] = deps["blas"].get("openblas configuration", "")
    except (TypeError, KeyError, AttributeError):
        blas = {"blas": "unknown"}
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def setup_times(deadline: Deadline, samples: int) -> list[float]:
    """Spawn-to-ready times of import-only children; the first, which may
    write bytecode caches, is not counted.  Exits if the package would not
    be imported from this checkout's ``src``."""
    times = []
    for i in range(samples + 1):
        t0 = time.monotonic()
        child = spawn([sys.executable, "-c", SETUP_CODE], deadline.cap(INVOCATION_CAP_S))
        lines = child.stdout.split()
        if child.rc != 0 or len(lines) != 2:
            sys.exit("collapselab.cli cannot be imported from " + str(SRC))
        if not Path(lines[1]).resolve().is_relative_to(SRC.resolve()):
            sys.exit(f"collapselab was imported from {lines[1]}, not from {SRC}")
        if i:
            times.append(float(lines[0]) - t0)
    return times


# -- the two modes ---------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, deadline: Deadline) -> tuple[Runner, dict]:
    setup = setup_times(deadline, SETUP_SAMPLES)
    runner = Runner(deadline)
    invs = invocations(workload, seed)
    reps: list[dict[str, float]] = []
    window_end = time.monotonic() + seconds
    while True:
        rep_start = time.monotonic()
        children = [runner.run(inv, cli_argv(inv.args), i)[0] for i, inv in enumerate(invs)]
        reps.append({
            "wall_s": sum(c.wall_s for c in children),
            "cpu_s": sum(c.cpu_s for c in children),
            "peak_rss_mb": max(c.rss_mb for c in children),
        })
        print(f"rep {len(reps)}: " + " ".join(f"{k}={v:.4f}" for k, v in reps[-1].items()))
        now = time.monotonic()
        # Start another repetition only if it should end inside the window.
        if 2 * now - rep_start > window_end or deadline.cap(INVOCATION_CAP_S) < INVOCATION_CAP_S:
            break
    values = {k: statistics.median(r[k] for r in reps) for k in reps[0]}
    values["setup_s"] = statistics.median(setup)
    values["ok_frac"] = 1.0 - runner.failed / runner.attempted
    print(f"{len(reps)} repetitions, {len(setup)} set-up samples")
    return runner, values


def workers_of(inv: Invocation) -> str:
    return inv.args[inv.args.index("--workers") + 1] if "--workers" in inv.args else "1"


def empty_pass() -> dict:
    return {"wall_s": 0.0, "main_s": 0.0, "spans": {}, "counts": {}, "edges": {},
            "bytes_written": 0, "conclusive_frac": 0.0, "verdicts": 0}


def traced_once(runner: Runner, workload: str, invs: list[Invocation]) -> dict | None:
    """One traced pass over the invocations, with the span records of its
    children merged; None if any of them failed."""
    merged = empty_pass()
    for i, inv in enumerate(invs):
        span_file = OUT / f"{workload}.{i}.spans.json"
        argv = [sys.executable, str(BENCH / "traced.py"), str(span_file), "--", *inv.args]
        child, report = runner.run(inv, argv, i)
        if report is None:
            return None
        merged["wall_s"] += child.wall_s
        merged["bytes_written"] += sum(p.stat().st_size for p in (inv.out, inv.csv) if p)
        if inv.check == "epr":
            agg = report["aggregates"]
            merged["conclusive_frac"] = agg["conclusive_trials"] / agg["trials"]
        merged["verdicts"] += inv.check == "ck"
        record = json.loads(span_file.read_text())
        merged["main_s"] += record["spans"]["cli.main"]["total_s"]
        for name, s in record["spans"].items():
            acc = merged["spans"].setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += s["calls"]
            acc["self_s"] += s["self_s"]
        for key, v in record["counts"].items():
            merged["counts"][key] = merged["counts"].get(key, 0) + v
        for a, b, c in record["edges"]:
            merged["edges"][(a, b)] = merged["edges"].get((a, b), 0) + c
    return merged


def traced_pass(workload: str, seed: int, deadline: Deadline) -> tuple[Runner, dict]:
    setup_times(deadline, 0)
    runner = Runner(deadline)
    print("traced run: workers=1 in every traced invocation (spans exist only in the "
          "traced process); its outputs must equal the untraced outputs byte for byte")
    invs = invocations(workload, seed)
    for i, inv in enumerate(invs):
        if workers_of(inv) != "1":  # the run as users make it, for the byte comparison
            runner.run(inv, cli_argv(inv.args), i)
    untraced = [serial(inv, "w1") for inv in invs]
    traced = [serial(inv, "traced") for inv in invs]
    untraced_walls, passes = [], []
    for _ in range(TRACE_PAIRS):
        untraced_walls.append(sum(runner.run(inv, cli_argv(inv.args), i)[0].wall_s
                                  for i, inv in enumerate(untraced)))
        merged = traced_once(runner, workload, traced)
        if merged is not None:
            passes.append(merged)
    # Per-layer numbers come from the traced pass with the median wall time,
    # so that its span self times and unwrapped remainder add up to it.
    passes.sort(key=lambda p: p["wall_s"])
    chosen = passes[(len(passes) - 1) // 2] if passes else empty_pass()

    values: dict[str, float] = {f"{name.split('.')[0]}.self_s": 0.0 for name in SPANS}
    for name in SPANS:
        s = chosen["spans"].get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.calls"] = float(s["calls"])
        values[f"{name}.self_s"] = s["self_s"]
        values[f"{name.split('.')[0]}.self_s"] += s["self_s"]
    for key in COUNTS:
        values[key] = float(chosen["counts"].get(key, 0))
    searches = chosen["spans"].get("ks.search_coloring", {"calls": 0})["calls"]
    verdicts = chosen["verdicts"]
    values["ks.search_calls_per_verdict"] = searches / verdicts if verdicts else 0.0
    values["scenarios.epr.conclusive_frac"] = chosen["conclusive_frac"]
    values["report.bytes_written"] = float(chosen["bytes_written"])
    untraced_wall = statistics.median(untraced_walls)
    values["trace.wall_s"] = chosen["wall_s"]
    values["trace.unwrapped_s"] = chosen["wall_s"] - chosen["main_s"]
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_frac"] = (chosen["wall_s"] - untraced_wall) / untraced_wall
    values["trace.workers"] = 1.0
    span_sum = sum(values[f"{name}.self_s"] for name in SPANS)
    print(f"traced wall {chosen['wall_s']:.4f} s = span self times {span_sum:.4f} s + "
          f"unwrapped {values['trace.unwrapped_s']:.4f} s; untraced median {untraced_wall:.4f} s "
          f"of {untraced_walls}; traced {[p['wall_s'] for p in passes]}")
    (OUT / f"{workload}.edges.json").write_text(json.dumps(
        [[a, b, c] for (a, b), c in sorted(chosen["edges"].items())], indent=0))

    values.update(layer_sweep(runner))
    values.update(workers_probe(runner, seed))
    return runner, values


def layer_sweep(runner: Runner) -> dict[str, float]:
    runner.attempted += 1
    child = spawn([sys.executable, str(BENCH / "sweep.py")], runner.deadline.cap(INVOCATION_CAP_S))
    if child.rc != 0:
        runner.fail("layer sweep", f"exit code {child.rc}")
        return {}
    return json.loads(child.stdout.splitlines()[-1])


def workers_probe(runner: Runner, seed: int) -> dict[str, float]:
    """ensemble_m64's inputs at a reduced K, workers 2 against workers 1,
    under a hard cap: ungated evidence of how the process pool behaves."""
    args = ["oracle-compare", "--hamiltonian", "free", "--points", "64", "--k", str(PROBE_K),
            "--seed", str(master_seed("probe", seed, 0))]
    out: dict[str, float] = {}
    digests = []
    for workers in (1, 2):
        path = OUT / f"probe.w{workers}.json"
        if path.exists():
            path.unlink()
        runner.attempted += 1
        child = spawn(cli_argv(args + ["--workers", str(workers), "--out", str(path)]),
                      runner.deadline.cap(PROBE_CAP_S))
        if child.rc not in (0, None):
            runner.fail(f"workers probe w{workers}", f"exit code {child.rc}")
        out[f"probe.w{workers}.wall_s"] = child.wall_s
        out[f"probe.w{workers}.cpu_s"] = child.cpu_s
        out[f"probe.w{workers}.cap_hit"] = float(child.rc is None)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest() if child.rc == 0 else None)
    identical = digests[0] is not None and digests[0] == digests[1]
    if digests[0] is not None and digests[1] is not None and not identical:
        runner.fail("workers probe", "workers=2 report differs from workers=1")
    out["probe.w2.identical"] = float(identical)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="collapselab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "collapselab" / "cli.py").is_file():
        print(f"no collapselab source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    deadline = Deadline()
    print("environment: " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        runner, values = traced_pass(args.workload, args.seed, deadline)
    else:
        runner, values = measure(args.workload, args.seed, args.seconds, deadline)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not runner.failed:
        print(f"benchmark did not produce {missing}", file=sys.stderr)
        return 1
    values.update({name: 0.0 for name in missing})  # left by a failed child; correct is false
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""zetafix benchmark: one workload per process, one closed-loop caller.

    python3 bench/run.py --workload fixtures --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 0 --seconds 20

One timed operation ("spec") takes a decoded JSON spec through
parse_spec_data -> build_report -> render_human + json.dumps.  Outputs
are checked after the timer stops.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer ones with ``--trace 1``).
The lines before it are a human-readable summary.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

# Numbers measure the program, not the BLAS thread scheduler.  This is set
# before zetafix (and numpy) is imported and is inherited only by this
# process's own children.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import checks      # noqa: E402
import workloads   # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = tuple(workloads.PASS_SIZE)
SETUP_PROBES = 11       # fresh interpreters, each timing one set-up
CLI_SAMPLES = 5
CLI_FIXTURE = "heisenberg_ex3"
OUT_DIR = ROOT / ".bench_out"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unknown"


# Machine speed.  On a shared host the same pass of specs can take 1.8x
# longer for seconds to minutes at a time, in CPU time as in wall time,
# so raw times from two runs minutes apart differ by more than any
# useful bound.  Every time the benchmark reports is therefore scaled to a
# reference speed: a fixed kernel that does not touch zetafix runs
# before the first timed spec and then about every CALIBRATE_EVERY_S, and
# each stretch of specs between two kernel runs is multiplied by
# REFERENCE_KERNEL_S / (mean time of those two kernel runs).
CALIBRATE_EVERY_S = 0.5
# The kernel's time in the fastest state seen on a 2-vCPU Intel Xeon
# (2.1 GHz) VM with Python 3.11.7, so scaled times read as times on that
# machine when nothing else slows it.
REFERENCE_KERNEL_S = 0.030


def speed_kernel() -> None:
    """Fixed pure-Python work of the kind zetafix spends most of its time
    on: products of small exact Fraction matrices whose entries grow."""
    m = [[Fraction(i + 2 * j + 1, i + j + 2) for j in range(5)]
         for i in range(5)]
    for _ in range(10):
        a = m
        for _ in range(7):
            a = [[sum(x * y for x, y in zip(row, col)) for col in zip(*m)]
                 for row in a]


def kernel_seconds() -> float:
    """Wall time of one speed_kernel run.  The collector is off during it,
    so the heap the program under test keeps does not slow the kernel."""
    gc.disable()
    try:
        t0 = perf_counter()
        speed_kernel()
        return perf_counter() - t0
    finally:
        gc.enable()


class Speed:
    """Spec times scaled to the reference speed (see REFERENCE_KERNEL_S)."""

    def __init__(self):
        self.kernel = [kernel_seconds()]
        self.last = perf_counter()
        self.pending: list = []     # raw seconds since the last kernel run
        self.times: list = []       # scaled seconds, one per spec, in order
        self.raw: list = []

    def add(self, seconds: float) -> None:
        self.pending.append(seconds)
        if perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.calibrate()

    def calibrate(self) -> None:
        if not self.pending:
            return
        k = kernel_seconds()
        scale = REFERENCE_KERNEL_S / ((self.kernel[-1] + k) / 2)
        self.times += [t * scale for t in self.pending]
        self.raw += self.pending
        self.pending = []
        self.kernel.append(k)
        self.last = perf_counter()


def setup(workload: str, seed: int):
    """Import zetafix and build the workload's serialized inputs; returns
    (zetafix module, cases, JSON texts, seconds taken)."""
    t0 = perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import zetafix
    cases = workloads.cases_for(workload, ROOT, seed)
    texts = [json.dumps(c["spec"]) for c in cases]
    return zetafix, cases, texts, perf_counter() - t0


def probe_setup(workload: str, seed: int) -> tuple:
    """Set-up time measured in a fresh interpreter: (raw seconds, seconds
    scaled to the reference speed by the kernel run right after it)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    raw, kernel = map(float, proc.stdout.split())
    return raw, raw * REFERENCE_KERNEL_S / kernel


def run_spec(zf, text: str):
    """One timed operation; returns (seconds, outcome)."""
    data = json.loads(text)
    t0 = perf_counter()
    try:
        parsed = zf.parse_spec_data(data)
        doc = zf.build_report(parsed)
        human = zf.render_human(doc)
        json_text = json.dumps(doc, indent=2)
        outcome = ("ok", doc, json_text, human)
    except Exception as e:  # any failure of the library is a failed spec
        outcome = ("error", e)
    return perf_counter() - t0, outcome


class Tally:
    """Attempted, passed and failed specs."""

    def __init__(self, workload: str, checker):
        self.workload = workload
        self.checker = checker
        self.attempted = 0
        self.passed = 0
        self.failures: list = []    # (case id, reason, known defect)

    def record(self, case: dict, outcome) -> None:
        reason = self.checker(case, outcome)
        known = reason is not None and checks.is_known_defect(
            self.workload, case, outcome)
        self.add(case["id"], reason, known)

    def add(self, case_id: str, reason, known: bool = False) -> None:
        self.attempted += 1
        if reason is None:
            self.passed += 1
        else:
            self.failures.append((case_id, reason, known))

    @property
    def correct(self) -> bool:
        return all(known for _, _, known in self.failures)


def p50(times: list) -> float:
    """The median, estimated as the mean of the middle 40 % of the
    timings (a 30 % trimmed mean).  Spec times cluster by spec type; a
    single order statistic, or a narrow band that straddles the gap
    between two clusters, jumps with small noise, and this band's mean
    does not.  Timing i of n stands for the share [i/n, (i+1)/n] of the
    sorted timings and is weighted by its overlap with [0.3, 0.7], so
    one pass and two passes of the same spec times give the same value."""
    v = sorted(times)
    lo, hi = 0.3 * len(v), 0.7 * len(v)
    return sum(x * (min(i + 1, hi) - max(i, lo))
               for i, x in enumerate(v) if lo < i + 1 and i < hi) / (hi - lo)


def timed_loop(zf, cases, texts, seconds, tally, order=None, tracer=None):
    """Run whole passes until ``seconds`` have gone (or over ``order``,
    a fixed list of case indices).  The clock is read only between
    passes, so every run covers whole passes.  Checks and kernel runs
    fall between specs, outside their timers.  Returns (Speed holding
    every spec time, case indices run)."""
    size = workloads.PASS_SIZE[tally.workload]
    n_passes = len(cases) // size
    ran = []
    speed = Speed()
    start = perf_counter()
    p = 0
    while True:
        if order is None:
            chunk = range((p % n_passes) * size, (p % n_passes + 1) * size)
        else:
            chunk = order[p * size:(p + 1) * size]
            if not chunk:
                break
        for i in chunk:
            if tracer is not None:
                tracer.request = i
            dt, outcome = run_spec(zf, texts[i])
            tally.record(cases[i], outcome)
            speed.add(dt)
            ran.append(i)
        p += 1
        if order is None and perf_counter() - start >= seconds:
            break
    speed.calibrate()
    return speed, ran


def summary_lines(workload, seed, tally, speed, extra) -> list:
    n, failed, timed = tally.attempted, len(tally.failures), len(speed.times)
    lines = [f"workload {workload}  seed {seed}  attempted {n}  "
             f"(passed {tally.passed}, failed {failed})",
             f"  failed_frac  {failed / n:.4f} ratio ({failed}/{n})",
             f"  spec_p50_ms  {p50(speed.times) * 1000:.4f} ms (n={timed}; "
             f"raw {p50(speed.raw) * 1000:.4f} ms)"]
    if timed >= 100:
        p90 = statistics.quantiles(speed.times, n=10)[-1]
        lines.append(f"  spec_p90_ms  {p90 * 1000:.4f} ms "
                     f"(n={timed}, {timed - int(0.9 * timed)} beyond)")
    lines.append(f"  kernel  median {statistics.median(speed.kernel) * 1000:.2f} ms "
                 f"over {len(speed.kernel)} runs (reference "
                 f"{REFERENCE_KERNEL_S * 1000:.0f} ms)")
    lines += [f"  {k}  {v}" for k, v in extra]
    for case_id, reason, known in tally.failures[:20]:
        tag = "known seed defect" if known else "FAILURE"
        lines.append(f"  {tag}: {case_id}: {reason}")
    if failed > 20:
        lines.append(f"  ... {failed - 20} more failures")
    return lines


def run_untraced(workload, seed, seconds, zf, cases, texts):
    samples = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    tally = Tally(workload, checks.Checker(workload, ROOT))
    speed, _ = timed_loop(zf, cases, texts, seconds, tally)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "specs_per_s": {"value": tally.passed / sum(speed.times),
                        "unit": "specs/s"},
        "spec_p50_ms": {"value": p50(speed.times) * 1000, "unit": "ms"},
        "setup_s": {"value": statistics.median(s for _, s in samples),
                    "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    extra = [(k, f"{m['value']:.4f} {m['unit']}") for k, m in metrics.items()
             if k != "spec_p50_ms"]
    extra.append(("raw specs_per_s", f"{tally.passed / sum(speed.raw):.4f} specs/s"))
    extra.append(("raw setup_s", f"{statistics.median(r for r, _ in samples):.4f} s"))
    extra.append(("timed spec seconds", f"{sum(speed.times):.2f} s "
                  f"(raw {sum(speed.raw):.2f} s)"))
    return tally, speed, metrics, extra


def cli_probes(zf) -> tuple:
    """Median import time of zetafix.cli and wall time of a `report`
    subprocess; also whether each report equals the in-process document."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    want = json.dumps(zf.build_report(zf.load_fixture(CLI_FIXTURE)), indent=2) + "\n"
    imports, reports, matches = [], [], []
    code = ("import time; t = time.perf_counter(); import zetafix.cli; "
            "print(time.perf_counter() - t)")
    for _ in range(CLI_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        imports.append(float(proc.stdout) * 1000)
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "zetafix.cli", "report", CLI_FIXTURE,
             "--format", "json"], env=env, capture_output=True, text=True,
            timeout=120)
        reports.append((perf_counter() - t0) * 1000)
        matches.append(proc.returncode == 0 and proc.stdout == want)
    return statistics.median(imports), statistics.median(reports), matches


def run_traced(workload, seed, seconds, zf, cases, texts):
    """Untraced for half the time, then the same specs traced; per-layer
    metrics.  Both loops and each CLI run count as attempted."""
    from tracer import Tracer

    tally = Tally(workload, checks.Checker(workload, ROOT))
    plain, order = timed_loop(zf, cases, texts, seconds / 2, tally)
    tracer = Tracer()
    patched = tracer.install()
    try:
        traced, _ = timed_loop(zf, cases, texts, 0, tally, order=order,
                               tracer=tracer)
    finally:
        tracer.uninstall()
    plain_wall, traced_wall = sum(plain.times), sum(traced.times)
    metrics = tracer.metrics(len(order))
    # span times to the reference speed, like the end-to-end times
    scale = traced_wall / sum(traced.raw)
    for m in metrics.values():
        if m["unit"] == "ms/spec":
            m["value"] *= scale
    metrics["trace.overhead_frac"] = {"value": traced_wall / plain_wall - 1,
                                      "unit": "ratio"}
    import_ms, report_ms, matches = cli_probes(zf)
    metrics["cli.import_ms"] = {"value": import_ms, "unit": "ms"}
    metrics["cli.report_subprocess_ms"] = {"value": report_ms, "unit": "ms"}
    for ok in matches:
        tally.add("cli", None if ok else
                  "subprocess report differs from the in-process one")
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{workload}-{seed}.json.gz"
    tracer.write(span_file, [c["id"] for c in cases])
    extra = [("bindings patched", str(patched)),
             ("spans", f"{len(tracer.span_start)} -> {span_file.relative_to(ROOT)}"),
             ("untraced / traced spec seconds",
              f"{plain_wall:.2f} s / {traced_wall:.2f} s")]
    top = sorted(((k, m["value"]) for k, m in metrics.items()
                  if k.endswith(".self_ms")), key=lambda kv: -kv[1])[:8]
    extra += [(k, f"{v:.2f} ms/spec") for k, v in top]
    return tally, traced, metrics, extra


def run_workload(args) -> int:
    env_start = {"python": sys.version.split()[0], "nproc": os.cpu_count(),
                 "loadavg_start": loadavg(), "commit": git_commit()}
    zf, cases, texts, _ = setup(args.workload, args.seed)
    run = run_traced if args.trace else run_untraced
    tally, speed, metrics, extra = run(args.workload, args.seed, args.seconds,
                                       zf, cases, texts)
    env = dict(env_start, numpy=sys.modules["numpy"].__version__,
               loadavg_end=loadavg())
    for line in summary_lines(args.workload, args.seed, tally, speed, extra):
        print(line)
    print("env " + json.dumps(env))
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
    return code


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true",
                   help="run every workload, each in a fresh process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.all and args.workload is None:
        p.error("give --workload or --all")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zetafix" / "__init__.py").is_file():
        print(f"error: no zetafix sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(setup(args.workload, args.seed)[3], kernel_seconds())
        return 0
    if args.all:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

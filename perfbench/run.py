"""Run one benchmark workload against the sepack CLI and print its metrics.

    python3 -m perfbench.run --workload catalog-audit --seed 1 --seconds 60 --trace 0

Run from the repository root.  The load is a closed loop with one client
in one process: ``sepack.cli.main`` is called in-process, one command at a
time, each starting when the previous one returns.  A pass runs every chain
of the workload once, in an order shuffled by the seed; passes repeat while
the next one is expected to end within ``--seconds`` of the run's start
(at least three), and each time metric is the median over passes.  Every
item's output is checked against its golden record.

Outputs are checked in a child process, so that the checker's memory is
not counted in the workload process's peak RSS.

With ``--trace 0`` the last line holds the end-to-end metrics, measured with
tracing off.  With ``--trace 1`` untraced and traced passes alternate and
the last line holds the per-layer metrics of the traced passes; the spans
are written to ``.bench_build/perfbench/``.  The exit code is 0 only when
every output matched.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import golden, workloads
from .tracer import LAYERS, PassTrace, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
MIN_PASSES = 3
SETUP_REPEATS = 7
# One process, one thread: BLAS pools are held to a single thread, so that a
# pass does not depend on whether the second core of a small shared machine
# is free.  main() sets these before numpy loads; setup processes inherit them.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Runs in a fresh interpreter: the cost every sepack command pays before it
# does any work.  Prints the import time and the load_catalog() time.
_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import sepack
t1 = time.perf_counter()
sepack.load_catalog()
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


def measure_setup(repeats: int = SETUP_REPEATS) -> list:
    """(import_s, load_catalog_s) from fresh processes, after one warm-up
    process that compiles the bytecode caches."""
    times = []
    for _ in range(repeats + 1):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC)],
            check=True, capture_output=True, text=True, timeout=120,
        ).stdout.split()
        times.append((float(out[0]), float(out[1])))
    return times[1:]


def import_sepack():
    sys.path.insert(0, str(SRC))
    import sepack
    import sepack.cli

    if Path(sepack.__file__).resolve().parent != SRC / "sepack":
        raise ImportError(f"sepack imported from {sepack.__file__}, not from {SRC}")
    return sepack


def check_item(expected: dict, argv, rc, stdout: str) -> list:
    """The fields where one finished item differs from its golden record."""
    return golden.mismatch(expected.get(workloads.item_id(argv)), golden.summarize(argv, rc, stdout))


# Runs in a child process in the work directory and checks each item the
# parent reports, one line in and one line out.  The checker loads whole
# verify reports, so in the workload process its memory would count in
# peak_rss_mb.
_CHECKER_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from perfbench import golden
from perfbench.run import check_item
expected = golden.load()["workloads"][sys.argv[2]]["items"]
for line in sys.stdin:
    print(json.dumps(check_item(expected, *json.loads(line))), flush=True)
"""


@contextlib.contextmanager
def checker_process(workload: str):
    """A check(argv, rc, stdout) function backed by a checker child process
    that runs in the current directory."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHECKER_CHILD, str(ROOT), workload],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )

    def check(argv, rc, stdout: str) -> list:
        proc.stdin.write(json.dumps([list(argv), rc, stdout]) + "\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"checker process exited with {proc.wait()}")
        return json.loads(line)

    try:
        yield check
    finally:
        proc.stdin.close()
        proc.stdout.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _command_time(durations: dict, commands=None) -> float:
    return sum(t for item, t in durations.items() if commands is None or item.split()[0] in commands)


@dataclass
class PassResult:
    durations: dict = field(default_factory=dict)  # item id -> seconds
    attempted: int = 0
    failures: list = field(default_factory=list)
    trace: PassTrace | None = None

    @property
    def wall_s(self) -> float:
        return _command_time(self.durations)

    @property
    def gen_s(self) -> float:
        return _command_time(self.durations, workloads.GEN_COMMANDS)

    @property
    def verify_s(self) -> float:
        return _command_time(self.durations, workloads.VERIFY_COMMANDS)


def run_pass(sepack, chains, check, tracer: Tracer | None = None) -> PassResult:
    """Run the chains once in the current directory and check every item
    with check(argv, rc, stdout), which returns the fields that differ."""
    result = PassResult()
    for chain in chains:
        for argv in chain:
            item = workloads.item_id(argv)
            if tracer is not None:
                tracer.item = item
            out = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    rc = sepack.cli.main(list(argv))
            except (Exception, SystemExit):
                rc = "raised: " + traceback.format_exc(limit=1).strip().splitlines()[-1]
            result.durations[item] = time.perf_counter() - start
            result.attempted += 1
            wrong = check(argv, rc, out.getvalue())
            if wrong:
                result.failures.append((item, wrong))
    return result


def layer_metrics(t: PassTrace, verify_items: set) -> dict:
    """Per-layer busy times and counts of one traced pass, with units."""
    n_verify = max(len(verify_items), 1)
    metrics = {
        "generators.generate_named.self_s": (t.self_s("generators.generate_named"), "s"),
        "generators.spheres": (t.count("generators.generate_named", outermost=True), "count"),
        "core.rescale_to_contact.s": (t.s("core.rescale_to_contact"), "s"),
        "core.min_pairwise_distance.s": (t.s("core.min_pairwise_distance"), "s"),
        "core.validate_packing.s": (t.s("core.validate_packing"), "s"),
        "core.validate_packing.calls": (t.calls("core.validate_packing"), "count"),
        "core.kdtree_builds": (len(t.kdtree_builds), "count"),
        "core.kdtree_builds_per_verify": (t.kdtree_builds_in(verify_items) / n_verify, "count/verify"),
        "contact.build_contact_graph.self_s": (t.self_s("contact.build_contact_graph"), "s"),
        "contact.build_contact_graph.calls": (t.calls("contact.build_contact_graph"), "count"),
        "contact.graph_builds_per_verify": (
            t.calls_in("contact.build_contact_graph", verify_items) / n_verify, "count/verify"),
        "contact.edges": (t.count("contact.build_contact_graph"), "count"),
        "contact.contains_triangle.s": (t.s("contact.contains_triangle"), "s"),
        "separability.certify.self_s": (t.self_s(
            "separability.certify_total_separability", "separability.separability_measure"), "s"),
        "separability.violations": (t.count(
            "separability.certify_total_separability", "separability.separability_measure"), "count"),
        "packio.save_packing.s": (t.s("packio.save_packing"), "s"),
        "packio.load_packing.s": (t.s("packio.load_packing"), "s"),
        "packio.bytes_written": (t.count("packio.save_packing"), "B"),
        "packio.bytes_read": (t.count("packio.load_packing"), "B"),
        "packio.build_verify_report.self_s": (t.self_s("packio.build_verify_report"), "s"),
        "packio.write_report.s": (t.s("packio.write_report"), "s"),
        "packio.report_bytes": (t.count("packio.write_report"), "B"),
        "diagonal.diagonal_construction.s": (t.s("diagonal.diagonal_construction"), "s"),
        "contact_numbers.polyomino_oracle.s": (t.s("contact_numbers.polyomino_oracle"), "s"),
        "contact_numbers.polyforms": (t.count("contact_numbers.enumerate_fixed_polyforms"), "count"),
        "contact_numbers.construction.s": (t.s(
            "contact_numbers.quasi_square_packing", "contact_numbers.box_packing"), "s"),
        "svgfig.render_svg.s": (t.s("svgfig.render_svg"), "s"),
        "cli.main.self_s": (t.self_s("cli.main"), "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (t.layer_self_s(layer), "s")
    return metrics


COUNT_UNITS = ("count", "count/verify", "B")
# the report carries its own timing field, so its size varies in the last digits
VARYING_COUNTS = ("packio.report_bytes",)


def _oeis_failures(trace: PassTrace) -> list:
    """Oracle items whose enumerated polyform count is not the OEIS value."""
    wrong = []
    for span in trace.spans:
        if span.name != "contact_numbers.enumerate_fixed_polyforms":
            continue
        argv = span.item.split()
        n, d = int(argv[argv.index("--n") + 1]), int(argv[argv.index("--d") + 1])
        if span.count != golden.OEIS_FIXED_POLYFORMS[d][n - 1]:
            wrong.append((span.item, [f"polyforms {span.count}"]))
    return wrong


def _trace_summary(passes, setup, sepack, workload, expected_inputs) -> tuple[dict, list]:
    traced = [p for p in passes if p.trace is not None]
    plain = [p for p in passes if p.trace is None]
    verify_items = {
        workloads.item_id(argv)
        for chain in workloads.chains(workload) for argv in chain if argv[0] == "verify"
    }
    per_pass = [layer_metrics(p.trace, verify_items) for p in traced]
    failures = []
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if unit in COUNT_UNITS and name not in VARYING_COUNTS and len(set(values)) != 1:
            failures.append((name, [f"count differs across passes: {values}"]))
        metrics[name] = (statistics.median(values), unit)
    for p in traced:
        failures += _oeis_failures(p.trace)
        if p.trace.total_self_s() > p.wall_s:
            failures.append(("trace", ["summed self time exceeds traced wall time"]))

    # tangent directions are a property of the input, counted outside the timed passes
    sizes = {}
    for chain in workloads.chains(workload):
        for argv in chain:
            if argv[0] == "verify":
                sizes[argv[1]] = golden.input_size(sepack, argv[1])
    if sizes != expected_inputs:
        failures.append(("inputs", ["n, m or directions differ from the golden input sizes"]))
    metrics["separability.directions"] = (sum(s["directions"] for s in sizes.values()), "count")

    traced_wall = statistics.median(p.wall_s for p in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(p.wall_s for p in plain), "s")
    metrics["setup.import_s"] = (statistics.median(t[0] for t in setup), "s")
    metrics["catalog.load_catalog.s"] = (statistics.median(t[1] for t in setup), "s")
    return metrics, failures


def _dump_spans(passes, workload, seed):
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    path = BUILD_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for number, p in enumerate(passes):
            if p.trace is None:
                continue
            for span, self_s in zip(p.trace.spans, p.trace.self_time):
                fh.write(json.dumps({"pass": number, **asdict(span), "self_s": self_s}) + "\n")
    return path


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    record = golden.load()["workloads"][workload]
    chains = workloads.chains(workload)
    rng = random.Random(seed)
    tracer = Tracer() if trace else None
    passes, checks = [], []
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(dir=BUILD_DIR, prefix="work-") as work:
        os.chdir(work)
        try:
            setup = measure_setup()
            sepack = import_sepack()
            with checker_process(workload) as check:
                longest = 0.0
                while True:
                    order = chains[:]
                    rng.shuffle(order)
                    pass_start = time.perf_counter()
                    if tracer is not None and len(passes) % 2 == 1:
                        tracer.reset()
                        with tracer.installed():
                            result = run_pass(sepack, order, check, tracer)
                        result.trace = PassTrace(tracer.spans, tracer.kdtree_builds)
                    else:
                        result = run_pass(sepack, order, check)
                    passes.append(result)
                    print(f"pass {len(passes)}{' traced' if result.trace else ''}: wall {result.wall_s:.4f} s, "
                          f"gen {result.gen_s:.4f} s, verify {result.verify_s:.4f} s", file=sys.stderr)
                    now = time.perf_counter()
                    longest = max(longest, now - pass_start)
                    if len(passes) >= MIN_PASSES and now - started + longest > seconds:
                        break
            if trace:
                metrics, checks = _trace_summary(passes, setup, sepack, workload, record["inputs"])
        finally:
            os.chdir(cwd)

    failed_items = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    if trace:
        print(f"spans written to {_dump_spans(passes, workload, seed)}", file=sys.stderr)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (statistics.median(a + b for a, b in setup), "s"),
            "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
            "gen_s": (statistics.median(p.gen_s for p in passes), "s"),
            "verify_s": (statistics.median(p.verify_s for p in passes), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    for item, wrong in failed_items + checks:
        print(f"FAILED {item}: {', '.join(wrong)}", file=sys.stderr)
    print(f"{workload}: seed {seed}, {len(passes)} passes, {attempted} items, "
          f"{len(failed_items)} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    return {
        "correct": not failed_items and not checks,
        "attempted": attempted,
        "failed": len(failed_items),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.run", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(SINGLE_THREAD_ENV)
    if not (SRC / "sepack" / "__init__.py").is_file():
        print(f"error: no sepack sources under {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

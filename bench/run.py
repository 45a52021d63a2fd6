"""quandlehom benchmark runner.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root. Generates the workload's inputs from the
seed, then measures it in a closed loop with one client: each sample is a
fresh process (so the package's lru_caches start empty), started only after
the previous one has exited. Every answer goes through gate.py. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

--trace 0 reports the end-to-end metrics (see BENCHMARK.json), with
timings scaled by the machine-speed probes in speed.py; the unscaled
values are printed as raw.*.
--trace 1 runs one untraced and one traced sample and reports the
per-layer metrics, including the tracing overhead; spans go to bench/out/.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import gate
import inputs as gen
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7  # set-up-only processes per run; setup_s is their median
PROBE_REPS = 5  # interpreter-start and import probes in the traced run
RUN_BUDGET_S = 170  # every run must exit well inside 180 s
CLI_TIMEOUT_S = 10
PACK_DEEP_TIMEOUT_S = 30

CLI_ARGV = [sys.executable, "-m", "quandlehom", "verify-paper"]
INTERP_ARGV = [sys.executable, "-c", "pass"]
IMPORT_ARGV = [
    sys.executable, "-c",
    "import time; t = time.perf_counter(); import quandlehom.cli; print(time.perf_counter() - t)",
]


class Proc(NamedTuple):
    """Outcome of one child process: wall time is spawn to exit as seen
    here, peak RSS is the child's own."""

    code: int
    out: bytes
    err: bytes
    wall_s: float
    maxrss_kb: int
    timed_out: bool


class Run:
    def __init__(self, workload, seed, seconds):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.inputs = gen.generate(workload, seed)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.wrong = []  # descriptions of wrong answers
        self.ok_ops = []  # ops that completed with a right answer
        self.setups = []
        self.walls = []  # per-sample job-list wall time
        self.latencies = []  # per-process wall time, spawn to exit
        self.rss_kb = []
        self.start_probes = []  # `python -c pass` times, between samples
        self.compute_probes = []  # speed.probe() times, from inside workers
        self.last_start_probe = -math.inf

    def sample_speed(self):
        if time.monotonic() - self.last_start_probe >= speed.SAMPLE_EVERY_S:
            self.start_probes.append(self.spawn(INTERP_ARGV).wall_s)
            self.last_start_probe = time.monotonic()

    def spawn(self, argv, stdin=b"", timeout=CLI_TIMEOUT_S):
        timeout = max(0.1, min(timeout, self.deadline - time.monotonic()))
        start = time.perf_counter()
        p = subprocess.Popen(
            argv, cwd=ROOT, env=self.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        chunks = {}
        pumps = [
            threading.Thread(target=lambda k=k, s=s: chunks.__setitem__(k, s.read()))
            for k, s in (("out", p.stdout), ("err", p.stderr))
        ]
        for t in pumps:
            t.start()
        killed = threading.Event()
        killer = threading.Timer(timeout, lambda: (killed.set(), p.kill()))
        killer.start()
        try:
            p.stdin.write(stdin)
            p.stdin.close()
        except BrokenPipeError:
            pass
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - start
        p.returncode = os.waitstatus_to_exitcode(status)  # also makes a late kill() a no-op
        killer.cancel()
        for t in pumps:
            t.join()
        p.stdout.close()
        p.stderr.close()
        timed_out = killed.is_set() and p.returncode < 0
        return Proc(p.returncode, chunks["out"], chunks["err"], wall, usage.ru_maxrss, timed_out)

    def worker(self, request, timeout=RUN_BUDGET_S):
        request = dict(request, workload=self.workload, inputs=request.get("inputs", self.inputs))
        proc = self.spawn([sys.executable, str(HERE / "worker.py")], json.dumps(request).encode(), timeout)
        result = None
        if proc.code == 0:
            result = json.loads(proc.out.decode().splitlines()[-1])
            if not Path(result["package"]).resolve().is_relative_to(SRC.resolve()):
                sys.exit(f"quandlehom was imported from {result['package']}, not from {SRC}")
        elif not proc.timed_out:
            sys.stderr.write(proc.err.decode()[-2000:])
        return proc, result

    def record(self, ops, inputs=None):
        """Count and gate the ops of one sample."""
        for op in ops:
            self.attempted += 1
            if op["error"] is not None:
                self.failed += 1
                continue
            problem = gate.check(self.workload, inputs or self.inputs, op, self.seed)
            if problem:
                self.failed += 1
                self.wrong.append(problem)
            else:
                self.ok_ops.append(op)

    def crashed(self, proc, n_ops, what):
        self.attempted += n_ops
        self.failed += n_ops
        reason = "timed out" if proc.timed_out else f"exited {proc.code}"
        print(f"# {what} {reason}; {n_ops} operations failed", file=sys.stderr)

    # -- one sample ---------------------------------------------------------

    def cli_sample(self):
        proc = self.spawn(CLI_ARGV)
        self.latencies.append(proc.wall_s)
        self.rss_kb.append(proc.maxrss_kb)
        error = None if proc.code == 0 else f"exit {proc.code}"
        answer = {"exit": proc.code, "sha256": hashlib.sha256(proc.out).hexdigest()}
        self.record([{"op": "verify-paper", "answer": answer, "error": error}])
        if error is None:
            self.walls.append(proc.wall_s)

    def worker_sample(self, recheck):
        proc, result = self.worker({"recheck": recheck})
        self.latencies.append(proc.wall_s)
        self.rss_kb.append(proc.maxrss_kb)
        if result is None:
            self.crashed(proc, gen.op_count(self.workload, self.inputs), "sample")
            return
        self.setups.append(result["setup_s"])
        self.walls.append(result["wall_s"])
        self.compute_probes += result["speed_probes"]
        self.record(result["ops"])

    def setup_probe(self):
        if self.workload == "cli-paper":
            proc = self.spawn(IMPORT_ARGV)
            return float(proc.out) if proc.code == 0 else None
        proc, result = self.worker({"setup_only": True}, timeout=CLI_TIMEOUT_S)
        return result and result["setup_s"]

    def pack_deep_probe(self):
        """The known packing defect: one failed operation per run until it
        is fixed. Kept out of wall_s and subsets_per_s."""
        probe_inputs = {"datasets": {gen.PACK_DEEP: gen.pack_deep_dataset()}}
        proc, result = self.worker({"inputs": probe_inputs}, timeout=PACK_DEEP_TIMEOUT_S)
        if result is None:
            self.crashed(proc, 1, gen.PACK_DEEP)
            return
        ok_before = len(self.ok_ops)
        self.record(result["ops"], probe_inputs)
        del self.ok_ops[ok_before:]
        for op in result["ops"]:
            print(f"# {gen.PACK_DEEP}: {op['error'] or 'completed'} in {op['elapsed_s']:.3f} s", file=sys.stderr)

    # -- whole runs ---------------------------------------------------------

    def warm_up(self):
        # writes the bytecode caches, so the first timed import is not a compile
        proc = self.spawn(IMPORT_ARGV)
        if proc.code != 0:
            sys.exit(f"cannot import quandlehom.cli from {SRC}:\n{proc.err.decode()[-2000:]}")

    def measure(self):
        self.warm_up()
        for _ in range(SETUP_PROBES):
            self.sample_speed()
            s = self.setup_probe()
            if s is not None:
                self.setups.append(s)
        start = time.monotonic()
        last = 0.0
        n = 0
        while n == 0 or time.monotonic() - start + last <= self.seconds:
            self.sample_speed()
            t = time.monotonic()
            if self.workload == "cli-paper":
                self.cli_sample()
            else:
                self.worker_sample(recheck=n == 0 and self.workload == "search-r3")
            last = time.monotonic() - t
            n += 1
        if self.workload == "search-r3":
            self.pack_deep_probe()
        if not self.walls or not self.setups:
            sys.exit("no sample completed; no metrics to report")
        self.sample_speed()
        raw = {
            "setup_s": statistics.median(self.setups),
            "wall_s": statistics.median(self.walls),
            "cli_p50_s": percentile(self.latencies, 50),
            "cli_p90_s": percentile(self.latencies, 90),
        }
        # CLI invocations and set-up are start-up bound; worker samples compute
        start_factor = speed.START_REF_S / statistics.median(self.start_probes)
        compute_factor = start_factor
        if self.compute_probes:
            compute_factor = speed.COMPUTE_REF_S / statistics.median(self.compute_probes)
        metrics = {
            name: (value * (start_factor if name == "setup_s" else compute_factor), "s")
            for name, value in raw.items()
        }
        metrics["peak_rss_mb"] = (max(self.rss_kb) / 1024, "MB")
        extra = {f"raw.{name}": (value, "s") for name, value in raw.items()}
        extra.update({
            "start_factor": (start_factor, "ratio"),
            "compute_factor": (compute_factor, "ratio"),
            "samples": (n, "count"),
            "error_rate": (self.failed / self.attempted, "ratio"),
        })
        if self.workload == "search-r3":
            subsets = sum(2 ** len(self.inputs["datasets"][op["op"]]["triple_points"]) - 1 for op in self.ok_ops)
            busy = sum(op["elapsed_s"] for op in self.ok_ops)
            extra["subsets_per_s"] = (subsets / busy if busy else 0.0, "1/s")
        return metrics, extra

    def measure_traced(self):
        self.warm_up()
        interp = statistics.median(self.spawn(INTERP_ARGV).wall_s for _ in range(PROBE_REPS))
        imports = [self.spawn(IMPORT_ARGV) for _ in range(PROBE_REPS)]
        import_s = statistics.median(float(p.out) for p in imports if p.code == 0)
        # on cli-paper both samples run verify-paper in-process, under cli.main
        plain_proc, plain = self.worker({})
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"trace-{self.workload}-seed{self.seed}.tsv.gz"
        traced_proc, traced = self.worker({"trace": str(spans)})
        for proc, result in ((plain_proc, plain), (traced_proc, traced)):
            if result is None:
                self.crashed(proc, gen.op_count(self.workload, self.inputs), "sample")
            else:
                self.record(result["ops"])
        if plain is None or traced is None:
            sys.exit("the traced or the untraced sample did not complete")
        layers = dict(traced["layers"])
        layers.update({
            "cli.interp_start_s": interp,
            "cli.import_s": import_s,
            "cli.main_s": plain["wall_s"] if self.workload == "cli-paper" else 0.0,
            "trace.wall_s": traced["wall_s"],
            "trace.untraced_wall_s": plain["wall_s"],
            "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        })
        print(f"# spans written to {spans.relative_to(ROOT)}; largest SNF {traced['max_shape']}", file=sys.stderr)
        return layers

    def result(self, metrics):
        return {
            "correct": not self.wrong,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def run_one(workload, seed, seconds, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    run = Run(workload, seed, seconds)
    if trace:
        layers = run.measure_traced()
        measured = {name: (layers[name], declared.get(name)) for name in layers}
    else:
        measured, extra = run.measure()
    if {n: u for n, (_, u) in measured.items()} != declared:
        sys.exit("measured metrics do not match the ones BENCHMARK.json declares")
    metrics = {name: measured[name] for name in declared}
    shown = metrics if trace else dict(metrics, **extra)
    print(f"# {workload} seed={seed} trace={int(trace)}")
    for name, (value, unit) in shown.items():
        print(f"#   {name:45s} {value:.6g} {unit}")
    for problem in run.wrong[:10]:
        print(f"# WRONG: {problem}")
    return run.result({n: {"value": v, "unit": u} for n, (v, u) in metrics.items()})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quandlehom" / "__init__.py").is_file():
        sys.exit(f"no package source at {SRC / 'quandlehom'}; run from a repository checkout")
    if args.workload == "all":
        results = {w: run_one(w, args.seed, args.seconds, args.trace) for w in gen.WORKLOADS}
        print(json.dumps(results))
        return
    print(json.dumps(run_one(args.workload, args.seed, args.seconds, args.trace)))


if __name__ == "__main__":
    main()

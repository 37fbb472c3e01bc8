#!/usr/bin/env python3
"""bcwitt benchmark: one closed-loop caller, one operation at a time.

Run from the repository root:

    python3 perfbench/run.py --workload witt-ghost --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke            # tiny self-test of every metric
    python3 perfbench/run.py --record-golden    # rewrite perfbench/golden.json

The library is imported from ``src/`` of the checkout the script sits in;
nothing is installed.  The last line of standard output is the result
object; the line before it is the full run record.  See README.md in this
directory for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

START = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 7
CHILD_TIMEOUT_S = 120
E2E = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
       "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    **{f"{name}.{kind}": unit for name in tracing.SPAN_NAMES
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "arith.cyclotomic.cache_hit_ratio": "ratio",
    "arith.cyclotomic_factor.divmods_per_factor": "ratio",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.inproc_ms": "ms",
    "max_coeff_bits": "bits",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing library, stale golden record)."""


# ------------------------------------------------------------------ set-up

def import_library():
    if not (SRC / "bcwitt" / "__init__.py").is_file():
        raise BenchError(f"no library at {SRC / 'bcwitt'}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bcwitt
    import bcwitt.cli
    if Path(bcwitt.__file__).resolve().parent != SRC / "bcwitt":
        raise BenchError(f"imported bcwitt from {bcwitt.__file__}, not from {SRC}")
    return bcwitt


def load_golden() -> dict:
    if not GOLDEN.is_file():
        raise BenchError(f"missing golden record {GOLDEN}")
    with open(GOLDEN, encoding="utf-8") as fh:
        data = json.load(fh)
    if data["variants"] != wl.VARIANTS:
        raise BenchError(f"golden record has {data['variants']} variants per shape, "
                         f"the generator {wl.VARIANTS}; record it again")
    return data["workloads"]


def build_ops(workload: str, seed: int) -> list[wl.Op]:
    """One round of the workload: a variant per shape, in a seeded order."""
    rng = wl.random.Random(f"bcwitt-bench-schedule:{workload}:{seed}")
    ops = []
    for sid, kind, params in wl.shapes(workload):
        variant = rng.randrange(wl.VARIANTS)
        data, props = wl.make_input(workload, sid, kind, params, variant)
        ops.append(wl.Op(f"{sid}/{variant}", kind, props, data))
    rng.shuffle(ops)
    return ops


def check_inputs(ops: list[wl.Op], golden: dict) -> None:
    for op in ops:
        if golden[op.key]["in"] != wl.input_digest(op.data):
            raise BenchError(f"input {op.key} differs from the golden record; "
                             "the generator changed, so record the golden record again")


class Runner:
    """A workload's ops bound to the library, and how to run and check one."""

    def __init__(self, workload: str, seed: int, golden: dict):
        self.lib = import_library()
        self.workload = workload
        self.golden = golden[workload]
        self.ops = build_ops(workload, seed)
        check_inputs(self.ops, self.golden)
        for op in self.ops:
            wl.bind(workload, op, self.lib)
        self.canon = wl.Canon()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("BCWITT_TRUNC", None)
        self.child_rss_kb = 0

    def warm_up(self) -> None:
        """Run the largest op of each kind once, untimed, so lazy state and
        caches (the cyclotomic cache above all) are filled before timing."""
        largest: dict[str, wl.Op] = {}
        for op in self.ops:
            size = (op.props.get("dim", 0), op.props.get("trunc", 0))
            best = largest.get(op.kind)
            if best is None or size > (best.props.get("dim", 0), best.props.get("trunc", 0)):
                largest[op.kind] = op
        for op in largest.values():
            self.run_op(op, wl.Canon())

    def run_op(self, op: wl.Op, canon: wl.Canon) -> tuple[float, bool]:
        """(latency in seconds, output matches the golden record)."""
        want = self.golden[op.key]["out"]
        if self.workload == "cli-mix":
            dt, code, out, rss = run_cli(op.data["argv"], self.env)
            self.child_rss_kb = max(self.child_rss_kb, rss)
            canon.max_bits = max(canon.max_bits, wl.cli_max_bits(out))
            return dt, wl.cli_digest(code, out) == want
        domain_error = self.lib.errors.DomainError
        t0 = time.perf_counter()
        try:
            result = op.run()
            t1 = time.perf_counter()
        except domain_error as exc:
            t1 = time.perf_counter()
            result = wl.error_result(exc)
        except Exception:        # an exception nobody expected counts as an error
            return time.perf_counter() - t0, False
        return t1 - t0, canon.digest(result) == want

    def run_inproc(self, op: wl.Op) -> tuple[float, bool]:
        """A cli-mix call through cli.main(argv) in this process."""
        buf = io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            try:
                code = self.lib.cli.main(list(op.data["argv"]))
            except SystemExit as exc:       # argparse usage errors exit 2
                code = exc.code if isinstance(exc.code, int) else 1
        dt = time.perf_counter() - t0
        out = buf.getvalue().encode()
        self.canon.max_bits = max(self.canon.max_bits, wl.cli_max_bits(out))
        return dt, wl.cli_digest(code, out) == self.golden[op.key]["out"]


def run_cli(argv: list[str], env: dict) -> tuple[float, int, bytes, int]:
    """One `python -m bcwitt.cli` call: (wall s, exit code, stdout, peak RSS kB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "bcwitt.cli", *argv], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
    dt = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return dt, proc.returncode, out, usage.ru_maxrss


def setup(workload: str, seed: int) -> Runner:
    runner = Runner(workload, seed, load_golden())
    runner.warm_up()
    return runner


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its first timed operation."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--workload",
                             workload, "--seed", str(seed), "--setup-probe"],
                            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or line != b"ready\n":
        raise BenchError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


# ---------------------------------------------------------------- measuring

def timed_phase(runner: Runner, seconds: float, probe=None, probes: int = 0) -> dict:
    """Closed loop over the round until the time is up, at least one round.

    ``probe()`` is called ``probes`` times at even steps of the timed
    seconds, with the clock stopped, so set-up samples meet the same swings
    in machine speed as the operations do."""
    ops = runner.ops
    lat: list[list[float]] = [[] for _ in ops]
    setup: list[float] = []
    failed = 0
    start, paused = time.perf_counter(), 0.0
    i = 0
    while i < len(ops) or time.perf_counter() - start - paused < seconds:
        if len(setup) < probes and time.perf_counter() - start - paused >= len(setup) * seconds / probes:
            t0 = time.perf_counter()
            setup.append(probe())
            paused += time.perf_counter() - t0
        k = i % len(ops)
        dt, ok = runner.run_op(ops[k], runner.canon)
        lat[k].append(dt)
        failed += not ok
        i += 1
    while len(setup) < probes:
        setup.append(probe())
    return {"latencies": lat, "attempted": i, "failed": failed, "setup": setup}


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    return max(50, math.floor(100 - 1000 / n))


def hd_quantile(xs: list[float], p: float, steps: int = 32) -> float:
    """Harrell-Davis estimate of the p-quantile of xs.

    A weighted mean of all order statistics, weighted by the Beta(p(n+1),
    (1-p)(n+1)) mass of each slot ((i-1)/n, i/n].  Unlike a single order
    statistic it does not jump from one operation to the next when the
    seed nudges the operations' costs past each other."""
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1) - 1, (1 - p) * (n + 1) - 1
    weights = []
    for i in range(n):
        mass = 0.0
        for j in range(steps):       # midpoint rule on the slot
            x = (i + (j + 0.5) / steps) / n
            mass += math.exp(a * math.log(x) + b * math.log1p(-x))
        weights.append(mass)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def e2e_metrics(runner: Runner, phase: dict) -> tuple[dict, dict]:
    lat, setup_samples = phase["latencies"], phase["setup"]
    # One latency per operation: the least of its repeats in the run.  The
    # least filters the speed swings a shared machine has from second to
    # second; the spread across operations keeps the work's own tail.
    per_op = sorted(min(x) for x in lat)
    n = len(per_op)
    pct = tail_percentile(n)
    busy = sum(sum(x) for x in lat)
    if runner.workload == "cli-mix":
        rss_kb = runner.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": n / sum(per_op),
        "op_p50_ms": hd_quantile(per_op, 0.5) * 1e3,
        "op_tail_ms": hd_quantile(per_op, pct / 100) * 1e3,
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": statistics.median(setup_samples),
    }
    details = {
        "error_rate": {"value": phase["failed"] / phase["attempted"], "unit": "ratio"},
        "op_tail_percentile": pct,
        "op_samples": n,
        "op_sample_note": "one latency per operation: the least of its repeats in the run; "
                          "ops_per_s is one round's operations over the sum of those latencies",
        "rounds": phase["attempted"] / len(lat),
        "busy_s": busy,
        "raw_ops_per_s": phase["attempted"] / busy,
        "per_op_ms": {op.key: min(x) * 1e3 for op, x in zip(runner.ops, lat)},
        "setup_samples_s": setup_samples,
        "max_coeff_bits": runner.canon.max_bits,
    }
    return metrics, details


def round_pass(runner: Runner) -> tuple[int, list[float], int, int]:
    """One round in this process: (failed, per-op seconds, cyclotomic cache
    hits, misses).

    cli-mix calls go through cli.main(argv), each starting with an empty
    cyclotomic cache as a fresh `python -m bcwitt.cli` process would."""
    cyclotomic = runner.lib.arith.cyclotomic
    failed, times, hits, misses = 0, [], 0, 0
    before = cyclotomic.cache_info()
    for op in runner.ops:
        if runner.workload == "cli-mix":
            cyclotomic.cache_clear()      # also zeroes the hit and miss counters
            dt, ok = runner.run_inproc(op)
            info = cyclotomic.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
        else:
            dt, ok = runner.run_op(op, runner.canon)
        times.append(dt)
        failed += not ok
    if runner.workload != "cli-mix":
        after = cyclotomic.cache_info()
        hits, misses = after.hits - before.hits, after.misses - before.misses
    return failed, times, hits, misses


def subprocess_ms(code: str, env: dict, repeats: int = 5) -> tuple[float, float]:
    """Medians of (wall ms of `python -c code`, the float it prints, in ms)."""
    walls, printed = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              stdin=subprocess.DEVNULL, capture_output=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        walls.append((time.perf_counter() - t0) * 1e3)
        if done.stdout.strip():
            printed.append(float(done.stdout) * 1e3)
    return statistics.median(walls), statistics.median(printed) if printed else 0.0


def traced_run(runner: Runner, cli: Runner, trace_path: Path | None) -> tuple[dict, dict]:
    """Per-layer metrics from two sections of in-process work.

    The workload section is one warm-up round, then an untraced and a traced
    round, twice; it gives the overhead ratio (least traced round over least
    untraced round), the cache and factoring ratios and max_coeff_bits.  The
    cli section runs the cli-mix script through cli.main untraced
    (cli.inproc_ms) and traced, so every layer is measured on every
    workload; for cli-mix the workload section is that script.
    Call counts and self times cover all traced rounds of both sections."""
    attempted = failed = hits = misses = 0

    def one(target: Runner, count_cache: bool = False) -> list[float]:
        nonlocal attempted, failed, hits, misses
        f, times, h, m = round_pass(target)
        attempted, failed = attempted + len(times), failed + f
        if count_cache:
            hits, misses = hits + h, misses + m
        return times

    one(runner)
    tracer = tracing.Tracer()
    walls_u: list[float] = []
    walls_t: list[float] = []
    inproc: list[float] = []
    for _ in range(2):
        t0 = time.perf_counter()
        times = one(runner)
        walls_u.append(time.perf_counter() - t0)
        if runner is cli:
            inproc += times
        tracer.install()
        try:
            t0 = time.perf_counter()
            one(runner, count_cache=True)
            walls_t.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
    own = tracer.summary()
    if runner is not cli:
        inproc = one(cli)
        tracer.install()
        try:
            one(cli)
        finally:
            tracer.uninstall()
    every = tracer.summary()

    interp_ms, _ = subprocess_ms("pass", runner.env)
    _, import_ms = subprocess_ms(
        "import time; t = time.perf_counter(); import bcwitt.cli; "
        "print(time.perf_counter() - t)", runner.env)
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = every["calls"][name]
        metrics[f"{name}.self_s"] = every["self_s"][name]
    metrics.update({
        "arith.cyclotomic.cache_hit_ratio": hits / max(1, hits + misses),
        "arith.cyclotomic_factor.divmods_per_factor": own["factor_divmods"] / max(1, own["factors"]),
        "cli.interp_ms": interp_ms,
        "cli.import_ms": import_ms,
        "cli.inproc_ms": statistics.median(inproc) * 1e3,
        "max_coeff_bits": runner.canon.max_bits,
        "trace.overhead_ratio": min(walls_t) / min(walls_u),
    })
    details = {
        "attempted": attempted, "failed": failed,
        "untraced_round_s": walls_u, "traced_round_s": walls_t, "spans": len(tracer.spans),
        "cyclotomic_hits": hits, "cyclotomic_misses": misses,
        "factor_divmods": own["factor_divmods"], "factors": own["factors"],
        "traced_work": "workload: warm-up round, then untraced and traced rounds twice; "
                       "cli: the cli-mix script through cli.main untraced, then traced",
    }
    if trace_path is not None:
        tracer.dump(trace_path)
        details["spans_file"] = str(trace_path.relative_to(ROOT))
    return metrics, details


# ------------------------------------------------------------------ record

def input_properties(runner: Runner) -> dict:
    ops = runner.ops
    kinds = Counter(op.kind for op in ops)
    props: dict = {"ops_per_round": len(ops), "kinds": dict(sorted(kinds.items()))}
    if runner.workload == "witt-ghost":
        vec = [op for op in ops if "rational" in op.props and op.kind not in
               ("f1_zeta", "hw_zeta_int", "hw_zeta_sym")]
        props["truncation_mix"] = dict(sorted(Counter(op.props["trunc"] for op in ops).items()))
        props["rational_share"] = sum(op.props["rational"] for op in vec) / len(vec)
    elif runner.workload == "toral-spectral":
        props["matrix_dims"] = dict(sorted(Counter(op.props["dim"] for op in ops).items()))
        props["largest_cyclotomic_index"] = max(
            max(op.props.get("indices", [0])) for op in ops)
        props["non_quasi_unipotent_share"] = sum(not op.props["qu"] for op in ops) / len(ops)
        props["series_truncations"] = sorted(op.props["trunc"] for op in ops if "trunc" in op.props)
    else:
        props["calls"] = [{"call": op.props["call"], "expect_exit": op.props["expect_exit"],
                           "argv": op.data["argv"]} for op in ops]
    return props


def record(args, runner: Runner, extra: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "cpu_count": os.cpu_count(),
        "closed_loop": "one caller, one operation at a time",
        "inputs": input_properties(runner), **extra,
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    })


# ---------------------------------------------------------------- commands

def run(args) -> int:
    runner = setup(args.workload, args.seed)
    if args.trace:
        cli = runner if args.workload == "cli-mix" else Runner("cli-mix", args.seed, load_golden())
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        metrics, details = traced_run(runner, cli, path)
        attempted, failed, units = details["attempted"], details["failed"], PER_LAYER
    else:
        main_setup = time.perf_counter() - START
        phase = timed_phase(runner, args.seconds, lambda: probe_setup(args.workload, args.seed),
                            SETUP_PROBES)
        metrics, details = e2e_metrics(runner, phase)
        details["this_process_setup_s"] = main_setup
        attempted, failed, units = phase["attempted"], phase["failed"], E2E
    print(json.dumps(record(args, runner, details)))
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0


def record_golden() -> int:
    lib = import_library()
    out: dict = {"variants": wl.VARIANTS, "workloads": {}}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("BCWITT_TRUNC", None)
    for workload in wl.WORKLOADS:
        entries = {}
        for sid, kind, params in wl.shapes(workload):
            for v in range(wl.VARIANTS):
                data, props = wl.make_input(workload, sid, kind, params, v)
                op = wl.Op(f"{sid}/{v}", kind, props, data)
                wl.bind(workload, op, lib)
                entry = {"in": wl.input_digest(data)}
                if workload == "cli-mix":
                    _, code, stdout, _ = run_cli(op.data["argv"], env)
                    if code != props["expect_exit"]:
                        raise BenchError(f"{op.key}: exit {code}, script expects "
                                         f"{props['expect_exit']}")
                    entry.update(out=wl.cli_digest(code, stdout), exit=code)
                else:
                    try:
                        result = op.run()
                    except lib.errors.DomainError as exc:
                        result = wl.error_result(exc)
                    entry["out"] = wl.Canon().digest(result)
                    if isinstance(result, dict):
                        entry["error"] = result["error"]
                entries[op.key] = entry
        out["workloads"][workload] = entries
        print(f"{workload}: {len(entries)} entries", file=sys.stderr)
    with open(GOLDEN, "w", encoding="utf-8") as fh:   # one entry per line
        fh.write('{"variants": %d, "workloads": {\n' % wl.VARIANTS)
        fh.write(",\n".join(
            json.dumps(w) + ": {\n" + ",\n".join(
                f"{json.dumps(k)}: {json.dumps(e, sort_keys=True)}" for k, e in sorted(ents.items()))
            + "\n}" for w, ents in out["workloads"].items()))
        fh.write("\n}}\n")
    return 0


def smoke() -> int:
    """Each workload at a tiny size: every metric prints with its unit, and a
    corrupted golden digest is counted as an error."""
    def check(cond: bool, what: str) -> None:
        if not cond:
            raise SystemExit(f"smoke: FAILED: {what}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E,
          "BENCHMARK.json end_to_end matches the metrics run.py prints")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
          "BENCHMARK.json per_layer matches the metrics run.py prints")
    check([w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS), "workload list")
    golden = load_golden()
    cli_small = Runner("cli-mix", 0, golden)
    cli_small.ops = [op for op in cli_small.ops if "^" not in op.props["call"]][:4]
    for workload in wl.WORKLOADS:
        runner = Runner(workload, 0, golden)
        if workload == "cli-mix":
            runner = cli_small
        else:
            small = [op for op in runner.ops if op.props.get("trunc", 0) <= 36
                     and op.props.get("dim", 0) <= 12]
            runner.ops = small[:6]
        phase = timed_phase(runner, 0, lambda: probe_setup(workload, 0), 1)
        metrics, details = e2e_metrics(runner, phase)
        line = json.loads(result_line(phase["failed"] == 0, phase["attempted"], phase["failed"],
                                      metrics, E2E))
        check(line["correct"] and details["error_rate"]["value"] == 0, f"{workload}: outputs")
        check({k: v["unit"] for k, v in line["metrics"].items()} == E2E, f"{workload}: e2e units")
        check(all(v["value"] > 0 for v in line["metrics"].values()), f"{workload}: e2e nonzero")
        layer, _ = traced_run(runner, cli_small, None)
        check(set(layer) == set(PER_LAYER), f"{workload}: per-layer metric names")
        check(all(isinstance(v, (int, float)) for v in layer.values()), f"{workload}: values")
        # A corrupted golden digest must show up as an error.
        victim = runner.ops[0].key
        saved = runner.golden[victim]["out"]
        runner.golden[victim] = dict(runner.golden[victim], out="0" * len(saved))
        corrupt = timed_phase(runner, 0)
        runner.golden[victim] = dict(runner.golden[victim], out=saved)
        check(corrupt["failed"] >= 1 and corrupt["failed"] / corrupt["attempted"] > 0,
              f"{workload}: a corrupted golden digest is counted in error_rate")
        print(f"smoke: {workload}: ok ({phase['attempted']} ops, e2e {sorted(metrics)}, "
              f"{len(layer)} per-layer metrics)")
    print("smoke: ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--record-golden", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.record_golden:
            return record_golden()
        if args.workload is None:
            p.error("--workload is required")
        if args.setup_probe:
            setup(args.workload, args.seed)
            sys.stdout.write("ready\n")
            sys.stdout.flush()
            return 0
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

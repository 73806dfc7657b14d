"""towerlim benchmark: four CLI workloads, end to end and layer by layer.

From the repository root:

    python3 perfbench/run.py
        every workload, untraced then traced, with every metric by name

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one run; the last line of standard output is the JSON result

One client in a closed loop: each command runs in a fresh interpreter, one
child process at a time, and the next starts only when the previous one has
ended.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import pace
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench-work")
REFERENCE = os.path.join(HERE, "reference.json")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
# Metric name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
# Set-up probes take at least this share of a run's time.  They run between
# samples, so `setup_s` covers the same stretch of time as `wall_s`: the
# host's speed drifts within a run.
SETUP_SHARE = 0.05
RUN_LIMIT_S = 170  # no run may take longer, whatever --seconds says


# -- one command in a fresh interpreter -------------------------------------


def run_child(argv, cache_dir=None, trace=False, timeout=RUN_LIMIT_S) -> dict:
    """Run one CLI command (or, with argv None, only the import) in a child.

    Adds `setup_s`, the seconds from spawning the child to its
    `import towerlim.cli` returning.  On a crash or timeout the result holds
    only `error`.
    """
    env = dict(os.environ)
    env.pop("TOWERLIM_CACHE", None)
    if cache_dir is not None:
        env["TOWERLIM_CACHE"] = cache_dir
    spec = json.dumps({"argv": argv, "trace": trace})
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, SRC, spec],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"timed out after {timeout:.0f} s"}
    except BaseException:  # interrupted: leave no child running
        proc.kill()
        proc.wait()
        raise
    try:
        result = json.loads(out.decode().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"child exited {proc.returncode} without a result"}
    result["setup_s"] = result.pop("imported") - spawned
    return result


# -- correctness gate ---------------------------------------------------------


def report_digest(report: dict) -> str:
    """SHA-256 of a report without its `timings` key, in canonical JSON."""
    body = {k: v for k, v in report.items() if k != "timings"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def has_fail(node) -> bool:
    """True if any row, count or stabilization entry reports a failure."""
    if isinstance(node, dict):
        if node.get("status") == "fail" or node.get("passed") is False:
            return True
        return any(has_fail(v) for v in node.values())
    if isinstance(node, list):
        return any(has_fail(v) for v in node)
    return False


def command_failures(result: dict, expected: str | None) -> list[str]:
    """Why a command counts as failed; empty if it passed.

    A command fails if it raised or exited nonzero, if its report has a
    `fail` entry, or if the report digest differs from `expected`.
    """
    if "error" in result:
        return [result["error"].strip().splitlines()[-1]]
    reasons = []
    if result["exit"] != 0:
        reasons.append(f"exit code {result['exit']}")
    try:
        report = json.loads(result["report"])
    except ValueError:
        return reasons + ["no JSON report"]
    if has_fail(report):
        reasons.append("report has a fail entry")
    if expected is not None and report_digest(report) != expected:
        reasons.append("report digest differs from the expected one")
    return reasons


# -- sampling -----------------------------------------------------------------


class Run:
    """The samples of one benchmark run of one workload and seed."""

    def __init__(self, name: str, seed: int, workdir: str, deadline: float):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.deadline = deadline
        self.expected = reference_digest(name, seed)
        self.digest = None
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.setups: list[float] = []
        self.paces: list[float] = []
        self.probe_s = 0.0

    def child(self, argv=None, cache_dir=None, trace=False) -> dict:
        timeout = max(1.0, self.deadline - time.monotonic())
        result = run_child(argv, cache_dir, trace, timeout)
        if "setup_s" in result:
            self.setups.append(result["setup_s"])
        if "pace_s" in result:
            self.paces.append(result["pace_s"])
        return result

    def probe(self, since: float) -> None:
        """Import-only set-up probes: at least one, then more until probes
        have taken SETUP_SHARE of the time since `since`."""
        while True:
            p0 = time.monotonic()
            self.child()
            now = time.monotonic()
            self.probe_s += now - p0
            if self.probe_s >= SETUP_SHARE * (now - since):
                return

    def unit(self, trace: bool = False) -> dict | None:
        """Run one sample's commands; its wall time, peak RSS and layers.

        `wall_s` and the layer times are at the reference pace (see
        pace.py); `raw_wall_s` is as the clock read it.

        Every command of a run must print the same report; the first digest
        becomes the expectation when no reference applies.
        """
        wall, raw, rss, layers, ok = 0.0, 0.0, 0.0, {}, True
        commands = workloads.unit_commands(self.name, self.seed, self.workdir,
                                           self.units)
        self.units += 1
        for argv, cache_dir in commands:
            result = self.child(argv, cache_dir, trace)
            self.attempted += 1
            if self.digest is None and "report" in result:
                try:
                    self.digest = report_digest(json.loads(result["report"]))
                except ValueError:
                    pass
            reasons = command_failures(result, self.expected or self.digest)
            if reasons:
                self.failed += 1
                print(f"FAILED {self.name} seed={self.seed} "
                      f"{' '.join(argv)}: {'; '.join(reasons)}",
                      file=sys.stderr)
            if "wall_s" not in result:
                ok = False
                continue
            scale = pace.PACE_REF_S / result["pace_s"]
            wall += result["wall_s"] * scale
            raw += result["wall_s"]
            rss = max(rss, result["peak_rss_mb"])
            for key, value in result.get("layers", {}).items():
                if PER_LAYER.get(key) == "s":
                    value *= scale
                layers[key] = layers.get(key, 0.0) + value
        if not ok:
            return None
        return {"wall_s": wall, "raw_wall_s": raw, "peak_rss_mb": rss,
                "layers": tracer.finish(layers, PER_LAYER) if trace
                else None}


def measure(name: str, seed: int, seconds: float,
            trace: bool) -> tuple[dict, dict]:
    """One benchmark run: samples for about `seconds`; its summary and result.

    A new sample starts only if it is expected to end less than half a
    sample past `seconds`, so a run of long samples does not overrun by a
    whole one.
    """
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    start = time.monotonic()
    try:
        run = Run(name, seed, workdir, start + RUN_LIMIT_S)
        run.child()  # warm-up: byte-compiles and reads the package once
        run.setups.clear()
        t0 = time.monotonic()
        plain, traced, rounds = [], [], []
        while True:
            run.probe(t0)
            elapsed = time.monotonic() - t0
            if plain and elapsed + statistics.median(rounds) / 2 >= seconds:
                break
            r0 = time.monotonic()
            plain.append(run.unit())
            if trace:
                traced.append(run.unit(trace=True))
            rounds.append(time.monotonic() - r0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    plain = [u for u in plain if u is not None]
    traced = [u for u in traced if u is not None]
    if not plain or not run.setups or (trace and not traced):
        raise RuntimeError(f"{name}: no command completed")
    walls = [u["wall_s"] for u in plain]
    summary = {
        "workload": name, "seed": seed, "digest": run.digest,
        "walls": walls, "setups": run.setups,
        "raw_wall_s": statistics.median(u["raw_wall_s"] for u in plain),
    }
    if trace:
        metrics = {
            key: statistics.median(u["layers"][key] for u in traced)
            for key in PER_LAYER
        }
        traced_wall = statistics.median(u["wall_s"] for u in traced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_frac"] = (
            traced_wall / statistics.median(walls) - 1)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            # Set-up is scaled by the run's pace, as wall_s is by each
            # command's: the probes run between the commands.
            "setup_s": statistics.median(run.setups) * pace.PACE_REF_S
            / statistics.median(run.paces),
            "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in plain),
        }
        units = END_TO_END
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    return summary, result


def high_percentile(samples: list[float]):
    """The highest of p75..p99 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def print_summary(summary: dict, result: dict) -> None:
    name, seed = summary["workload"], summary["seed"]
    walls = summary["walls"]
    print(f"== {name} seed={seed}")
    print(f"  digest {summary['digest']}")
    print(f"  commands {result['attempted']} failed {result['failed']} "
          f"fail_frac {result['failed'] / result['attempted']:.4f}")
    hp = high_percentile(walls)
    tail = (f", p{hp[0]} {hp[1]:.4f} s" if hp
            else ", too few for a percentile with 10 samples beyond it")
    print(f"  wall_s samples {len(walls)}{tail}; "
          f"{summary['raw_wall_s']:.4f} s by the clock")
    print(f"  setup_s samples {len(summary['setups'])}; "
          f"{statistics.median(summary['setups']):.4f} s by the clock")
    for key, m in sorted(result["metrics"].items()):
        print(f"  {key:32s} {m['value']:14.6f} {m['unit']}")


def reference_digest(name: str, seed: int) -> str | None:
    """The recorded report digest for this input, if there is one."""
    if name not in workloads.SEEDED:
        seed = workloads.DEFAULT_SEED
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(name, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its child (see run_child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "towerlim", "cli.py")):
        print(f"perfbench: no towerlim sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        summary, result = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
        print_summary(summary, result)
        print(json.dumps(result))
        return 0
    ok = True
    for name in workloads.NAMES:
        for trace in (False, True):
            summary, result = measure(name, args.seed, args.seconds, trace)
            print_summary(summary, result)
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Record the report digests that the benchmark's correctness gate expects.

    python3 perfbench/record_reference.py

Runs the first command of each workload once, untraced, at seeds
0..NUM_SEEDS-1 (the curve workloads have fixed inputs and are recorded
once), and writes reference.json.  Run it only at a commit whose
reports are known to be right: later runs are checked against it.
"""

import json
import os
import sys
import tempfile

import run
import workloads

NUM_SEEDS = 20


def main() -> int:
    refs = {}
    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
        for name in workloads.NAMES:
            seeds = range(NUM_SEEDS) if name in workloads.SEEDED \
                else [workloads.DEFAULT_SEED]
            refs[name] = {}
            for seed in seeds:
                argv, cache_dir = workloads.unit_commands(
                    name, seed, workdir, seed)[0]
                result = run.run_child(argv, cache_dir)
                reasons = run.command_failures(result, None)
                if reasons:
                    print(f"{name} seed={seed}: {'; '.join(reasons)}",
                          file=sys.stderr)
                    return 1
                digest = run.report_digest(json.loads(result["report"]))
                refs[name][str(seed)] = digest
                print(name, seed, digest, flush=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

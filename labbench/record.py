"""Record the artifact digests that run.py compares against.

    python3 labbench/record.py

Runs every workload once per seed variant, untraced, and writes
labbench/references.json. Run it only at a commit whose artifacts are the
reference, and refuses to record a run whose checks fail.
"""

import json
import shutil
import sys

from run import BENCH, OUT, SEED_VARIANTS, WORKLOADS, run_child, summarize_checks


def main() -> int:
    shutil.rmtree(OUT / "record", ignore_errors=True)
    refs = {}
    for workload in WORKLOADS:
        refs[workload] = {}
        for variant in range(SEED_VARIANTS):
            result = run_child(OUT / "record" / f"{workload}-{variant}", workload,
                               variant)
            attempted, failed, names = summarize_checks([result])
            if failed:
                print(f"{workload} seed {variant}: failed {names}", file=sys.stderr)
                return 1
            refs[workload][str(variant)] = result["digests"]
            print(f"{workload} seed {variant}: {attempted} checks passed, "
                  f"{len(result['digests'])} digests, {result['wall_s']:.1f} s")
    (BENCH / "references.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

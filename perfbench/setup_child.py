"""Time the program's set-up in a fresh process.

    python3 perfbench/setup_child.py --workload WORKLOAD_JSON --seed 1 --dir DIR

``WORKLOAD_JSON`` holds the fields of a ``workloads.Workload``.  Reads the
workload's ``.ten`` files from ``DIR`` (written there by ``run.py``) and
makes ``setup_blocks`` timed blocks of ``setup_passes`` set-up passes each.
Prints one JSON object: the time per pass of each block, and the digests
of the instances built by the last pass of each block.  ``run.py`` starts
several such processes during a run: on small inputs the time of a pass
differs between processes by up to a factor 1.7, so the set-up figure is a
median over processes.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args(argv)
    import workloads

    fields = json.loads(args.workload)
    w = workloads.Workload(**{k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()})
    inputs = workloads.input_files(w, args.seed, args.dir)
    times, digests = [], set()
    for _ in range(w.setup_blocks):
        began = time.perf_counter()
        for _ in range(w.setup_passes):
            instances = workloads.set_up(w, inputs)
        times.append((time.perf_counter() - began) / w.setup_passes)
        digests.add(workloads.instances_digest(instances))
    print(json.dumps({"times": times, "digests": sorted(digests)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

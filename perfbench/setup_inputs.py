"""One timed set-up: import censdev, then write a workload's generated inputs.

Run as ``python3 perfbench/setup_inputs.py <workload> <seed> <size> <workdir>``
by ``run.py``, once per set-up repetition, each in a fresh interpreter so the
import is paid every time.  Prints ``{"setup_s", "slice_s", "slices"}`` as its
last line: the set-up time less the host-speed slices that fell into it, and
those slices' total time and number (``hostspeed.py``).
"""

import time

_start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSampler  # noqa: E402  (pure Python, imports little)


def main(argv: list[str]) -> int:
    workload, seed, size, workdir = argv
    with HostSampler() as sampler:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        import censdev.cli  # noqa: F401

        from workloads import prepare

        prepare(workload, int(seed), size, Path(workdir))
    setup_s = time.perf_counter() - _start - sampler.spent
    print(json.dumps({"setup_s": setup_s, "slice_s": sampler.spent,
                      "slices": sampler.slices}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

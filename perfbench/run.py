"""censdev benchmark: one workload, closed loop, seeded inputs, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload survival-aml --seed 1 --seconds 22 --trace 0

The run first sets up ``SETUP_REPEATS`` times, each in a fresh interpreter
(import censdev, write the generated inputs), then repeats the workload's
CLI command sequence in this process through ``censdev.cli.main(argv)``, one
command at a time with no extra threads, for ``--seconds`` seconds.  Each
command is one operation; it fails on a non-zero exit code, an escaped
exception or a failed output check, and a failure never stops the run.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (mean wall time of
one pass over the command sequence), ``setup_s`` (median set-up time),
``peak_rss_mb`` (peak resident memory of this process); ``fail_rate`` is
printed with them and carried by ``failed``/``attempted``.  ``wall_s`` and
``setup_s`` are reported at reference host speed: ``hostspeed.py`` times a
small fixed slice of reference work every 0.1 s while the passes and
set-ups run, and each measured time, less those slices, is divided by the
host slowdown they show over the same seconds.  Both the measured times
and the slowdowns are printed.  ``--trace 1`` cycles through
untraced, spans and counts passes and reports the per-layer metrics of
``tracing.py`` plus ``trace.overhead_s``, the mean spans minus the untraced
mean measured pass time.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import HostSampler, slowdown
from workloads import SIZES, WORKLOADS, operations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 120


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input and chain size; 'tiny' is for the smoke test")
    return parser.parse_args(argv)


def _setup(args, workdir: Path) -> tuple[list[float], float]:
    """Run the timed set-up SETUP_REPEATS times; each rewrites the same inputs.

    Returns the set-up times and the host slowdown sampled inside them.
    """
    times, spent, slices = [], 0.0, 0
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_inputs.py"), args.workload,
             str(args.seed), args.size, str(workdir)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(result["setup_s"])
        spent += result["slice_s"]
        slices += result["slices"]
    return times, slowdown(spent, slices)


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "seed": seed,
    }


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
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


def _digest(out_dir: Path) -> str:
    """sha256 over the relative names and bytes of every artifact of one pass."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs passes over one workload's command sequence in the work directory."""

    def __init__(self, meta: dict, workdir: Path, sampler: HostSampler):
        from censdev.cli import main

        self.cli_main = main
        self.meta = meta
        self.workdir = workdir
        self.ops = operations(meta)
        self.attempted = 0
        self.failed = 0
        self.sampler = sampler

    def one_pass(self, tracer=None) -> tuple[float, float, str]:
        """One pass: run every command, then check its outputs.

        Returns ``(wall, slowdown, digest)``: the time of the commands less
        the host-speed slices that fell into them, the host slowdown those
        slices show over the pass, and the digest of the pass's artifacts.
        """
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        results = []
        wall = 0.0
        pass_spent, pass_slices = self.sampler.spent, self.sampler.slices
        for name, argv, check in self.ops:
            start, sampled = time.perf_counter(), self.sampler.spent
            results.append((name, check, self._invoke(argv, tracer)))
            wall += time.perf_counter() - start - (self.sampler.spent - sampled)
        for name, check, (code, error, output) in results:
            self.attempted += 1
            if error is None and code != 0:
                error = f"exit code {code}: {output.strip()}"
            if error is None:
                try:
                    check(self.workdir, self.meta)
                except Exception as exc:  # a failed or crashing check fails the op
                    error = f"check failed: {exc}"
            if error is not None:
                self.failed += 1
                print(f"FAILED {self.meta['workload']}/{name}: {error}", file=sys.stderr)
        host = slowdown(self.sampler.spent - pass_spent, self.sampler.slices - pass_slices)
        return wall, host, _digest(out)

    def _invoke(self, argv, tracer):
        captured = io.StringIO()
        index = tracer.open("cli.command") if tracer is not None else None
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = self.cli_main(argv)
            return code, None, captured.getvalue()
        except (Exception, SystemExit):  # an escaped exception fails the operation
            return None, "escaped exception:\n" + traceback.format_exc(), captured.getvalue()
        finally:
            if tracer is not None:
                tracer.close(index)
                tracer.counts["cli.commands"] += 1


PASS_KINDS = ("untraced", "spans", "counts")


def _measure(runner: Runner, seconds: float, traced: bool):
    """Repeat passes for ``seconds``; traced runs cycle through PASS_KINDS.

    ``walls`` holds the measured pass times and ``slowdowns`` the host
    slowdown of each pass; the layer times in ``times`` are already at
    reference host speed.
    """
    from tracing import Tracer

    tracer = Tracer() if traced else None
    walls = {kind: [] for kind in PASS_KINDS}
    slowdowns = {kind: [] for kind in PASS_KINDS}
    times, counts, digests = [], [], set()
    begin = time.perf_counter()
    last = 0.0
    n = 0
    while n < (len(PASS_KINDS) if traced else 1) or (
        time.perf_counter() - begin + last <= seconds
    ):
        t0 = time.perf_counter()
        kind = PASS_KINDS[n % len(PASS_KINDS)] if traced else "untraced"
        if kind == "untraced":
            wall, host, digest = runner.one_pass()
        else:
            tracer.iteration = n
            before = tracer.counts.copy()
            tracer.install(per_row_counts=kind == "counts")
            try:
                wall, host, digest = runner.one_pass(tracer)
            finally:
                tracer.uninstall()
            if kind == "spans":
                layer = tracer.layer_times(n, tracer.counts - before)
                times.append({name: value / host for name, value in layer.items()})
            else:
                counts.append(tracer.counts - before)
        walls[kind].append(wall)
        slowdowns[kind].append(host)
        digests.add(digest)
        n += 1
        last = time.perf_counter() - t0
    if traced:
        tracer.dump(WORK_ROOT / f"{runner.meta['workload']}-seed{runner.meta['seed']}"
                                f".spans.json")
    return walls, slowdowns, times, counts, digests


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "censdev" / "__init__.py").is_file():
        print(f"perfbench: no censdev sources at {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("CENSDEV_OUTPUT_ROOT", None)  # keep every artifact in the checkout
    workdir = WORK_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    cwd = os.getcwd()
    try:
        setup_times, setup_slowdown = _setup(args, workdir)
        sys.path.insert(0, str(SRC))
        import censdev

        if Path(censdev.__file__).resolve().parent != SRC / "censdev":
            print(f"perfbench: imported censdev from {censdev.__file__}", file=sys.stderr)
            return 2
        meta = json.loads((workdir / "meta.json").read_text(encoding="utf-8"))
        os.chdir(workdir)
        with HostSampler() as sampler:
            runner = Runner(meta, workdir, sampler)
            walls, slowdowns, times, counts, digests = _measure(
                runner, args.seconds, bool(args.trace))
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    from tracing import LAYER_UNITS, layer_metrics

    # Pass times at reference host speed (hostspeed.py); the measured ones
    # are printed below.
    at_reference = {kind: [w / h for w, h in zip(walls[kind], slowdowns[kind])]
                    for kind in PASS_KINDS}
    untraced = walls["untraced"]
    summary = {
        "wall_s": (statistics.fmean(at_reference["untraced"]), "s"),
        "setup_s": (statistics.median(setup_times) / setup_slowdown, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    if args.trace:
        overhead = (statistics.fmean(at_reference["spans"])
                    - statistics.fmean(at_reference["untraced"]))
        layer = layer_metrics(times, counts[0], overhead)
        metrics = {name: (layer[name], unit) for name, unit in LAYER_UNITS.items()}
    else:
        metrics = summary
    fail_rate = runner.failed / runner.attempted

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          + ", ".join(f"{len(w)} {kind}" for kind, w in walls.items() if w) + " passes")
    for name, (value, unit) in {**summary, "fail_rate": (fail_rate, "ratio")}.items():
        print(f"  {name:<12} {value:.6g} {unit}")
    print(f"  measured wall_s per pass: {' '.join(f'{w:.4f}' for w in untraced)} "
          f"(mean {statistics.fmean(untraced):.4f})")
    print(f"  host slowdown per pass: "
          f"{' '.join(f'{h:.4f}' for h in slowdowns['untraced'])}")
    print(f"  measured setup_s per set-up: {' '.join(f'{t:.4f}' for t in setup_times)} "
          f"(host slowdown {setup_slowdown:.4f})")
    print(f"  failed {runner.failed} of {runner.attempted} operations")
    if args.trace:
        print(f"  counts passes (per-row counters on): mean "
              f"{statistics.fmean(at_reference['counts']):.4f} s")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<40} {value:.6g} {unit}")
    print("env " + json.dumps(_environment(args.seed), sort_keys=True))
    print("artifacts_sha256 " + " ".join(sorted(digests)))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

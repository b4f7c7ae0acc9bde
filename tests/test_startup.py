"""Start-up cost: ``scipy.special`` is imported only when a kernel needs it.

A fresh interpreter, with this checkout's ``src`` first on ``PYTHONPATH``,
walks the paths that need no special function (import, ``--help``, a config
error, ``export-density``, survival fits in both modes) and records after
each whether ``scipy.special`` has been imported.  It then scores a Normal
and a Binomial block, which must load it and match the same formulas
evaluated with ``scipy.special`` directly, bit for bit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import contextlib, io, json, sys
from pathlib import Path

work = Path(sys.argv[1])
loaded = {}

def check(step):
    loaded[step] = "scipy.special" in sys.modules

def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

import censdev
check("import censdev")
from censdev.cli import main
check("import censdev.cli")
assert quiet_main(["--help"]) == 0
check("--help")

bad = work / "bad.json"
bad.write_text("{not json", encoding="utf-8")
assert quiet_main(["fit", "--config", str(bad)]) == 2
check("config error")

trace = work / "samples.csv"
trace.write_text("alpha,beta\n" + "".join(f"{0.1 * i},{i % 7}\n" for i in range(40)),
                 encoding="utf-8")
assert quiet_main(["export-density", "--trace", str(trace), "--param", "alpha",
                   "--out", str(work / "density.csv")]) == 0
check("export-density")

for mode in ("exact", "dinterval"):
    config = work / f"fit-{mode}.json"
    config.write_text(json.dumps({
        "dataset": "bundled:aml",
        "model": {"family": "survival-exponential"},
        "mode": mode,
        "chains": {"n_chains": 2, "burn_in": 30, "n_keep": 30, "seed": 5},
        "output_dir": str(work / mode),
    }), encoding="utf-8")
    assert quiet_main(["fit", "--config", str(config)]) == 0
    check(f"fit {mode}")

try:
    from censdev import _special
    path_raises = not hasattr(_special, "__path__")
except ImportError:
    path_raises = False
check("__path__ probe")

import numpy as np
from censdev.distributions import Binomial, Normal
from censdev.likelihood import CensoredDataset

inf = float("inf")
hi = np.array([-1.5, 0.2, 3.0])
left = CensoredDataset([1, 1, 1], [-inf] * 3, hi, [np.nan] * 3)
mean, precision = np.array([0.3, -0.4, 1.1]), np.array([0.5, 2.0, 4.0])
normal = Normal.log_contrib(left, mean, precision)
normal_loads = "scipy.special" in sys.modules

y = np.array([1.0, 3.0, 7.0])
counts = CensoredDataset([0, 0, 0], [-inf] * 3, [inf] * 3, y, trials=[10, 12, 9])
prob = np.array([0.2, 0.5, 0.9])
binomial = Binomial.log_contrib(counts, counts.trials, prob)

from scipy import special
n = counts.trials
normal_ref = special.log_ndtr((hi - mean) * np.sqrt(precision))
binomial_ref = (special.gammaln(n + 1) - special.gammaln(y + 1) - special.gammaln(n - y + 1)
                + special.xlogy(y, prob) + special.xlog1py(n - y, -prob))

print(json.dumps({
    "loaded": loaded,
    "path_raises": path_raises,
    "normal_loads": normal_loads,
    "normal_bit_equal": normal.tobytes() == normal_ref.tobytes(),
    "binomial_bit_equal": binomial.tobytes() == binomial_ref.tobytes(),
}))
"""

STEPS = [
    "import censdev",
    "import censdev.cli",
    "--help",
    "config error",
    "export-density",
    "fit exact",
    "fit dinterval",
    "__path__ probe",
]


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    work = tmp_path_factory.mktemp("startup")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), path])))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(work)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("step", STEPS)
def test_path_never_imports_scipy_special(fresh, step):
    assert fresh["loaded"][step] is False


def test_private_probe_raises_attribute_error(fresh):
    assert fresh["path_raises"]


def test_kernels_load_it_on_first_use_and_match_scipy_bit_for_bit(fresh):
    assert fresh["normal_loads"]
    assert fresh["normal_bit_equal"]
    assert fresh["binomial_bit_equal"]


AE_SCRIPT = r"""
import sys
import censdev.cli
from censdev.datasets import serialize, synthetic_ae_dataset

text = serialize(synthetic_ae_dataset(seed=1))
assert text.startswith("outcome,"), text[:40]
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_writing_the_ae_dataset_never_imports_scipy():
    """The ``ae-compare`` benchmark's set-up: import the CLI, then write the
    synthetic AE dataset; no scipy module is loaded."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), path])))
    proc = subprocess.run([sys.executable, "-c", AE_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"

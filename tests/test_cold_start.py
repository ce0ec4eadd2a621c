"""Import boundary: scipy loads only on the paths that compute with it.

Each check runs in a fresh interpreter, because the test process itself
has long since imported scipy through other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def _loaded(code, package="scipy"):
    """Run ``code`` in a new interpreter; return the modules of
    ``package`` (a dotted name) it loaded."""
    report = (
        "import sys; print(sorted(m for m in sys.modules "
        f"if (m + '.').startswith({package + '.'!r})))"
    )
    result = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


@pytest.fixture(scope="module")
def trace_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cold") / "history.csv"
    assert main(["trace", "r3.xlarge", "--days", "10", "--seed", "3",
                 "--out", str(path)]) == 0
    return path


def _cli(*argv):
    return f"from repro.cli import main\nassert main({list(argv)!r}) == 0"


class TestScipyStaysUnloaded:
    def test_cli_import(self):
        assert _loaded("import repro.cli") == "[]"

    def test_bid_all_strategies(self, trace_csv):
        code = _cli("bid", str(trace_csv), "--strategy", "all")
        assert _loaded(code) == "[]"

    def test_serve_smoke(self, trace_csv):
        code = _cli("serve", str(trace_csv), "--smoke", "200")
        assert _loaded(code) == "[]"

    def test_sweep_user_imports(self):
        code = (
            "import repro.sweep, repro.serve, repro.mapreduce.grid, "
            "repro.traces.generator"
        )
        assert _loaded(code) == "[]"


def test_engine_imports_leave_the_scheduler_unloaded():
    """The process pool loads only when a run fans out to processes."""
    code = "import repro.sweep, repro.mapreduce.grid"
    assert _loaded(code, "repro.scheduler") == "[]"


def test_fitting_still_loads_scipy_and_fits():
    code = (
        "import numpy as np\n"
        "from repro.provider.fitting import fit_both_families\n"
        "from repro.traces.generator import generate_equilibrium_history\n"
        "hist = generate_equilibrium_history("
        "'r3.xlarge', days=5, rng=np.random.default_rng(0))\n"
        "pareto, expo = fit_both_families(hist.prices, 0.35)\n"
        "assert pareto.beta == expo.beta\n"
        "assert expo.mse_mass < 5e-4"
    )
    loaded = _loaded(code)
    assert "'scipy.optimize'" in loaded

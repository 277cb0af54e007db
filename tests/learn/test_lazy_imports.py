"""The training stack (and scipy with it) loads only when training runs.

Deploying a policy or starting the CLI must not pay for the Bayesian
optimizer's scipy imports; each probe runs in a fresh interpreter so
modules other tests already imported cannot mask an eager import.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SRC = str(Path(repro.__file__).resolve().parent.parent)


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("module", ["repro.cli", "repro.learn.pretrained"])
def test_import_leaves_scipy_stats_unloaded(module):
    out = _run(
        f"import sys, {module}; "
        "print('scipy.stats' in sys.modules, 'repro.learn.trainer' in sys.modules)"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False"]


def test_trainer_exports_resolve_on_demand():
    out = _run(
        "import sys; "
        "from repro.learn import PolicyTrainer, TrainedPolicy, train_policy; "
        "from repro.learn.trainer import PolicyTrainer as direct; "
        "assert PolicyTrainer is direct; "
        "print('scipy.stats' in sys.modules)"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True"]


def test_unknown_attribute_still_raises():
    import repro.learn

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.learn.no_such_name

"""The package API that the benchmark's parameter scan calls.

`python3 -m pytest bench` tests the benchmark's checkers without running
becnlo, so a name or signature that bench/worker.py relies on is checked
here: the first scenarios of one scan round go through `worker.scan_op` and
must pass `worker.check_scan`.
"""

import contextlib

import pytest

import becnlo
import becnlo.cli  # noqa: F401  (scan_op reads the CLI's grid defaults)
from conftest import REPO_ROOT


@pytest.fixture(scope="module")
def worker():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(REPO_ROOT / "bench"))
        import worker

        yield worker


def test_scan_op_runs_and_checks(worker):
    for p, amps in worker.make_scenarios(1)[:8]:
        out = worker.scan_op(becnlo, becnlo.config_from_dict(p), amps, contextlib.nullcontext())
        assert worker.check_scan(p, out) == []

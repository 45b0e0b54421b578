import os
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def src_env():
    """The environment of a fresh interpreter that imports this checkout's maslov."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env

import os
import pathlib

import numpy as np
import pytest

# subprocess tests run ``python -m nanoheat``; let them import the package
# from src/ as the test process does, so no install is needed
_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

#: Base seed for every randomized check; override via the environment to
#: re-roll the sampled sweeps.
BASE_SEED = int(os.environ.get("NANOHEAT_SEED", "0"))


@pytest.fixture
def rng():
    return np.random.default_rng(BASE_SEED)


def make_rng(offset: int = 0) -> np.random.Generator:
    return np.random.default_rng(BASE_SEED + offset)

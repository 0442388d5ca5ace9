import os
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def scenario_dir() -> pathlib.Path:
    return REPO / "scenarios"


@pytest.fixture(scope="session", autouse=True)
def children_import_src():
    """CLI and script tests start `python` in a child process, which finds the
    package through PYTHONPATH: `pythonpath` in pyproject.toml reaches only the
    test process."""
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, paths)))
        yield

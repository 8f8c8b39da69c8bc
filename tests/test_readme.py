"""The README's library example runs and its stated agreements hold."""
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The python block under the README's "## Library example" heading."""
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under ## Library example"
    return match.group(1)


def test_library_example_runs_and_agrees():
    ns = {}
    exec(compile(library_example(), str(README), "exec"), ns)
    # exact == table == oracle to 1e-12
    assert abs(ns["exact"] - ns["table"]) <= 1e-12
    assert abs(ns["exact"] - ns["oracle"]) <= 1e-12
    # the grid evaluation of the same closed form and tables
    assert np.allclose(ns["closed"], ns["from_tables"], rtol=0.0, atol=1e-12, equal_nan=True)
    # the noise study of those tables: one record per time, their ideal
    study = ns["study"]
    assert study.t.tolist() == ns["ts"].tolist()
    assert np.array_equal(study.ideal, ns["from_tables"], equal_nan=True)
    assert not study.flagged.any()
    # the quadrature agrees with g and g2s to ~1e-5
    assert np.max(np.abs(ns["g_num"] - ns["g"])) <= 1e-5
    assert np.max(np.abs(ns["g2_num"] - ns["g2s"])) <= 1e-5

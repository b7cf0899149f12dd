"""Every poscert name the benchmark in perfbench/ reaches still resolves.

The tracer wraps each function in ``spans.TRACED`` by module and attribute
name, and ``workloads.py`` reads a few names more; a removed or renamed one
would only fail a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from unittest.mock import patch

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced():
    # loaded by path, so that perfbench/ does not go on sys.path
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    with patch.dict(sys.modules, {spec.name: spans}):  # where @dataclass looks its module up
        spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _, _ in spans.TRACED]


WORKLOAD_NAMES = [
    ("poscert.lattice", "Lattice"),
    ("poscert.lattice", "e8_coordinate_lattice"),
    ("poscert.delsarte", "known_certificate"),
    ("poscert.delsarte", "KNOWN_CERTIFICATE_NAMES"),
]


@pytest.mark.parametrize("module, attr", _traced() + WORKLOAD_NAMES)
def test_perfbench_name_resolves(module, attr):
    assert getattr(importlib.import_module(module), attr, None) is not None

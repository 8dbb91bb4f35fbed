"""The benchmark's layer tracer still finds every layer it reports.

``perfbench/layertrace.py`` skips a wrapping target whose name a module
no longer has, so a rename in ``secpon`` would silently drop a layer
from the traces.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layertrace  # noqa: E402


def test_every_layer_resolves_to_a_target():
    found = {layer for layer, _, _, _ in layertrace.layer_targets()}
    assert [layer for layer in layertrace.LAYERS if layer not in found] == []

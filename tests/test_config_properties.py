"""Property test of the config schema over mutated sample configs.

Each example takes a checked-in config and either sets one field (a known
one or an unknown key) to a value from a fixed pool or deletes it.  Every
such config must either fail ``masim validate`` with exit 2, and then fail
``masim run`` with exit 2 before writing anything, or pass ``validate`` and
run to completion (with ``--trials 1``, to stay quick).
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from masim.cli import main
from masim.experiments import _SCHEMA

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SAMPLES = {p.name: json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))}
MISSING = object()
POOL = [MISSING, None, True, "x", [], [2.5], -1, 0, 1, 2, 0.3, 2.5, 1e300]


@st.composite
def mutated_configs(draw):
    cfg = dict(SAMPLES[draw(st.sampled_from(sorted(SAMPLES)))])
    fields = sorted(set(cfg) | set(_SCHEMA[cfg["kind"]]) | {"output_dir", "not_a_field"})
    key, value = draw(st.sampled_from(fields)), draw(st.sampled_from(POOL))
    if value is MISSING:
        cfg.pop(key, None)
    else:
        cfg[key] = value
    return cfg


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(mutated_configs())
def test_every_config_fails_validate_or_runs(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg))
        out.mkdir()
        code = main(["validate", "-c", str(path)])
        assert code in (0, 2)
        if code == 2:
            assert main(["run", "-c", str(path), "-o", str(out)]) == 2
            assert list(out.iterdir()) == []
        else:
            assert main(["run", "-c", str(path), "-o", str(out), "--trials", "1"]) == 0

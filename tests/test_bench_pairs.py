import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("extra, message", [
    (["--pairs", "9"], "--pairs must be at least 10"),
    (["--seconds", "5"], "unrecognized arguments: --seconds 5"),
])
def test_bench_pairs_rejects_fewer_than_ten_pairs_and_a_run_length(
        tmp_path, capsys, extra, message):
    """Ten pairs is the least that can show a gain in nine of ten, and the run
    length is perfbench's own; both are refused before any revision is read."""
    tool = load_tool()
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        tool.main(["--parent", "HEAD", "--seed", "1", "--claim",
                   "enhance_default.rtf", "--out", str(out), *extra])
    assert exc.value.code == 2
    assert not out.exists()
    assert message in capsys.readouterr().err

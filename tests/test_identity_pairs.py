import importlib.util
import json
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("identity_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_identity_pairs_names_a_one_ulp_difference_and_a_dtype_change(
        tmp_path, monkeypatch, capsys):
    """Each case runs on the parent's extracted tree and on this checkout;
    an array agrees only when its bytes, dtype and shape do. A one-ulp
    change and a change of dtype alone are each caught and named, the exit
    status is 1, and the output file keeps both sides' hashes."""
    tool = load_tool()
    a = np.linspace(0.0, 1.0, 7)
    planted = a.copy()
    planted[3] = np.nextafter(planted[3], 2.0)
    sides = {"parent": {"same": a, "ulp": a, "dtype": a},
             "change": {"same": a.copy(), "ulp": planted, "dtype": a.astype(np.float32)}}
    runs = []
    monkeypatch.setattr(tool, "run_case",
                        lambda side, tree, case, tmp: runs.append((side, case))
                        or sides[side])
    monkeypatch.setattr(tool, "extract", lambda rev, dest: "f" * 40)
    out = tmp_path / "ident.json"
    assert tool.main(["--parent", "HEAD", "--case", "train_tiny", "--out", str(out)]) == 1
    assert runs == [("parent", "train_tiny"), ("change", "train_tiny")]
    report = json.loads(out.read_text())
    assert report["equal"] is False and report["parent"] == "f" * 40
    rows = report["cases"]["train_tiny"]
    assert rows["same"]["equal"] and "max_abs_diff" not in rows["same"]
    assert not rows["ulp"]["equal"]
    assert rows["ulp"]["max_abs_diff"] == planted[3] - a[3]
    assert rows["ulp"]["parent"]["sha256"] != rows["ulp"]["change"]["sha256"]
    assert not rows["dtype"]["equal"]
    assert rows["dtype"]["change"]["dtype"] == "float32"
    assert "train_tiny: 1 of 3 arrays equal; differ: dtype, ulp" in capsys.readouterr().out


def test_identity_pairs_case_runs_the_same_twice(tmp_path):
    """A real case, run twice on this checkout in fresh interpreters, gives
    the same arrays: the battery itself is deterministic."""
    tool = load_tool()
    first, second = (tool.run_case(side, str(tool.ROOT), "enhance_tiny_odd", tmp_path)
                     for side in ("a", "b"))
    rows = tool.compare(first, second)
    assert sorted(rows) == ["float32", "float64"]
    assert all(r["equal"] for r in rows.values())
    assert rows["float32"]["dtype"] == "float32"
    assert rows["float64"]["shape"] == [2, 10_001]

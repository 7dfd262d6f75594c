import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

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


def test_identity_pairs_allows_only_declared_differences_within_their_tolerance(
        tmp_path, monkeypatch, capsys):
    """`--expect NAME=TOL` allows a case's arrays, or one array, to differ
    by a relative TOL. A planted difference inside its TOL passes; one above
    it fails the run and is named, and so is one that no TOL declares. The
    report keeps each difference's relative size and the TOL it met."""
    tool = load_tool()
    a = np.linspace(1.0, 2.0, 7)
    near, far = a.copy(), a.copy()
    near[3] += 1e-12
    far[3] += 1e-6
    sides = {"parent": {"x": a, "grad.w": a}, "change": {"x": near, "grad.w": far}}
    monkeypatch.setattr(tool, "run_case", lambda side, tree, case, tmp: sides[side])
    monkeypatch.setattr(tool, "extract", lambda rev, dest: "f" * 40)
    out = tmp_path / "ident.json"
    run = ["--parent", "HEAD", "--case", "train_tiny", "--out", str(out)]

    assert tool.main(run + ["--expect", "train_tiny=1e-9"]) == 1
    report = json.loads(out.read_text())
    assert report["ok"] is False and report["expect"] == {"train_tiny": 1e-9}
    rows = report["cases"]["train_tiny"]
    assert rows["x"]["within_tol"] and rows["x"]["tol"] == 1e-9
    assert rows["x"]["max_rel_diff"] == rows["x"]["max_abs_diff"] / 2.0
    assert not rows["grad.w"]["within_tol"]
    assert "not allowed: grad.w" in capsys.readouterr().out

    # an array's own TOL overrides its case's
    assert tool.main(run + ["--expect", "train_tiny=1e-9",
                            "--expect", "train_tiny.grad.w=1e-6"]) == 0
    assert json.loads(out.read_text())["ok"] is True

    # a difference that no TOL declares fails, and is named
    assert tool.main(run + ["--expect", "train_tiny.x=1e-9"]) == 1
    assert "not allowed: grad.w" in capsys.readouterr().out
    assert "tol" not in json.loads(out.read_text())["cases"]["train_tiny"]["grad.w"]


def test_identity_pairs_rejects_an_expectation_of_no_case():
    tool = load_tool()
    with pytest.raises(SystemExit):
        tool.main(["--parent", "HEAD", "--expect", "no_such_case=1e-9"])


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

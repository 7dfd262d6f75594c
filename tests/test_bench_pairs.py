import importlib.util
import json
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


def test_bench_pairs_without_a_claim_summarises_every_metric(tmp_path, monkeypatch):
    """Without --claim the tool still runs every pair and reports each
    metric's runs, quartiles and pairs won; claim.metric is null."""
    tool = load_tool()
    bench = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())
    names = [f"{w['name']}.{m['name']}" for w in bench["workloads"]
             for m in bench["end_to_end"]]
    trees = []
    monkeypatch.setattr(tool, "extract", lambda rev, dest: "f" * 40)

    def fake_run(tree, seed):
        trees.append(tree)
        # the change side reads one lower on every metric
        return {name: seed - (tree == str(tool.ROOT)) for name in names}

    monkeypatch.setattr(tool, "run_benchmark", fake_run)
    out = tmp_path / "bench.json"
    assert tool.main(["--parent", "HEAD", "--seed", "1", "--out", str(out)]) == 0
    claim = json.loads(out.read_text())["claim"]
    assert claim["metric"] is None
    assert claim["seeds"] == list(range(1, 11))
    assert len(trees) == 20 and trees.count(str(tool.ROOT)) == 10
    for name in names:
        entry = claim[name]
        assert entry["parent"]["runs"] == list(range(1, 11))
        assert entry["change"]["runs"] == list(range(0, 10))
        assert entry["parent"]["q1"] == 3.25 and entry["parent"]["q3"] == 7.75
        assert entry["change"]["median"] == 4.5
        lower = name.split(".", 1)[1] in {m["name"] for m in bench["end_to_end"]
                                          if m["better"] == "lower"}
        assert entry["change_better_in"] == (10 if lower else 0)
        assert entry["pairs"] == 10

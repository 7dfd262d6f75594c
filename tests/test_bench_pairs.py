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


def fake_pairs(tool, monkeypatch, change, failed=lambda side, seed: 0):
    """Replace the revision extraction and the perfbench runs: the parent
    reads `seed` on every metric, the change `change(name, seed)`; each run
    attempts 20 operations, of which `failed(side, seed)` fail. Returns the
    list of trees run."""
    trees = []
    monkeypatch.setattr(tool, "extract", lambda rev, dest: "f" * 40)

    def fake_run(tree, seed):
        trees.append(tree)
        side = "change" if tree == str(tool.ROOT) else "parent"
        values = {name: change(name, seed) if side == "change" else seed
                  for name in metric_names()}
        return values, {"attempted": 20, "failed": failed(side, seed)}

    monkeypatch.setattr(tool, "run_benchmark", fake_run)
    return trees


def metric_names():
    bench = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())
    return [f"{w['name']}.{m['name']}" for w in bench["workloads"]
            for m in bench["end_to_end"]]


def test_bench_pairs_without_a_claim_summarises_every_metric(tmp_path, monkeypatch):
    """Without --claim the tool still runs every pair and reports each
    metric's runs, quartiles and pairs won; claim.metric and claim.met are
    null, and every metric says whether its change median is within the
    metric's bound."""
    tool = load_tool()
    bench = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())
    names = metric_names()
    # workload 0 reads one lower, workload 1 one higher (+18% at the median,
    # within the 0.25 bound) and workload 2 two higher (+36%, outside it)
    shift = {w["name"]: d for w, d in zip(bench["workloads"], (-1, 1, 2))}
    trees = fake_pairs(tool, monkeypatch,
                       lambda name, seed: seed + shift[name.split(".")[0]])
    out = tmp_path / "bench.json"
    assert tool.main(["--parent", "HEAD", "--seed", "1", "--out", str(out)]) == 0
    claim = json.loads(out.read_text())["claim"]
    assert claim["metric"] is None and claim["met"] is None
    assert claim["seeds"] == list(range(1, 11))
    assert len(trees) == 20 and trees.count(str(tool.ROOT)) == 10
    assert {m["bound"] for m in bench["end_to_end"]} == {0.25}
    for name in names:
        entry, d = claim[name], shift[name.split(".")[0]]
        assert entry["parent"]["runs"] == list(range(1, 11))
        assert entry["change"]["runs"] == list(range(1 + d, 11 + d))
        assert entry["parent"]["q1"] == 3.25 and entry["parent"]["q3"] == 7.75
        assert entry["change"]["median"] == 5.5 + d
        lower = name.split(".", 1)[1] in {m["name"] for m in bench["end_to_end"]
                                          if m["better"] == "lower"}
        assert entry["change_better_in"] == (10 if lower == (d < 0) else 0)
        assert entry["pairs"] == 10
        assert entry["within_bound"] is (d < 2 if lower else d > -2)


@pytest.mark.parametrize("change, met", [
    (lambda seed: seed - 5, True),   # better in 10 pairs, by more than the IQR
    (lambda seed: seed - 4, False),  # better in 10 pairs, by less than the IQR 4.5
    (lambda seed: seed + 1 if seed < 2 else seed - 20, True),   # 9 of 10
    (lambda seed: seed + 1 if seed < 3 else seed - 20, False),  # 8 of 10
], ids=["clear-win", "inside-iqr", "nine-pairs", "eight-pairs"])
def test_bench_pairs_claim_is_met_by_nine_pairs_and_a_gap_beyond_the_iqr(
        tmp_path, monkeypatch, change, met):
    """claim.met needs both the change better in 9 of 10 pairs and a median
    gap larger than the parent's interquartile range; the claimed metric
    gets no within_bound, every other metric does."""
    tool = load_tool()
    claimed = "enhance_long.peak_rss_mb"
    fake_pairs(tool, monkeypatch,
               lambda name, seed: change(seed) if name == claimed else seed)
    out = tmp_path / "bench.json"
    assert tool.main(["--parent", "HEAD", "--seed", "1", "--claim", claimed,
                      "--out", str(out)]) == 0
    claim = json.loads(out.read_text())["claim"]
    assert claim["metric"] == claimed and claim["met"] is met
    assert "within_bound" not in claim[claimed]
    assert all(claim[name]["within_bound"] for name in metric_names()
               if name != claimed)


def test_bench_pairs_records_each_sides_operations_and_failed_share(
        tmp_path, monkeypatch, capsys):
    """Every run's attempted and failed operation counts are kept per side,
    with the side's failed share over all its runs, and the share is
    printed: a rise in it rejects a change as a worse metric does."""
    tool = load_tool()
    fake_pairs(tool, monkeypatch, lambda name, seed: seed,
               failed=lambda side, seed: seed % 2 if side == "change" else 0)
    out = tmp_path / "bench.json"
    assert tool.main(["--parent", "HEAD", "--seed", "1", "--out", str(out)]) == 0
    ops = json.loads(out.read_text())["operations"]
    assert ops["parent"] == {"attempted": [20] * 10, "failed": [0] * 10,
                             "failed_share": 0.0}
    assert ops["change"] == {"attempted": [20] * 10, "failed": [1, 0] * 5,
                             "failed_share": 5 / 200}
    printed = capsys.readouterr().out
    assert "parent operations: 0 of 200 failed (0.0%)" in printed
    assert "change operations: 5 of 200 failed (2.5%)" in printed

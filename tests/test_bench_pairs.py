"""The BENCH file writer of scripts/bench_pairs.py, on canned run.py results."""

import compileall
import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).parent.parent
SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def canned(jobs_per_s, p90_ms, failed=0):
    """run.py's stdout: a table, then the JSON result on the last line."""
    result = {"correct": failed == 0, "attempted": 400, "failed": failed,
              "metrics": {"jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
                          "job_p90_ms": {"value": p90_ms, "unit": "ms"}}}
    return f"atlas-8 (seed 2, trace 0):\n  jobs_per_s {jobs_per_s}\n{json.dumps(result)}\n"


def test_bench_document_schema():
    better = {"jobs_per_s": "higher", "job_p90_ms": "lower"}
    runs = [((1000, 1.8), (1300, 1.3)), ((1100, 1.7), (1050, 1.4)),
            ((1050, 1.75), (1350, 1.9))]
    pairs = [{"first": "parent" if i % 2 == 0 else "change",
              "parent": bench_pairs.last_json(canned(*before)),
              "change": bench_pairs.last_json(canned(*after))}
             for i, (before, after) in enumerate(runs)]
    meta = {"pr": "0", "host": bench_pairs.host(), "python": "3.x",
            "bytecode_cached": {"parent": True, "change": True},
            "seconds": 1, "seed": 2,
            "commits": {"parent": "a" * 40, "change": "b" * 40,
                        "change_worktree_dirty": False}}
    doc = json.loads(json.dumps(bench_pairs.bench_document(
        meta, {"atlas-8": pairs}, better)))
    assert {"pr", "host", "python", "bytecode_cached", "seconds", "seed",
            "commits", "workloads"} <= doc.keys()
    assert set(doc["host"]) == {"platform", "machine", "cpu", "cpus"}
    wl = doc["workloads"]["atlas-8"]
    assert wl["first"] == ["parent", "change", "parent"]
    assert wl["jobs"] == {"parent": [[400, 0]] * 3, "change": [[400, 0]] * 3}
    assert set(wl["metrics"]) == set(better)
    for name, m in wl["metrics"].items():
        assert set(m) == {"unit", "better", "change_wins", "pairs",
                          "parent", "change"}
        assert m["better"] == better[name] and m["pairs"] == 3
        assert 0 <= m["change_wins"] <= 3
        for side in ("parent", "change"):
            s = m[side]
            assert set(s) == {"median", "q1", "q3", "runs"}
            assert len(s["runs"]) == 3
            assert s["q1"] <= s["median"] <= s["q3"]


def test_last_json_rejects_what_is_no_result():
    # a run that crashes after its table leaves no result on its last line
    assert bench_pairs.last_json("") is None
    assert bench_pairs.last_json(canned(1000, 1.8) + "Traceback (most recent call last):\n"
                                 "ValueError: boom\n") is None
    assert bench_pairs.last_json('{"correct": true}\n') is None
    assert bench_pairs.last_json("[1, 2]\n") is None
    assert bench_pairs.last_json(canned(1000, 1.8))["attempted"] == 400


def test_both_sides_run_on_fresh_extracts(tmp_path, monkeypatch):
    # a __pycache__ in the working checkout (a test run leaves one) must not
    # reach the change side: it runs, as the parent does, on an extract
    monkeypatch.chdir(ROOT)
    trees, commits = bench_pairs.extract_sides("HEAD", str(tmp_path))
    head = bench_pairs.git("rev-parse", "HEAD")
    assert commits["parent"] == commits["change"] == head
    assert isinstance(commits["change_worktree_dirty"], bool)
    for tree in trees.values():
        assert pathlib.Path(tree).parent == tmp_path
        assert (pathlib.Path(tree) / "src" / "cliffordkit" / "__init__.py").is_file()
        assert not bench_pairs.bytecode_read(tree)
    compileall.compile_dir(str(pathlib.Path(trees["change"]) / "src"), quiet=1)
    assert bench_pairs.bytecode_read(trees["change"])
    assert not bench_pairs.bytecode_read(trees["parent"])

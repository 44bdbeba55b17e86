"""Self-test of ``tools/ab.py``, the alternating-pairs comparison."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab)


def result(correct=True, failed=0, **values):
    metrics = {"setup_s": 1.0, "peb_knn_ms_p50": 0.2, "update_per_s": 100.0, "peb_knn_io": 5.0, "peb_pages": 40}
    metrics.update(values)
    return {"correct": correct, "failed": failed, "metrics": {n: {"value": v, "unit": "u"} for n, v in metrics.items()}}


def test_the_checkout_against_itself_keeps_every_io_value():
    argv = ["--base", ".", "--change", ".", "--workload", "network-churn", "--seed", "7", "--pairs", "1"]
    done = subprocess.run(
        [sys.executable, "tools/ab.py", *argv, "--seconds", "1"], cwd=ROOT, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "network-churn, seed 7, --seconds 1: base ., change ."
    assert [line.split()[0] for line in lines[2:-1]] == [m["name"] for m in ab.load_spec()["end_to_end"]]
    assert lines[-1] == (
        "1 pairs; every run correct with 0 failed operations: True; "
        "every I/O value and peb_pages one value on both sides: True"
    )


def test_a_revision_is_exported_into_its_own_tree():
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    with ab.ExitStack() as stack:
        tree = ab.side_tree("HEAD", stack)
        assert tree != ROOT and (tree / "perfbench" / "run.py").is_file()
    assert not tree.exists()


def test_compare_counts_wins_by_each_metric_direction():
    spec = ab.load_spec()
    base = [result(setup_s=s, update_per_s=u) for s, u in ((1.0, 100.0), (1.2, 90.0), (1.1, 95.0))]
    change = [result(setup_s=s, update_per_s=u) for s, u in ((0.8, 110.0), (0.9, 80.0), (1.0, 99.0))]
    lines, correct, moved = ab.compare(base, change, spec)
    rows = {line.split()[0]: line for line in lines[1:-1]}
    # lower is better for set-up, higher for update throughput; a gain needs
    # nine tenths of the pairs and a margin beyond the base's quartiles
    assert rows["setup_s"].split()[-3:-1] == ["3", "gain"]
    assert rows["update_per_s"].split()[-2] == "2"
    assert rows["peb_knn_io"].split()[-2] == "0"  # ties win nothing
    assert correct and moved == []


def test_compare_flags_moved_io_and_failed_runs():
    spec = ab.load_spec()
    lines, correct, moved = ab.compare([result(), result()], [result(), result(peb_knn_io=5.5)], spec)
    assert correct and moved == ["peb_knn_io"]
    assert "I/O MOVED" in next(line for line in lines if line.startswith("peb_knn_io"))
    _, correct, moved = ab.compare([result()], [result(correct=False, failed=3)], spec)
    assert not correct and moved == []


@pytest.mark.parametrize(
    "may_move, status",
    [([], 1), (["update_io"], 0), (["update_io", "peb_pages"], 0), (["peb_pages"], 1), (["peb_knn_io"], 1)],
)
def test_only_the_named_io_metrics_may_move(monkeypatch, capsys, may_move, status):
    # the change moves update_io alone; each run of a side returns that side's result
    monkeypatch.setattr(ab, "side_tree", lambda spec, stack: Path(spec))
    monkeypatch.setattr(ab, "run_once", lambda tree, *_: result(update_io=3.0 if tree.name == "base" else 2.8))
    argv = ["--base", "base", "--change", "change", "--workload", "paper-default", "--seed", "7", "--pairs", "2"]
    assert ab.main(argv + (["--io-may-move", *may_move] if may_move else [])) == status
    out = capsys.readouterr().out
    assert "I/O MOVED" in next(line for line in out.splitlines() if line.startswith("update_io"))
    assert ("I/O moved outside --io-may-move: update_io" in out) == bool(status)


def test_io_may_move_refuses_a_name_that_is_not_an_io_metric(capsys):
    argv = ["--base", ".", "--change", ".", "--workload", "paper-default", "--seed", "7", "--pairs", "1"]
    with pytest.raises(SystemExit):
        ab.main(argv + ["--io-may-move", "update_per_s"])
    assert "--io-may-move update_per_s: not one of the I/O metrics" in capsys.readouterr().err

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def corpus():
    """scripts/corpus.py as a module."""
    spec = importlib.util.spec_from_file_location("corpus", ROOT / "scripts" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_corpus_solved_by_the_same_code_shows_no_difference(corpus, tmp_path):
    """The problems of 0.3 s runs, recorded once and solved by this checkout
    on both sides: each run's nine agent-solves are relaxed, none flips or
    differs, every cost ratio is 1, both sides count the same iterations
    and rollouts, and each run prints one line per tier and one for the
    problems without a terminal attempt."""
    path = tmp_path / "corpus.bin"
    corpus.record(ROOT, path, total_time=0.3)
    blocks = corpus.compare(path, {"a": ROOT, "b": ROOT}, 1, tmp_path)
    assert list(blocks) == [name for name, _, _ in corpus.RUNS]
    for run, block in blocks.items():
        relaxed = block["relaxed"]
        assert list(block) == ["relaxed", "no_terminal_attempt"]
        assert relaxed["problems"] == 9
        assert (relaxed["feasibility_flips"], relaxed["tier_changes"],
                relaxed["outcomes_differ"]) == (0, 0, 0)
        assert relaxed["cost_ratio_quantiles"] == [1.0] * len(corpus.QUANTILES)
        assert relaxed["iterations"][0] == relaxed["iterations"][1] > 0
        assert relaxed["rollouts"][0] == relaxed["rollouts"][1] > 0
        assert block["no_terminal_attempt"] == {"problems": 9, "outcomes_differ": 0}
        lines = corpus.summary_lines(run, block)
        assert [line.split(":")[0] for line in lines] == [
            f"{run} relaxed", f"{run} without a terminal attempt"]
    json.dumps(blocks)


def _row(tier, cost, digest="d", terminal_attempts=1, witness=True):
    return {"tier": tier, "cost": cost, "digest": digest, "iterations": 2, "rollouts": 3,
            "terminal_attempts": terminal_attempts, "witness_attempt_feasible": witness}


def test_summary_counts_flips_tier_changes_and_lost_witness_attempts(corpus):
    """Four problems that side a accepts in the terminal tier, each with a
    feasible witness of cost 2: side b accepts the first alike at half the
    cost, falls to the relaxed tier on the second, fails the third and
    returns a plan costlier than J~ on the fourth. One relaxed problem runs
    no terminal attempt and differs."""
    witnesses = [(2.0, True)] * 4 + [None]
    a = [_row("terminal", 1.0), _row("terminal", 1.0), _row("terminal", 1.0),
         _row("terminal", 1.5), _row("relaxed", 4.0, terminal_attempts=0, witness=None)]
    b = [_row("terminal", 0.5), _row("relaxed", 1.0, "e", witness=False),
         _row("failed", 9.0, "f", witness=False), _row("terminal", 3.0, "g"),
         _row("relaxed", 4.0, "h", terminal_attempts=0, witness=None)]
    block = corpus.summarize(witnesses, a, b, [1.0] * 5, [2.0] * 5)
    terminal = block["terminal"]
    assert (terminal["problems"], terminal["feasibility_flips"], terminal["tier_changes"],
            terminal["outcomes_differ"]) == (4, 1, 2, 3)
    assert terminal["cost_ratio_quantiles"][0] == 0.5 and terminal["cost_ratio_quantiles"][-1] == 2.0
    assert terminal["time_ratio_quantiles"] == [2.0] * len(corpus.QUANTILES)
    assert terminal["feasible_witnesses"] == 4
    assert terminal["cost_at_most_witness"] == [4, 1]
    assert terminal["witness_attempts_feasible"] == [4, 2]
    assert terminal["witness_attempts_lost"] == [1, 2]
    assert block["relaxed"]["outcomes_differ"] == 1
    assert block["no_terminal_attempt"] == {"problems": 1, "outcomes_differ": 1}

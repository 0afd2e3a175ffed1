"""The outcome of every synthesis item and closed-loop run of the
benchmark's problem sets at seeds 1-3, by kind, as ``output_digest.main``
counts them while it hashes the outputs.  A change of verdict (a controller
lost or gained, a failure of another kind, a run that no longer reaches the
target) shows here; the digest itself, which any change of output bits
moves, is printed, not pinned.  The comparison of saved outputs, which
tells by how much bits moved, reports nothing for outputs saved by the
same code."""

import json

import output_digest


def test_outcome_counts_at_seeds_1_to_3(capsys):
    assert output_digest.main() == {
        "synth2d": {"CoverIncomplete": 42, "NotReachable": 3, "controller": 153},
        "synth3d": {"CoverIncomplete": 6, "controller": 18},
        "verify": {"reached_target": 24, "timeout": 3}}
    assert capsys.readouterr().out.count("\n") == 4


def test_saved_outputs_compare_equal_to_themselves(capsys, tmp_path):
    path = tmp_path / "verify.json"
    counts = output_digest.main(("verify",), save=path)
    digest = capsys.readouterr().out
    assert len(json.loads(path.read_text())["verify"]) == sum(counts["verify"].values()) == 27
    assert output_digest.main(("verify",), against=path) == counts
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == digest.strip()
    assert lines[1:] == ["verify: 0 of 27 items move float bits",
                         "verify: largest relative difference of times: 0",
                         "verify: largest relative difference of states: 0"]


def test_comparison_names_what_moved():
    """A changed piece rank is listed as structure; a nudged law is read
    as its relative difference, with the item."""
    old = {"seed": 1, "name": "a", "kind": "controller", "order": [0, -1], "dim": 2,
           "notes": [], "table": [[1.0, 2.0]], "vertices": [[0.0]], "rows": [[1.0]],
           "pieces": [{"law": [[2.0, 4.0]], "exit_facet": 0, "rank": 0, "path_len": 0,
                       "sub_rank": 0, "index": 0, "slack": (0.5).hex(),
                       "exit_margin": (0.25).hex()}]}
    ranked = json.loads(json.dumps(old))
    ranked["pieces"][0]["rank"] = 1
    nudged = json.loads(json.dumps(old))
    nudged["pieces"][0]["law"] = [[2.0, 4.0 + 4e-12]]
    lines = output_digest.compare("synth2d", [ranked, nudged], [old, old])
    assert lines[0] == "synth2d: item 0 1:a differs in rank"
    assert lines[1] == "synth2d: 1 of 2 items move float bits"
    assert "synth2d: largest relative difference of law: 1e-12 (item 1 1:a)" in lines

"""The outcome of every synthesis item and closed-loop run of the
benchmark's problem sets at seeds 1-3, by kind, as ``output_digest.main``
counts them while it hashes the outputs.  A change of verdict (a controller
lost or gained, a failure of another kind, a run that no longer reaches the
target) shows here; the digest itself, which any change of output bits
moves, is printed, not pinned."""

import output_digest


def test_outcome_counts_at_seeds_1_to_3(capsys):
    assert output_digest.main() == {
        "synth2d": {"CoverIncomplete": 42, "NotReachable": 3, "controller": 153},
        "synth3d": {"CoverIncomplete": 6, "controller": 18},
        "verify": {"reached_target": 24, "timeout": 3}}
    assert capsys.readouterr().out.count("\n") == 4

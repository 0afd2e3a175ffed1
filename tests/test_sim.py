import functools
import itertools
import math
import weakref
from collections import Counter

import numpy as np
import pytest

from reachctl import geometry as geo
from reachctl import lp, sim, synth
from reachctl.errors import Degenerate
from reachctl.system import AffineSystem

from helpers import (affine_stepper, box_fixture, cube_fixture, facet_face, general_problem,
                     hull_distance, ill3_fixture, law_rows, max_exit_time, pinned_corner_fixture,
                     reference_rk4_step, rk4_exit_time, stepwise_integrate,
                     use_reference_stepper, wedge_fixture)


@pytest.fixture(scope="module")
def box():
    sys, p, f = box_fixture()
    return sys, p, f, synth.synth_polytope(sys, p, f)


class TestIntegrate:
    def test_inside_start_reaches_target(self, box):
        sys, p, f, ctrl = box
        tr = sim.integrate(sys, ctrl, [0.5, 0.5], f=f)
        assert tr.outcome.kind == sim.REACHED
        assert tr.outcome.time == tr.times[-1] > 0.0
        assert hull_distance(tr.states[-1], f.vertices) <= sim.TOL_SIM
        assert len(tr.controls) == len(tr.piece_ids) == len(tr.times)
        assert np.all(tr.piece_ids >= 0)

    def test_start_on_target(self, box):
        sys, p, f, ctrl = box
        tr = sim.integrate(sys, ctrl, [2.0, 0.5], f=f)
        assert tr.outcome == sim.Outcome(sim.REACHED, 0.0)
        assert np.array_equal(tr.times, [0.0])

    def test_no_target_leaves_through_right_edge(self, box):
        sys, p, f, ctrl = box
        tr = sim.integrate(sys, ctrl, [0.5, 0.5])
        right = int(np.argmax([h.normal[0] for h in p.halfspaces]))
        assert tr.outcome.kind == sim.LEFT
        assert tr.outcome.facet == right
        assert tr.states[-1][0] == pytest.approx(2.0, abs=sim.TOL_SIM)

    def test_uncovered_domain_is_a_gap(self):
        sys, p, f = box_fixture()
        full = synth.synth_polytope(sys, p, f)
        feeder = full.pieces[-1]
        x0 = feeder.region.centroid()
        assert full.lookup(x0).index == feeder.index
        partial = synth.PWAController.from_pieces([feeder], p)
        tr = sim.integrate(sys, partial, x0, f=f)
        assert tr.outcome.kind == sim.GAP
        assert tr.outcome.time > 0.0
        assert tr.piece_ids[-1] == -1
        assert np.all(tr.piece_ids[:-1] == 0)

    def test_a_second_controller_keeps_the_first_ones_indices(self):
        sys, p, f = box_fixture()
        ctrl = synth.synth_polytope(sys, p, f)
        partial = synth.PWAController.from_pieces([ctrl.pieces[1]], p)
        assert [pc.index for pc in ctrl.pieces] == [0, 1]
        assert [pc.index for pc in partial.pieces] == [0]
        assert ctrl.lookup(ctrl.pieces[1].region.centroid()).index == 1

    def test_steps_follow_each_pieces_closed_loop(self, box):
        sys, p, f, ctrl = box
        x0 = ctrl.pieces[-1].region.centroid()
        tr = sim.integrate(sys, ctrl, x0, f=f)
        assert tr.outcome.kind == sim.REACHED
        assert len(set(tr.piece_ids.tolist())) == len(ctrl.pieces) > 1
        for k in range(len(tr.times) - 1):
            piece = ctrl.pieces[tr.piece_ids[k]]
            E, M = affine_stepper(sys.A + sys.B @ piece.gain, tr.times[k + 1] - tr.times[k])
            exact = E @ tr.states[k] + M @ (sys.a + sys.B @ piece.offset)
            assert np.allclose(tr.states[k + 1], exact, rtol=0, atol=1e-9), k

    def test_tiny_horizon_times_out(self, box):
        sys, p, f, ctrl = box
        tr = sim.integrate(sys, ctrl, [0.5, 0.5], f=f, tmax=1e-3)
        assert tr.outcome.kind == sim.TIMEOUT
        assert tr.outcome.time == pytest.approx(1e-3)

    def test_verify_repeats_for_a_seed(self, box):
        sys, p, f, ctrl = box
        first = sim.verify(sys, ctrl, f, nsamples=3, seed=7).to_dict()
        assert first == sim.verify(sys, ctrl, f, nsamples=3, seed=7).to_dict()
        assert first["successes"] == 3

    def test_verify_counts_outcomes_and_dwell_steps(self, box):
        sys, p, f, ctrl = box
        report = sim.verify(sys, ctrl, f, nsamples=4, seed=3).to_dict()
        assert sum(report["outcome_counts"].values()) == report["nsamples"] == 4
        starts = sim.sample_states(ctrl.domain, 4, np.random.default_rng(3))
        steps = sum(len(sim.integrate(sys, ctrl, x0, f=f).times) - 1 for x0 in starts)
        assert sorted(report["dwell_steps"]) == [pc.index for pc in ctrl.pieces]
        assert sum(report["dwell_steps"].values()) == steps
        assert min(report["dwell_steps"].values()) > 0

    @pytest.mark.parametrize("kw", [{"dt": float("nan")}, {"dt": -0.01}, {"dt": 0.0},
                                    {"dt": float("inf")}, {"tmax": float("nan")},
                                    {"tmax": -1.0}, {"tmax": float("inf")}],
                             ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_bad_step_or_horizon_raises(self, box, kw):
        sys, p, f, ctrl = box
        with pytest.raises(ValueError):
            sim.integrate(sys, ctrl, [0.5, 0.5], f=f, **kw)

    def test_zero_horizon_times_out_at_the_start(self, box):
        sys, p, f, ctrl = box
        tr = sim.integrate(sys, ctrl, [0.5, 0.5], f=f, tmax=0.0)
        assert tr.outcome == sim.Outcome(sim.TIMEOUT, 0.0)
        assert np.array_equal(tr.times, [0.0])


@pytest.mark.parametrize("fixture", [box_fixture, wedge_fixture], ids=["box", "wedge"])
def test_verify_takes_one_default_step_for_all_runs(fixture, monkeypatch):
    """``verify`` computes ``default_dt`` once; its report is the one of
    runs that each compute their own default step."""
    sys, p, f = fixture()
    ctrl = synth.synth_polytope(sys, p, f)
    calls = []
    default_dt = sim.default_dt

    def counting(*args):
        calls.append(1)
        return default_dt(*args)

    monkeypatch.setattr(sim, "default_dt", counting)
    report = sim.verify(sys, ctrl, f, nsamples=20, seed=0).to_dict()
    assert len(calls) == 1
    integrate = sim.integrate
    monkeypatch.setattr(sim, "integrate",
                        lambda sys, ctrl, x0, dt, tmax, f: integrate(sys, ctrl, x0, None, tmax, f))
    assert sim.verify(sys, ctrl, f, nsamples=20, seed=0).to_dict() == report
    assert len(calls) == 2
    # the counts of the per-run default step, as before the step was shared
    expected = {box_fixture: ([], {0: 15347, 1: 1621}),
                wedge_fixture: ([1, 9], {0: 190163, 1: 3380, 2: 369})}[fixture]
    assert (report["failure_indices"], report["dwell_steps"]) == expected


@pytest.mark.parametrize("polytope", [
    geo.Polytope.empty(2),
    geo.convex_hull([(0, 0), (1, 1), (2, 2)]),
], ids=["empty", "segment"])
def test_sampling_needs_a_full_dimensional_polytope(polytope):
    with pytest.raises(Degenerate):
        sim.sample_states(polytope, 3, np.random.default_rng(0))


def test_no_samples_are_rows_of_the_polytope_s_space():
    p = geo.Polytope.box([0.0] * 3, [1.0] * 3)
    assert sim.sample_states(p, 0, np.random.default_rng(0)).shape == (0, 3)
    assert sim.sample_states(p, 2, np.random.default_rng(0)).shape == (2, 3)


def test_sampling_a_thin_polytope_raises():
    """A full-dimensional triangle 3e-8 high fills 1.5e-8 of its bounding
    box: sampling gives up after its bounded number of batches, where it
    used to draw forever."""
    p = geo.convex_hull([(0, 0), (1, 1), (0.5, 0.5 + 3e-8)])
    assert p.dim == 2 and len(p.vertices) == 3
    assert p.volume() == pytest.approx(1.5e-8, rel=1e-6)
    with pytest.raises(Degenerate, match=f"found 0 of 1 states in {sim._SAMPLE_BATCHES} batches"):
        sim.sample_states(p, 1, np.random.default_rng(0))


def test_sampling_draws_as_the_unbounded_loop():
    """Below the bound, the samples are those of the loop that drew until
    it had enough."""
    sys, p, f = wedge_fixture()
    for nsamples, seed in ((1, 0), (20, 1), (100, 2)):
        rng, out = np.random.default_rng(seed), []
        while len(out) < nsamples:
            batch = rng.uniform(*p.bounding_box(), size=(max(64, 4 * nsamples), p.n))
            out.extend(batch[[p.contains(x, -geo.TOL_GEOM) for x in batch]][: nsamples - len(out)])
        assert np.array_equal(sim.sample_states(p, nsamples, np.random.default_rng(seed)), out)


def test_wedge_verify_samples_the_cut_domain():
    """The wedge's domain is the polytope less its cut-off failure sets;
    runs start there, so none starts outside every piece."""
    sys, p, f = wedge_fixture()
    ctrl = synth.synth_polytope(sys, p, f)
    assert ctrl.domain.volume() < p.volume()
    report = sim.verify(sys, ctrl, f, nsamples=20, seed=0)
    assert sim.GAP not in report.outcome_counts
    assert report.outcome_counts.get(sim.REACHED, 0) >= 18


# -- agreement with the reference stepper --------------------------------------

FIXTURES = {"box": box_fixture, "wedge": wedge_fixture,
            "pinned": pinned_corner_fixture, "cube": cube_fixture}


def _run(sys, ctrl, f, x0, dt):
    return sim.integrate(sys, ctrl, x0, dt=dt, tmax=600 * dt, f=f)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_integrate_matches_reference_stepper(name, monkeypatch):
    sys, p, f = FIXTURES[name]()
    ctrl = synth.synth_polytope(sys, p, f)
    dt = 5 * sim.default_dt(sys, ctrl)
    starts = sim.sample_states(ctrl.domain, 2, np.random.default_rng(0))
    fast = [_run(sys, ctrl, f, x0, dt) for x0 in starts]
    # the reference reads no exclusion rows, though the face keeps those
    # the fast runs built
    with monkeypatch.context() as m:
        use_reference_stepper(m)
        slow = [_run(sys, ctrl, f, x0, dt) for x0 in starts]
    for a, b in zip(fast, slow):
        for field in ("times", "states", "controls", "piece_ids"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert a.outcome == b.outcome
        assert a.max_violation == b.max_violation


# -- block stepping against one step at a time -------------------------------------

def _assert_same_run(a, b, tol=1e-12):
    """Same outcome, and times and piece ids bit for bit, of one dtype,
    and states, controls and ``max_violation`` within ``tol``; ``tol=0``
    asks for equality."""
    assert a.outcome == b.outcome
    assert a.times.dtype == b.times.dtype and np.array_equal(a.times, b.times)
    assert a.piece_ids.dtype == b.piece_ids.dtype and np.array_equal(a.piece_ids, b.piece_ids)
    assert a.states.shape == b.states.shape and a.controls.shape == b.controls.shape
    assert np.abs(a.states - b.states).max() <= tol
    assert np.abs(a.controls - b.controls).max(initial=0.0) <= tol
    assert abs(a.max_violation - b.max_violation) <= tol


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_blocks_match_stepwise_runs(name):
    sys, p, f = FIXTURES[name]()
    ctrl = synth.synth_polytope(sys, p, f)
    dt = sim.default_dt(sys, ctrl) * (4 if name == "wedge" else 1)
    for x0 in sim.sample_states(ctrl.domain, 3, np.random.default_rng(5)):
        _assert_same_run(sim.integrate(sys, ctrl, x0, dt, f=f),
                         stepwise_integrate(sys, ctrl, x0, dt, f=f))


# runs of the general population (``helpers.general_problem``) whose one
# step crosses the active piece's exit facet and the domain's boundary
# together, by (n, r) and sample of ``sim.verify(nsamples=20, seed=0)``,
# each with the outcome its run at a hundredth of the step has
BOUNDARY_STEPS = {
    (3, 28): {14: sim.REACHED}, (3, 34): {12: sim.REACHED},
    (3, 39): {3: sim.REACHED, 10: sim.TIMEOUT},
    (3, 63): {0: sim.REACHED, 1: sim.REACHED, 9: sim.TIMEOUT, 10: sim.TIMEOUT,
              13: sim.TIMEOUT},
    (4, 19): {9: sim.REACHED},
    (4, 28): {3: sim.TIMEOUT, 5: sim.REACHED, 7: sim.TIMEOUT, 11: sim.TIMEOUT,
              13: sim.REACHED, 16: sim.REACHED}}


@pytest.mark.parametrize("n, r", sorted(BOUNDARY_STEPS))
def test_a_step_that_leaves_the_piece_first_goes_on_in_the_next(n, r):
    """At the pieces' vertices on a domain facet that is no facet of
    theirs, the closed-loop field may point out of the domain; the piece
    drains through its exit facet first.  A step that crosses both is
    bisected on the piece's rows too, and the run goes on in the next
    piece: no run leaves the domain, and each pinned run ends as it does
    at a hundredth of the step."""
    sys, p, f = general_problem(n, r)
    ctrl = synth.synth_polytope(sys, p, f)
    report = sim.verify(sys, ctrl, f, nsamples=20, seed=0)
    assert sim.LEFT not in report.outcomes
    expected = BOUNDARY_STEPS[n, r]
    assert {i: report.outcomes[i] for i in expected} == expected


@pytest.mark.parametrize("n, r, sample", [(3, 28, 14), (4, 19, 9)])
def test_a_piece_left_inside_a_boundary_step_matches_stepwise(n, r, sample):
    """The hand-over inside a boundary step is the one-step reference's:
    the run's state where the piece changes is the piece's exit, off the
    step grid, inside the domain."""
    sys, p, f = general_problem(n, r)
    ctrl = synth.synth_polytope(sys, p, f)
    x0 = sim.sample_states(ctrl.domain, 20, np.random.default_rng(0))[sample]
    tr = sim.integrate(sys, ctrl, x0, f=f)
    # controls reach 1e2 to 1e3 here, so their rounding does too
    _assert_same_run(tr, stepwise_integrate(sys, ctrl, x0, f=f), tol=1e-10)
    dt = sim.default_dt(sys, ctrl)
    short = np.flatnonzero(np.diff(tr.times)[:-1] < 0.999 * dt)
    assert len(short) and tr.outcome.kind == sim.REACHED
    normals, offs = ctrl.domain.rows
    for j in short + 1:
        assert tr.piece_ids[j] != tr.piece_ids[j - 1]
        assert (normals @ tr.states[j] - offs).max() <= sim.TOL_SIM


def _steps(tr):
    return len(tr.times) - 1


def _stays(tr):
    """The (piece, steps) of each stretch of a run's steps on one piece."""
    ids = tr.piece_ids[:-1]
    starts = np.flatnonzero(np.diff(ids, prepend=-2))
    return [(int(ids[s]), int(e - s)) for s, e in zip(starts, np.append(starts[1:], len(ids)))]


def test_blocks_match_stepwise_events(box):
    sys, p, f, ctrl = box
    dt = sim.default_dt(sys, ctrl)
    block = sim._BLOCK

    def run(x0, c=ctrl, f=f, dt=dt, **kw):
        tr = sim.integrate(sys, c, x0, dt, f=f, **kw)
        _assert_same_run(tr, stepwise_integrate(sys, c, x0, dt, f=f, **kw))
        return tr

    switch = run(ctrl.pieces[-1].region.centroid())
    first = int(np.flatnonzero(np.diff(switch.piece_ids[:-1]))[0]) + 1
    assert 0 < first % block and len(set(switch.piece_ids.tolist())) > 1
    assert switch.outcome.kind == sim.REACHED and _steps(switch) % block
    assert _steps(switch) > 3 * block

    left = run([0.5, 0.5], f=None)
    assert left.outcome.kind == sim.LEFT and _steps(left) % block

    # blocks double on one piece (256, 512, 1024, ...), so a stretch of more
    # than 3 _BLOCK steps ends inside a grown block; a length that is no
    # multiple of _BLOCK is no multiple of any block length either
    grown = run([0.1, 0.1], dt=dt / 2)
    (below, to_switch), (above, to_hit) = _stays(grown)
    assert below != above and grown.outcome.kind == sim.REACHED
    assert to_switch > 3 * block and to_switch % block
    assert to_hit > 3 * block and to_hit % block
    to_exit = _stays(left)[-1][1]
    assert to_exit > 3 * block and to_exit % block

    partial = synth.PWAController.from_pieces([ctrl.pieces[-1]], p)
    gap = run(ctrl.pieces[-1].region.centroid(), c=partial)
    assert gap.outcome.kind == sim.GAP and gap.piece_ids[-1] == -1

    tmax = (block + 37.25) * dt
    timeout = run([0.1, 0.1], tmax=tmax)
    assert timeout.outcome.kind == sim.TIMEOUT
    assert _steps(timeout) == block + 38
    assert timeout.times[-1] - timeout.times[-2] < dt

    on_target = run([2.0, 0.5])
    assert on_target.outcome == sim.Outcome(sim.REACHED, 0.0)


@pytest.mark.parametrize("name", sorted(FIXTURES) + ["ill3"])
def test_derived_controls_are_each_states_law(name):
    """The controls a run derives on read are, row for row and bit for
    bit, each state's law under its piece id, zeros at -1, for every
    outcome: runs that reach the target, from inside and from on it, leave
    the domain, time out in a block, and find no piece.  A block's product
    rounds each row as a product of two rows does, and a stretch of one
    row (a domain exit's step, the last state) as that row alone; the
    digest of ``tests/output_digest.py`` holds them to the loop's product.
    No array of a run is built before its first read, each read after it
    gives the same array, the chunks it was built from are dropped, and
    controls read before the states give the same rows."""
    fixture = ill3_fixture if name == "ill3" else FIXTURES[name]
    sys, p, f = fixture()
    ctrl = synth.synth_polytope(sys, p, f)
    dt = sim.default_dt(sys, ctrl)
    rng = np.random.default_rng(8)
    starts = sim.sample_states(ctrl.domain, 3, rng)
    cases = [(ctrl, (x0, dt, 3000 * dt, f)) for x0 in starts[:2]]
    cases.append((ctrl, (starts[2], dt)))
    cases.append((ctrl, (f.vertices.mean(axis=0), dt, None, f)))
    cases.append((ctrl, (starts[0], dt, 37.25 * dt, f)))
    # a piece alone, which leaves its region short of the target
    for pc in ctrl.pieces:
        if pc.path_len:
            alone = synth.PWAController.from_pieces([pc], ctrl.domain)
            cases.append((alone, (pc.region.centroid(), dt, None, f)))
    runs = [(c, sim.integrate(sys, c, *args)) for c, args in cases]
    kinds = Counter(tr.outcome.kind for _, tr in runs)
    assert kinds[sim.REACHED] >= 2 and kinds[sim.LEFT] and kinds[sim.TIMEOUT] and kinds[sim.GAP]
    assert runs[3][1].outcome == sim.Outcome(sim.REACHED, 0.0)
    for (c, tr), (_, args) in zip(runs, cases):
        assert not {"times", "states", "piece_ids", "controls"} & set(vars(tr))
        alone, in_block = law_rows(c, tr.states, tr.piece_ids, sys.m)
        assert tr.states is tr.states and tr.piece_ids is tr.piece_ids and tr.times is tr.times
        assert tr.state_chunks is None and tr.time_chunks is None
        twin = sim.integrate(sys, c, *args)
        assert np.array_equal(twin.controls, tr.controls) and "states" in vars(twin)
        assert tr.controls.shape == alone.shape
        assert np.all((tr.controls == alone).all(axis=1) | (tr.controls == in_block).all(axis=1))
        assert np.array_equal(tr.controls[-1], alone[-1])


def test_runs_whose_controls_go_unread_compute_none(box, monkeypatch):
    """``verify`` derives none of a run's arrays, and a caller that reads
    a run's outcome and length, as the benchmark does, derives its times
    alone: each array is derived only when read, the controls from the
    law stack the run keeps and from its states, not its piece ids, and
    no run builds a piece view."""
    sys, p, f, ctrl = box
    report = sim.verify(sys, ctrl, f, nsamples=4, seed=2).to_dict()
    derived, views = [], []
    for name in ("times", "states", "piece_ids", "controls"):
        prop = vars(sim.Trajectory)[name]
        monkeypatch.setattr(prop, "func", lambda tr, derive=prop.func, name=name:
                            derived.append((name, id(tr))) or derive(tr))
    init = synth.AffinePiece.__init__
    monkeypatch.setattr(synth.AffinePiece, "__init__",
                        lambda pc, *args: views.append(args) or init(pc, *args))
    assert sim.verify(sys, ctrl, f, nsamples=4, seed=2).to_dict() == report
    assert derived == []
    dt = sim.default_dt(sys, ctrl)
    runs = [sim.integrate(sys, ctrl, x0, f=f, domain=ctrl.domain, **kw)
            for x0, kw in (([0.5, 0.5], {}), ([0.1, 0.1], {"tmax": 300 * dt}))]
    runs.append(sim.integrate(sys, ctrl, [0.5, 0.5]))
    assert [(tr.outcome.kind, len(tr.times) > 1) for tr in runs] == [
        (sim.REACHED, True), (sim.TIMEOUT, True), (sim.LEFT, True)]
    assert derived == [("times", id(tr)) for tr in runs]
    assert not any(name in vars(tr) for tr in runs for name in ("states", "piece_ids", "controls"))
    assert all(tr.laws is ctrl.laws for tr in runs)
    derived.clear()
    assert all(len(tr.controls) == len(tr.times) for tr in runs)
    assert derived == [(name, id(tr)) for tr in runs for name in ("controls", "states")]
    assert all("controls" in vars(tr) and "piece_ids" not in vars(tr) for tr in runs)
    assert views == []


@pytest.mark.parametrize("steps", [sim._BLOCK + 100, sim._BLOCK, 3 * sim._BLOCK])
def test_horizon_on_a_grid_time_or_inside_a_block(box, steps):
    """A horizon is tested once per block, on its last full step: a
    horizon half a step past a grid time, inside a block, and one exactly
    on a grid time, inside a block or at a block's end, stop the run at
    the step count and last time of the one-step reference.  A step of a
    power of two sums exactly, so there the horizon's last step is dt to
    the bit."""
    sys, p, f, ctrl = box
    half = sim.default_dt(sys, ctrl) / 2
    for dt in (half, 2.0 ** math.floor(math.log2(half))):
        grid = np.add.accumulate(np.concatenate([[0.0], np.full(steps, dt)]))
        for tmax in (grid[steps], grid[steps] - 0.5 * dt):
            tr = sim.integrate(sys, ctrl, [0.1, 0.1], dt, tmax, f=f)
            assert tr.outcome == sim.Outcome(sim.TIMEOUT, tmax)
            assert len(tr.times) - 1 == steps and tr.times[-1] == tmax
            _assert_same_run(tr, stepwise_integrate(sys, ctrl, [0.1, 0.1], dt, tmax, f=f))


def test_long_run_locates_in_blocks(box, monkeypatch):
    """A run resolves its pieces once per block, not once per step: one
    departure test per block, on blocks that double up to _BLOCK_CAP, and
    ``locate`` only on the single state that starts a stretch."""
    sys, p, f, ctrl = box
    tests, located = [], []
    departure, locate = synth.PWAController.departure, synth.PWAController.locate

    def counting_departure(self, X, active, tol=geo.TOL_MERGE):
        tests.append(len(X))
        return departure(self, X, active, tol)

    def counting_locate(self, X, tol=geo.TOL_MERGE):
        located.append(len(X))
        return locate(self, X, tol)

    monkeypatch.setattr(synth.PWAController, "departure", counting_departure)
    monkeypatch.setattr(synth.PWAController, "locate", counting_locate)
    x0 = sim.sample_states(p, 1, np.random.default_rng(0))[0]
    tr = sim.integrate(sys, ctrl, x0, dt=sim.default_dt(sys, ctrl) / 20, f=f)
    assert tr.outcome.kind == sim.REACHED
    assert _steps(tr) > 10_000
    assert len(tests) <= _steps(tr) / 1024 + 8
    assert max(tests) == sim._BLOCK_CAP
    assert located == [1] * len(_stays(tr))

    # blocks double on one piece and start again at _BLOCK after a switch
    tests.clear()
    located.clear()
    tr = sim.integrate(sys, ctrl, [0.1, 0.1], dt=sim.default_dt(sys, ctrl) / 2, f=f)
    (_, to_switch), _ = _stays(tr)
    block = sim._BLOCK
    assert 3 * block < to_switch <= 7 * block
    # the third block holds the switch (its states are tested up to the
    # first that the frozen law would take out of the domain)
    assert tests[:2] == [block, 2 * block] and tests[3:5] == [block, 2 * block]
    assert to_switch - 3 * block < tests[2] <= 4 * block
    assert located == [1, 1]


def test_runs_derive_the_facet_rows_once(monkeypatch):
    """A fresh controller holds no order, no facet rows and no runners;
    its first run derives the order and the rows, by one
    ``simplex_tables`` call, and its runner, and later runs, under the
    same system or another, derive neither again."""
    sys, p, f = box_fixture()
    ctrl = synth.synth_polytope(sys, p, f)
    calls = []
    tables = synth.simplex_tables
    monkeypatch.setattr(synth, "simplex_tables", lambda V: calls.append(len(V)) or tables(V))
    assert ctrl._derived is None and ctrl._runners is None
    starts = sim.sample_states(p, 3, np.random.default_rng(4))
    for x0 in starts:
        sim.integrate(sys, ctrl, x0, f=f)
    assert calls == [len(ctrl.pieces)] and len(ctrl.runners) == 1
    sim.integrate(AffineSystem(sys.A, sys.a, sys.B), ctrl, starts[0], f=f)
    assert calls == [len(ctrl.pieces)] and len(ctrl.runners) == 2


def _near_facets(rng, ctrl, count):
    """States within 2 TOL_SIM (inf-norm) of random points on the facets
    of the controller's regions, which neighbouring pieces share."""
    V = np.stack([pc.region.vertices for pc in ctrl.pieces])
    pieces, k, _ = V.shape
    w = rng.dirichlet(np.ones(k), size=count)
    w[np.arange(count), rng.integers(k, size=count)] = 0.0
    w /= w.sum(axis=1, keepdims=True)
    on = np.einsum("sk,skn->sn", w, V[rng.integers(pieces, size=count)])
    return on + rng.uniform(-2.0, 2.0, size=on.shape) * sim.TOL_SIM


@pytest.mark.parametrize("name", sorted(FIXTURES) + ["ill3"])
def test_departure_is_the_first_state_located_elsewhere(name):
    """``PWAController.departure`` gives the first state of a block that
    ``locate`` puts on a piece other than the active one, or the block's
    length, for every active piece.  The blocks start with states inside
    the active region and go on with states near shared facets and
    anywhere in the domain.  ill3's cover has overlapping pieces of two
    ranks, so a preferred piece also takes states the active one holds."""
    fixture = ill3_fixture if name == "ill3" else FIXTURES[name]
    ctrl = synth.synth_polytope(*fixture())
    rng = np.random.default_rng(11)
    pool = np.vstack([_near_facets(rng, ctrl, 400),
                      sim.sample_states(ctrl.domain, 100, rng)])
    position = ctrl._order.tolist().index
    kinds = Counter()
    for active in range(len(ctrl.pieces)):
        V = ctrl.pieces[active].region.vertices
        for _ in range(60):
            head = rng.dirichlet(np.ones(len(V)), size=rng.integers(0, 30)) @ V
            X = np.vstack([head, pool[rng.integers(len(pool), size=rng.integers(0, 30))]])
            after = ctrl.locate(X, sim.TOL_SIM)
            moved = np.flatnonzero(after != active)
            if not len(moved):
                kinds["stays"] += 1
                assert ctrl.departure(X, active, sim.TOL_SIM) == len(X)
                continue
            kinds["preferred" if position(after[moved[0]]) < position(active) else "left"] += 1
            assert ctrl.departure(X, active, sim.TOL_SIM) == moved[0]
    assert kinds["stays"] and kinds["left"]
    assert kinds["preferred"] or name != "ill3"


def test_rk4_steps_only_at_exits_and_short_last_steps(box, monkeypatch):
    """Blocks take every full step; ``_rk4_step`` gives only the state of
    a domain exit and a last step shorter than dt."""
    sys, p, f, ctrl = box
    dt = sim.default_dt(sys, ctrl)
    calls = []
    rk4 = sim._rk4_step

    def counting(*args):
        calls.append(1)
        return rk4(*args)

    monkeypatch.setattr(sim, "_rk4_step", counting)
    assert sim.integrate(sys, ctrl, [0.5, 0.5], dt).outcome.kind == sim.LEFT
    assert len(calls) == 1
    tr = sim.integrate(sys, ctrl, [0.1, 0.1], dt, tmax=(1000 + 0.5) * dt, f=f)
    assert tr.outcome.kind == sim.TIMEOUT and len(calls) == 2


# -- verify folds each run as it ends ----------------------------------------------

def reference_verify(sys, ctrl, f, nsamples, seed, tmax=None):
    """``sim.verify`` as a loop that keeps every run and reads the report
    off the list at the end, its dwell steps off each run's piece ids: a
    run's last id labels its final state, not a step."""
    starts = sim.sample_states(ctrl.domain, nsamples, np.random.default_rng(seed))
    dt = sim.default_dt(sys, ctrl)
    trajs = [sim.integrate(sys, ctrl, x0, dt, tmax, f) for x0 in starts]
    counts = sum(np.bincount(tr.piece_ids[:-1], minlength=len(ctrl.pieces)) for tr in trajs)
    return sim.VerifyReport(nsamples, sum(tr.success for tr in trajs),
                            [tr.outcome.kind for tr in trajs],
                            [tr.outcome.time for tr in trajs if tr.success],
                            max(tr.max_violation for tr in trajs),
                            [i for i, tr in enumerate(trajs) if not tr.success], seed,
                            {index: int(count) for index, count in enumerate(counts)})


@pytest.mark.parametrize("name, seed, tmax", [("box", 2, None), ("box", 2, 0.05),
                                              ("wedge", 1, None), ("cube", 0, None)])
def test_verify_equals_the_loop_over_kept_runs(name, seed, tmax, monkeypatch):
    """``verify`` folds each run into its report as the run ends, and its
    report equals the one read off every run kept to the end: runs that
    reach the target, and the wedge's and a short horizon's timeouts.  No
    run outlives the next one's start: the run before last is freed."""
    sys, p, f = FIXTURES[name]()
    ctrl = synth.synth_polytope(sys, p, f)
    ref = reference_verify(sys, ctrl, f, 8, seed, tmax)
    runs = []
    integrate = sim.integrate

    def tracked(*args):
        # the loop still holds the last run while the next one is taken
        assert len(runs) < 2 or runs[-2]() is None
        tr = integrate(*args)
        runs.append(weakref.ref(tr))
        return tr

    monkeypatch.setattr(sim, "integrate", tracked)
    report = sim.verify(sys, ctrl, f, nsamples=8, seed=seed, tmax=tmax)
    assert len(runs) == 8
    assert report == ref and report.to_dict() == ref.to_dict()
    assert all(type(count) is int for count in report.dwell_steps.values())
    if name in ("wedge", "cube"):
        assert sum(count > 0 for count in report.dwell_steps.values()) > 1
    if name == "wedge" or tmax is not None:
        assert sim.TIMEOUT in report.outcomes


# -- one runner per controller and system -----------------------------------------

@pytest.mark.parametrize("name", ["box", "cube"])
def test_reused_runner_gives_the_same_runs(name):
    """Runs on one controller, cold and then again after the others have
    grown its maps, equal runs on a fresh controller of the same pieces
    bit for bit."""
    sys, p, f = FIXTURES[name]()
    ctrl = synth.synth_polytope(sys, p, f)
    dt = sim.default_dt(sys, ctrl)
    starts = list(sim.sample_states(ctrl.domain, 3, np.random.default_rng(1)))
    starts.append(ctrl.pieces[-1].region.centroid())
    cold = [sim.integrate(sys, ctrl, x0, dt / 4, f=f) for x0 in starts]
    warm = [sim.integrate(sys, ctrl, x0, dt / 4, f=f) for x0 in starts]
    fresh = synth.PWAController.from_pieces(ctrl.pieces, ctrl.domain)
    alone = [sim.integrate(sys, fresh, x0, dt / 4, f=f) for x0 in starts[::-1]][::-1]
    assert any(len(set(tr.piece_ids.tolist())) > 1 for tr in cold)
    for a, b, c in zip(cold, warm, alone):
        assert a.outcome.kind == sim.REACHED
        _assert_same_run(a, b, tol=0.0)
        _assert_same_run(a, c, tol=0.0)


def test_runner_keys_tell_systems_steps_faces_and_domains_apart(box):
    """One controller run under two systems that differ only in ``a``,
    two steps, two targets and two domains, in an order where a cache
    that ignored any of them would reuse a wrong entry: each run equals
    the one-step reference for its own inputs."""
    sys, p, f, ctrl = box
    ctrl = synth.PWAController.from_pieces(ctrl.pieces, ctrl.domain)
    other = AffineSystem(sys.A, sys.a + [0.2, 0.0], sys.B)
    dt = sim.default_dt(sys, ctrl)
    near = geo.convex_hull([(0, 0), (1.5, 0), (1.5, 1), (0, 1)])
    near_edge = facet_face(near, [1, 0])
    x0 = [1.2, 0.5]
    cases = ((p, f), (near, f), (near, near_edge), (p, near_edge))
    kinds = [set() for _ in cases]
    for s in (sys, other):
        for step in (dt, 2.5 * dt):
            for case, (domain, face) in enumerate(cases):
                tr = sim.integrate(s, ctrl, x0, step, f=face, domain=domain)
                _assert_same_run(tr, stepwise_integrate(s, ctrl, x0, step, f=face,
                                                        domain=domain))
                kinds[case].add(tr.outcome.kind)
    # each domain's edge at x = 1.5 or 2 ends the runs in it, on the target
    # or out of the domain
    assert kinds[:3] == [{sim.REACHED}, {sim.LEFT}, {sim.REACHED}]
    assert sim._runner(sys, ctrl) is sim._runner(sys, ctrl)
    assert sim._runner(other, ctrl) is not sim._runner(sys, ctrl)
    assert sim.default_dt(other, ctrl) != dt


def test_stored_maps_stay_within_the_cap(box):
    """However many runs share a runner, it keeps at most _BLOCK_CAP maps
    per piece and step."""
    sys, p, f, ctrl = box
    ctrl = synth.PWAController.from_pieces(ctrl.pieces, ctrl.domain)
    dt = sim.default_dt(sys, ctrl)
    for step in (dt / 20, dt):
        for x0 in sim.sample_states(p, 4, np.random.default_rng(3)):
            sim.integrate(sys, ctrl, x0, step, f=f)
    maps = sim._runner(sys, ctrl).maps
    assert sorted(maps) == [dt / 20, dt]
    stored = [m for per_piece in maps.values() for m in per_piece if m is not None]
    assert all(D.shape == (2 * len(c), 2) for D, c in stored)
    assert max(len(c) for _, c in stored) == sim._BLOCK_CAP


def test_warm_verify_builds_nothing(box, monkeypatch):
    """A second ``verify`` on a controller builds no closed loop, step or
    step map of dt, which its runner holds, no exclusion rows, which the
    face holds, and no halfspace views of the domain: its facet rows are
    its storage, which the run reads.  The one map each run builds is
    that of its domain exit's step, whose length is its own."""
    sys, p, f, ctrl = box
    ctrl = synth.PWAController.from_pieces(ctrl.pieces, ctrl.domain)
    report = sim.verify(sys, ctrl, f, nsamples=8, seed=2).to_dict()
    calls = []

    def counting(name):
        build = getattr(sim, name)
        return lambda *args: calls.append(name) or build(*args)

    for name in ("_step_map", "_doubled", "_default_step"):
        monkeypatch.setattr(sim, name, counting(name))
    build = vars(geo.Polytope)["exclusion"].func
    kept = functools.cached_property(lambda face: calls.append("exclusion") or build(face))
    kept.__set_name__(geo.Polytope, "exclusion")
    monkeypatch.setattr(geo.Polytope, "exclusion", kept)
    views = vars(geo.Polytope)["halfspaces"].fget
    monkeypatch.setattr(geo.Polytope, "halfspaces",
                        property(lambda poly: calls.append("halfspaces") or views(poly)))
    monkeypatch.setattr(sim, "closed_loop", lambda *args: calls.append("loop"))
    assert sim.verify(sys, ctrl, f, nsamples=8, seed=2).to_dict() == report
    # every run reaches the target by leaving the domain across it
    assert calls == ["_step_map"] * 8
    # a face that has not kept its rows builds them once
    calls.clear()
    fresh = geo.Face(f.vertices, f.supporting, f.dim)
    sim.verify(sys, ctrl, fresh, nsamples=8, seed=2)
    assert calls == ["exclusion"] + ["_step_map"] * 8


def test_warm_target_test_builds_no_hull_rows(box, monkeypatch):
    """The states a face's exclusion rows leave open go to the face's
    ``contains``, which reads the rows the face keeps: a warm ``verify``
    builds no ``hull_rows``, where each of its 8 runs, which end on the
    target, used to build them once more."""
    sys, p, f, ctrl = box
    report = sim.verify(sys, ctrl, f, nsamples=8, seed=2)
    assert report.outcomes == [sim.REACHED] * 8
    calls = []
    build = geo.hull_rows
    monkeypatch.setattr(geo, "hull_rows", lambda V: calls.append(1) or build(V))
    assert sim.verify(sys, ctrl, f, nsamples=8, seed=2).to_dict() == report.to_dict()
    assert calls == []


# -- the step maps and the exit bisection ------------------------------------------

def test_grown_maps_keep_their_first_entries():
    """Maps doubled up to the cap equal the _BLOCK-step maps bit for bit
    on their first _BLOCK entries, and each is that many RK4 steps."""
    rng = np.random.default_rng(2)
    A, b, dt = rng.normal(size=(3, 3)), rng.normal(size=3), 1e-3
    D, c = sim._step_map(A, b, dt)
    while len(c) < sim._BLOCK:
        D, c = sim._doubled(D, c)
    D_cap, c_cap = D, c
    while len(c_cap) < sim._BLOCK_CAP:
        D_cap, c_cap = sim._doubled(D_cap, c_cap)
    assert len(c) == sim._BLOCK and len(c_cap) == sim._BLOCK_CAP
    assert D_cap.shape == (3 * sim._BLOCK_CAP, 3)
    assert np.array_equal(D_cap[:len(D)], D) and np.array_equal(c_cap[:len(c)], c)
    x = rng.normal(size=3)
    X = x + ((D_cap @ x).reshape(-1, 3) + c_cap)
    y = x
    for j in range(sim._BLOCK_CAP):
        y = reference_rk4_step(A, b, y, dt)
        if (j + 1) % 97 == 0 or j + 1 == sim._BLOCK_CAP:
            assert np.abs(X[j] - y).max() <= 1e-12 * max(1.0, np.abs(y).max())


def _exits(rng, normals, offs, A, b, starts, h0):
    """(x, h) for each start inside ``normals y <= offs`` from which an
    RK4 step of some length h = h0 2^k, k < 30, leaves that set."""
    out = []
    for x in starts:
        if (normals @ x - offs).max() > 0.0:
            continue
        h = h0 * rng.uniform(1.0, 2.0)
        for _ in range(30):
            if (normals @ sim._rk4_step(A, b, x, h) - offs).max() > 0.0:
                out.append((x, h))
                break
            h *= 2.0
    return out


def _assert_exit_times_agree(normals, offs, A, b, exits):
    for x, h in exits:
        fast = sim._exit_time(normals, offs, A, b, x, h)
        assert fast == max_exit_time(normals, offs, A, b, x, h)
        slow = rk4_exit_time(normals, offs, A, b, x, h)
        assert abs(fast - slow) <= sim._EVENT_TIME_TOL
        assert (normals @ sim._rk4_step(A, b, x, fast) - offs).max() > -1e-8


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_exit_times_match_rk4_bisection_on_fixtures(name):
    sys, p, f, = FIXTURES[name]()
    ctrl = synth.synth_polytope(sys, p, f)
    normals = np.array([h.normal for h in ctrl.domain.halfspaces])
    offs = np.array([h.offset for h in ctrl.domain.halfspaces])
    rng = np.random.default_rng(4)
    dt = sim.default_dt(sys, ctrl)
    checked = 0
    for piece in ctrl.pieces:
        V = piece.region.vertices
        starts = rng.dirichlet(np.full(len(V), 0.3), size=8) @ V
        exits = _exits(rng, normals, offs, *synth.closed_loop(sys, piece.law), starts, dt)
        _assert_exit_times_agree(normals, offs, *synth.closed_loop(sys, piece.law), exits)
        checked += len(exits)
    assert checked >= 4 * len(ctrl.pieces)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["stable", "unstable"])
def test_exit_times_match_rk4_bisection_on_random_loops(n, sign):
    rng = np.random.default_rng([n, int(sign > 0)])
    normals = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(3, n))])
    offs = np.concatenate([np.ones(2 * n), np.abs(rng.normal(size=3)) + 0.5])
    checked = 0
    for _ in range(20):
        M = rng.normal(size=(n, n))
        # the symmetric part, definite, sets the sign of the eigenvalues' real parts
        A = sign * (M @ M.T / n + 0.1 * np.eye(n)) + (M - M.T)
        b = 3.0 * rng.normal(size=n)
        starts = rng.uniform(-1.0, 1.0, size=(5, n))
        exits = _exits(rng, normals, offs, A, b, starts, 1e-3)
        _assert_exit_times_agree(normals, offs, A, b, exits)
        checked += len(exits)
    assert checked >= 40


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exit_halving_stops_at_the_first_crossing(n):
    """Each halving stops at the first facet whose quartic is positive:
    the exit time is the float the bisection on every facet's maximum
    gives, on random loops and facets, a third of them through the state
    (quartics exactly 0 at s = 0), and steps that may leave no facet."""
    rng = np.random.default_rng(70 + n)
    through = 0
    for _ in range(150):
        A, b = rng.normal(size=(n, n)), 3.0 * rng.normal(size=n)
        x = rng.uniform(-0.5, 0.5, size=n)
        normals = rng.normal(size=(rng.integers(n + 1, 2 * n + 4), n))
        offs = normals @ x
        on = rng.random(len(offs)) < 1 / 3
        offs[~on] += rng.uniform(1e-3, 1.0, size=int((~on).sum()))
        through += int(on.sum())
        assert not (normals @ x - offs)[on].any()
        h = 10 ** rng.uniform(-3, 0)
        assert sim._exit_time(normals, offs, A, b, x, h) == max_exit_time(normals, offs, A, b, x, h)
    assert through >= 100


def test_box_trajectory_solves_few_lps(box, monkeypatch):
    sys, p, f, ctrl = box
    calls = []
    solve = lp.solve

    def counting(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(lp, "solve", counting)
    x0 = sim.sample_states(p, 1, np.random.default_rng(0))[0]
    tr = sim.integrate(sys, ctrl, x0, f=f)
    assert tr.outcome.kind == sim.REACHED
    assert len(tr.times) > 500
    assert len(calls) <= 3


# -- soundness of the closed-form rejections ------------------------------------

def _face_and_points(rng, n, d):
    """Vertices spanning a random d-dimensional face in R^n, and test
    points: within a few TOL_SIM of its hull, far from it, and just
    within TOL_SIM of each vertex along every diagonal."""
    frame = np.linalg.qr(rng.normal(size=(n, n)))[0][:, :d]
    V = rng.normal(size=(rng.integers(d + 1, d + 4), d)) @ frame.T + rng.normal(size=n)
    on = rng.dirichlet(np.ones(len(V)), size=20) @ V
    near = on + rng.uniform(-4, 4, size=on.shape) * sim.TOL_SIM
    far = on[:5] + rng.normal(size=(5, n)) * rng.uniform(0.01, 1.0, size=(5, 1))
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    edge = (V[:, None, :] + 0.95 * sim.TOL_SIM * signs).reshape(-1, n)
    return V, np.vstack([near, far, edge])


def _affine_hull_distance(x, V):
    """Euclidean distance from ``x`` to the affine hull of ``V``, by least
    squares."""
    D = (V[1:] - V[0]).T
    lam = np.linalg.lstsq(D, x - V[0], rcond=None)[0]
    return float(np.linalg.norm(V[0] + D @ lam - x))


def _affine_hull_screen(V, X, tol):
    """The target screen ``sim`` used before the exclusion rule: the
    equations of the affine hull of V, both ways, each bounded by its
    maximum over V and compared at 2 tol |g|_1."""
    _, basis = geo.affine_basis(V)
    normal = np.eye(V.shape[1]) - basis @ basis.T
    G = np.vstack([normal, -normal])
    c = (V @ G.T).max(axis=0)
    return np.any(G @ X.T - c[:, None] > 2.0 * tol * np.abs(G).sum(axis=1)[:, None], axis=0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rejections_are_sound(n):
    rng = np.random.default_rng(n)
    tol = sim.TOL_SIM
    checked = 0
    for d in range(n):
        V, pts = _face_and_points(rng, n, d)
        off_target = geo.hull_rows(V).excludes(pts, tol)
        for x, off in zip(pts, off_target):
            dist = hull_distance(x, V)
            if abs(dist - tol) <= 1e-9:
                continue
            checked += 1
            assert geo.point_in_hull(x, V, tol) == (dist <= tol)
            if off:
                assert dist > tol
            if _affine_hull_distance(x, V) > 0.05:
                assert off
    assert checked > 25 * n


@pytest.mark.parametrize("n", [2, 3, 4])
def test_simplex_faces_exclude_states_in_their_plane(n):
    """On a face of affinely independent vertices the exclusion rows rule
    out states in the face's affine hull just beyond each of its facets,
    which the affine-hull screen kept.  Beyond a segment's end the box
    rows do it; a state inside the bounding box of a triangle or a
    tetrahedron is ruled out by the barycentric rows alone."""
    rng = np.random.default_rng(30 + n)
    tol = sim.TOL_SIM
    in_box = 0
    for d in range(1, n):
        for _ in range(4):
            frame = np.linalg.qr(rng.normal(size=(n, n)))[0][:, :d]
            V = rng.normal(size=(d + 1, d)) @ frame.T + rng.normal(size=n)
            # each facet's centroid, pushed away from the vertex it omits
            mids = (V.sum(axis=0) - V) / d
            X = mids + 1e-3 * (mids - V)
            assert not _affine_hull_screen(V, X, tol).any()
            assert geo.hull_rows(V).excludes(X, tol).all()
            assert all(hull_distance(x, V) > tol for x in X)
            inside = np.all((V.min(axis=0) < X) & (X < V.max(axis=0)), axis=1)
            assert d > 1 or not inside.any()
            in_box += int(inside.sum())
    assert in_box >= 4 * (n - 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_plane_first_target_test_gives_the_exclusion_verdicts(n):
    """``HullRows.excludes_plane_first`` reads a face's affine-hull rows
    (its first ``plane`` rows) on every state and the others only on the
    states they leave open, and gives exactly the verdicts of
    ``excludes``: for faces of every dimension below n, and states on,
    near and off their plane, inside and outside the face."""
    rng = np.random.default_rng(40 + n)
    tol = sim.TOL_SIM
    for d in range(n):
        for _ in range(3):
            V, pts = _face_and_points(rng, n, d)
            # in the plane, beyond the face: affine weights, some negative
            w = rng.dirichlet(np.ones(len(V)), size=20)
            z = rng.normal(size=w.shape)
            in_plane = (w + z - z.mean(axis=1, keepdims=True)) @ V
            X = np.vstack([pts, in_plane, in_plane + rng.uniform(-2, 2, in_plane.shape) * tol])
            rule = geo.hull_rows(V)
            assert rule.plane == 2 * (n - d)
            off_plane = (rule.rows[:rule.plane] @ X.T
                         > (rule.bounds + tol * rule.widths)[:rule.plane, None]).any(axis=0)
            want = rule.excludes(X, tol)
            assert np.array_equal(rule.excludes_plane_first(X, tol), want)
            assert off_plane.any() and (want & ~off_plane).any() and not want.all()
            assert not rule.excludes_plane_first(X[:0], tol).size

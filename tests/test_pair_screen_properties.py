"""Property tests for the segmented pair screen and the stacked year reduction.

Three fast paths answer to simple references kept
here, in the tests only:

* the fleet uncorrectable-pair screen builds every within-member pair of
  a block at once (:func:`repro.reliability.montecarlo.segments_with_pair`)
  and must flag exactly the members the per-member upper-triangle loop
  flags — on empty batches, members with 0 or 1 eligible events,
  all-BIT members, BIT events between eligible ones, the last member,
  and a zero-hour window;
* the Monte-Carlo block engine screens its three-or-more-fault channels
  with the same builder and must count what deciding every channel
  exactly counts;
* :func:`repro.fleet.engine.overhead_series_by_year` scores stacked
  weight sets in one pass and must equal, under ``np.array_equal``, both
  its own one-set calls and the full-width accumulation loop it
  replaced, empty weight sets and empty batches included.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults.types import FaultType
from repro.fleet.engine import overhead_series_by_year, sample_block
from repro.fleet.events import FAULT_TYPE_ORDER, FaultEventBatch, empty_batch
from repro.fleet.policies import (
    _DEVICE_LEVEL_CODE,
    resolve_policies,
    uncorrectable_candidate_channels,
)
from repro.reliability import montecarlo
from repro.reliability.montecarlo import footprint_pairs_intersect, segment_pairs
from repro.util.units import HOURS_PER_YEAR

BIT = FaultType.BIT

# -- references ---------------------------------------------------------------


def _reference_screen(batch: FaultEventBatch, window_hours: float) -> np.ndarray:
    """The per-member loop: one ``np.triu_indices`` per member."""
    out = np.zeros(batch.num_channels, dtype=bool)
    eligible = batch.type_code != FAULT_TYPE_ORDER.index(BIT)
    mc_code = _DEVICE_LEVEL_CODE[batch.type_code]
    for member in range(batch.num_channels):
        start, stop = int(batch.offsets[member]), int(batch.offsets[member + 1])
        idx = np.arange(start, stop)[eligible[start:stop]]
        left, right = np.triu_indices(len(idx), k=1)
        a, b = idx[left], idx[right]
        in_window = batch.time_hours[b] - batch.time_hours[a] <= window_hours
        same_channel = batch.channel[a] == batch.channel[b]
        intersects = footprint_pairs_intersect(
            mc_code,
            batch.rank,
            batch.device,
            batch.bank,
            batch.row,
            batch.column,
            a,
            b,
        )
        out[member] = bool(np.any(same_channel & intersects & in_window))
    return out


def _reference_overhead(batch, years, per_fault, cap, steps_per_year=12):
    """The one-set, full-width accumulation loop."""
    channels = batch.num_channels
    out = np.zeros((years, channels))
    weights = np.array([per_fault.get(ft, 0.0) for ft in FAULT_TYPE_ORDER])[
        batch.type_code
    ]
    order = np.argsort(batch.time_hours, kind="stable")
    sorted_times = batch.time_hours[order]
    sorted_ids = batch.channel_ids()[order]
    sorted_weights = weights[order]
    current = np.zeros(channels)
    accumulated = np.zeros(channels)
    cursor = 0
    step = 0
    for year in range(1, years + 1):
        for _ in range(steps_per_year):
            t_hours = (step + 0.5) / steps_per_year * HOURS_PER_YEAR
            arrived = np.searchsorted(sorted_times, t_hours, side="right")
            if arrived > cursor:
                np.add.at(
                    current,
                    sorted_ids[cursor:arrived],
                    sorted_weights[cursor:arrived],
                )
                cursor = arrived
            accumulated += np.minimum(current, cap)
            step += 1
        out[year - 1] = accumulated / step
    return out


# -- batches ------------------------------------------------------------------

#: (time_hours, type, channel, rank, device, bank, row, column); small
#: coordinate ranges so footprints collide often.
_event = st.tuples(
    st.sampled_from([0.0, 2.0, 4.0, 4.0, 90.0, 5000.0, 30000.0]),
    st.sampled_from(FAULT_TYPE_ORDER),
    st.integers(0, 1),
    st.integers(0, 1),
    st.integers(0, 2),
    st.integers(0, 1),
    st.integers(0, 2),
    st.integers(0, 2),
)
_members = st.lists(st.lists(_event, max_size=6), max_size=8)
_windows = st.sampled_from([0.0, 4.0, 100.0, 1e9])


def _batch(members) -> FaultEventBatch:
    """A batch from per-member event lists (time-sorted per member)."""
    events = [e for member in members for e in sorted(member, key=lambda e: e[0])]
    counts = [len(member) for member in members]

    def field(i, dtype=np.int64):
        return np.array([e[i] for e in events], dtype=dtype)

    return FaultEventBatch(
        offsets=np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
        time_hours=field(0, np.float64),
        type_code=np.array(
            [FAULT_TYPE_ORDER.index(e[1]) for e in events], dtype=np.int64
        ),
        channel=field(2),
        rank=field(3),
        device=field(4),
        bank=field(5),
        row=field(6),
        column=field(7),
    )


def _lane(t):
    return (t, FaultType.LANE, 0, 0, 0, 0, 0, 0)


def _device(t, device=1):
    return (t, FaultType.DEVICE, 0, 0, device, 0, 0, 0)


def _bit(t):
    return (t, BIT, 0, 0, 2, 0, 0, 0)


# -- the segmented pair screen ------------------------------------------------


class TestSegmentPairs:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=30))
    def test_matches_upper_triangle_per_segment(self, ids):
        segment = np.sort(np.array(ids, dtype=np.int64))
        left, right = segment_pairs(segment)
        expected = []
        for value in np.unique(segment):
            idx = np.flatnonzero(segment == value)
            a, b = np.triu_indices(len(idx), k=1)
            expected += list(zip(idx[a].tolist(), idx[b].tolist()))
        assert list(zip(left.tolist(), right.tolist())) == expected


class TestSegmentedScreen:
    @settings(max_examples=200, deadline=None)
    @given(_members, _windows)
    @example([], 0.0)  # no members at all
    @example([[], [], []], 4.0)  # members, but no events
    @example([[_device(1.0)], [_lane(2.0)]], 4.0)  # one eligible event each
    @example([[_bit(1.0), _bit(2.0), _bit(2.0)]], 1e9)  # all-BIT member
    @example([[_lane(1.0), _bit(2.0), _device(3.0)]], 4.0)  # BIT in between
    @example([[_bit(1.0)], [], [_lane(5.0), _device(5.0)]], 0.0)  # last member
    def test_matches_per_member_loop(self, members, window):
        batch = _batch(members)
        screen = uncorrectable_candidate_channels(batch, window)
        assert screen.tolist() == _reference_screen(batch, window).tolist()

    @settings(max_examples=100, deadline=None)
    @given(_members, _windows, st.integers(1, 4))
    def test_chunked_runs_match_per_member_loop(self, members, window, chunk):
        """Tiny pair runs split blocks at every segment boundary."""
        batch = _batch(members)
        with mock.patch.object(montecarlo, "PAIR_CHUNK", chunk):
            screen = uncorrectable_candidate_channels(batch, window)
        assert screen.tolist() == _reference_screen(batch, window).tolist()

    def test_window_zero_keeps_only_simultaneous_pairs(self):
        batch = _batch([[_lane(5.0), _device(5.0)], [_lane(5.0), _device(6.0)]])
        assert uncorrectable_candidate_channels(batch, 0.0).tolist() == [
            True,
            False,
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_sampled_blocks_match_per_member_loop(self, seed):
        batch = sample_block(seed, 512, 7.0, rate_multiplier=40.0)
        for window in (0.0, 4.0, 43800.0):
            assert np.array_equal(
                uncorrectable_candidate_channels(batch, window),
                _reference_screen(batch, window),
            )


class TestMonteCarloBlockScreen:
    """Skipping screened-out channels never changes a block's outcome."""

    @staticmethod
    def _unscreened(mc, block_seed, channels, years):
        rng = np.random.Generator(np.random.PCG64(block_seed))
        batch = montecarlo._sample_batch(mc.params, rng, channels, years)
        outcome = montecarlo.ReliabilityOutcome(channels=channels, years=years)
        for channel in np.flatnonzero(batch.per_channel >= 2):
            mc._decide_channel(batch.channel_faults(int(channel)), outcome)
        return outcome

    @pytest.mark.parametrize("chunk", [1, 7, montecarlo.PAIR_CHUNK])
    @pytest.mark.parametrize("multiplier", [50.0, 400.0])
    def test_matches_deciding_every_channel(self, chunk, multiplier):
        mc = montecarlo.MonteCarloReliability(
            montecarlo.ReliabilityParams(rate_multiplier=multiplier)
        )
        for block_seed in range(3):
            with mock.patch.object(montecarlo, "PAIR_CHUNK", chunk):
                fast = mc._simulate_block(block_seed, 256, 7.0, exact_pairs=True)
            assert fast == self._unscreened(mc, block_seed, 256, 7.0)


# -- the stacked year reduction -----------------------------------------------


def _policy_sets():
    """Every policy's (power, performance) weight sets and caps."""
    weight_sets, caps = [], []
    for policy in resolve_policies(("arcc", "sccdcd", "lotecc")):
        weight_sets += [policy.per_fault_power, policy.per_fault_performance]
        caps += [policy.power_cap, policy.performance_cap]
    return weight_sets, caps


class TestStackedOverhead:
    def _assert_rows_equal(self, batch, years, weight_sets, caps):
        stacked = overhead_series_by_year(batch, years, weight_sets, caps)
        assert stacked.shape == (len(weight_sets), years, batch.num_channels)
        for row, per_fault, cap in zip(stacked, weight_sets, caps):
            single = overhead_series_by_year(batch, years, [per_fault], [cap])
            assert np.array_equal(row, single[0])
            assert np.array_equal(
                row, _reference_overhead(batch, years, per_fault, cap)
            )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        channels=st.integers(0, 300),
        multiplier=st.sampled_from([1.0, 10.0, 200.0]),
        years=st.integers(1, 7),
    )
    def test_sampled_blocks(self, seed, channels, multiplier, years):
        batch = sample_block(seed, channels, float(years), multiplier)
        self._assert_rows_equal(batch, years, *_policy_sets())

    @settings(max_examples=60, deadline=None)
    @given(_members, st.integers(1, 4))
    def test_built_batches(self, members, years):
        self._assert_rows_equal(_batch(members), years, *_policy_sets())

    def test_sccdcd_sets_are_empty_and_score_zero(self):
        weight_sets, caps = _policy_sets()
        assert weight_sets[2] == {} and weight_sets[3] == {}
        batch = sample_block(3, 200, 7.0, rate_multiplier=50.0)
        stacked = overhead_series_by_year(batch, 7, weight_sets, caps)
        assert not stacked[2:4].any()
        self._assert_rows_equal(batch, 7, weight_sets, caps)

    @pytest.mark.parametrize("channels", [0, 5])
    def test_empty_batch(self, channels):
        self._assert_rows_equal(empty_batch(channels), 3, *_policy_sets())

    def test_no_weight_sets(self):
        batch = sample_block(1, 50, 3.0)
        assert overhead_series_by_year(batch, 3, [], []).shape == (0, 3, 50)

    def test_one_cap_per_set(self):
        with pytest.raises(ValueError, match="one cap per weight set"):
            overhead_series_by_year(empty_batch(1), 1, [{}], [1.0, 0.5])

"""Mapping and framing tests, mostly exact and oracle-backed."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secpon import framing
from secpon.framing import (
    FrameLayout,
    GcsPilotParams,
    assemble_frame,
    demap_payload_16qam,
    demap_pilot,
    demap_pilot_llrs,
    diagonal_projection,
    downstream_layout,
    hard_decision_16qam,
    map_payload_16qam,
    map_pilot,
    net_rate_gbps,
    payload_llrs_16qam,
    pilot_phase_reference,
    qpsk_training,
    upstream_layout,
)


def _parse_frame(frame, layout):
    """Reference inverse of assemble_frame: (training, pilots, payload)."""
    body = frame[layout.training_len:]
    return (frame[:layout.training_len], body[layout.pilot_body_positions()],
            body[layout.payload_body_positions()])


class TestQam16Mapping:
    def test_unit_mean_energy(self):
        bits = np.array([[(i >> k) & 1 for k in range(3, -1, -1)] for i in range(16)])
        pts = map_payload_16qam(bits.reshape(-1))
        assert pts.size == 16
        assert np.unique(np.round(pts, 12)).size == 16
        assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_gray_adjacency(self):
        """Neighboring constellation points differ in exactly one bit."""
        bits_of = {}
        for i in range(16):
            b = np.array([(i >> 3) & 1, (i >> 2) & 1, (i >> 1) & 1, i & 1])
            p = map_payload_16qam(b)[0]
            key = (round(p.real * np.sqrt(10)), round(p.imag * np.sqrt(10)))
            bits_of[key] = b
        for (x, y), b in bits_of.items():
            for dx, dy in ((2, 0), (0, 2)):
                if (x + dx, y + dy) in bits_of:
                    dist = int(np.sum(b != bits_of[(x + dx, y + dy)]))
                    assert dist == 1, f"neighbor of {(x, y)} differs in {dist} bits"

    def test_map_demap_roundtrip(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, size=4 * 5000).astype(np.uint8)
        assert np.array_equal(demap_payload_16qam(map_payload_16qam(bits)), bits)

    def test_hard_decision_is_nearest_point(self):
        rng = np.random.default_rng(8)
        grid = map_payload_16qam(np.array([[(i >> k) & 1 for k in range(3, -1, -1)]
                                           for i in range(16)]).reshape(-1))
        y = rng.normal(size=300) * 0.6 + 1j * rng.normal(size=300) * 0.6
        dec = hard_decision_16qam(y)
        brute = grid[np.argmin(np.abs(y[:, None] - grid[None, :]), axis=1)]
        assert np.allclose(dec, brute)

    def test_llr_signs_match_hard_decisions_at_high_snr(self):
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, size=4 * 2000).astype(np.uint8)
        noise_var = 1e-3
        y = map_payload_16qam(bits) + (
            rng.normal(size=2000) + 1j * rng.normal(size=2000)
        ) * np.sqrt(noise_var / 2)
        llrs = payload_llrs_16qam(y, noise_var)
        assert np.array_equal((llrs < 0).astype(np.uint8), demap_payload_16qam(y))

    def test_llr_rejects_bad_noise_var(self):
        y = np.array([0.1 + 0.1j])
        for noise_var in (0.0, -1.0):
            with pytest.raises(ValueError, match="must be positive"):
                payload_llrs_16qam(y, noise_var)


_AXIS_BOUNDS = np.array([-2.0, 0.0, 2.0]) * framing._QAM16_SCALE
# the decision boundaries themselves, their float neighbours and both zeros
_EDGES = [float(x) for b in _AXIS_BOUNDS
          for x in (b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf))]
_EDGES += [-0.0, 2.0 / np.sqrt(10.0), -2.0 / np.sqrt(10.0)]
_QAM16_BITS = st.lists(st.tuples(*[st.integers(0, 1)] * 4), max_size=64).map(
    lambda quads: np.array(quads, dtype=np.uint8).reshape(-1))


class TestQam16Properties:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.sampled_from(_EDGES)), min_size=1, max_size=32))
    def test_axis_slicer_matches_digitize(self, values):
        v = np.array(values)
        assert np.array_equal(framing._axis_level_idx(v),
                              np.digitize(v, _AXIS_BOUNDS, right=True))

    @settings(max_examples=100, deadline=None)
    @given(_QAM16_BITS)
    def test_map_demap_roundtrip(self, bits):
        assert np.array_equal(demap_payload_16qam(map_payload_16qam(bits)), bits)

    @settings(max_examples=100, deadline=None)
    @given(_QAM16_BITS)
    def test_hard_decision_fixes_constellation_points(self, bits):
        points = map_payload_16qam(bits)
        assert np.array_equal(hard_decision_16qam(points), points)


# The per-axis 16QAM bodies the table slicer replaced, kept as references:
# the tables must reproduce them bit for bit.
def _ref_bits_to_level_idx(hi, lo):
    return framing._PAM4_GRAY_INV[(hi.astype(np.uint8) << 1) | lo.astype(np.uint8)]


def _ref_map(bits):
    b = np.asarray(bits).reshape(-1, 4)
    i_lv = framing._PAM4_LEVELS[_ref_bits_to_level_idx(b[:, 0], b[:, 1])]
    q_lv = framing._PAM4_LEVELS[_ref_bits_to_level_idx(b[:, 2], b[:, 3])]
    return (i_lv + 1j * q_lv) * framing._QAM16_SCALE


def _ref_demap(symbols):
    """1-D input only."""
    symbols = np.asarray(symbols)
    i_lab = framing._PAM4_GRAY[framing._axis_level_idx(symbols.real)]
    q_lab = framing._PAM4_GRAY[framing._axis_level_idx(symbols.imag)]
    out = np.empty((symbols.size, 4), dtype=np.uint8)
    out[:, 0] = i_lab >> 1
    out[:, 1] = i_lab & 1
    out[:, 2] = q_lab >> 1
    out[:, 3] = q_lab & 1
    return out.reshape(-1)


def _ref_hard_decision(symbols):
    symbols = np.asarray(symbols)
    i_lv = framing._PAM4_LEVELS[framing._axis_level_idx(symbols.real)]
    q_lv = framing._PAM4_LEVELS[framing._axis_level_idx(symbols.imag)]
    return (i_lv + 1j * q_lv) * framing._QAM16_SCALE


def _received(re, im, form):
    """Slicer input of the given form built from the drawn axis values."""
    y = np.empty(len(re), dtype=complex)
    y.real, y.imag = re, im
    if form == "real":
        return np.array(re)
    if form == "strided":
        wide = np.zeros(2 * y.size, dtype=complex)
        wide[::2] = y
        return wide[::2]
    if form == "2-D":
        return np.stack([y, y[::-1]])
    return y


_AXIS_VALUE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from(_EDGES))


class TestQam16TablesMatchPerAxisSlicer:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_AXIS_VALUE, _AXIS_VALUE), min_size=1, max_size=32),
           st.sampled_from(["complex", "real", "strided", "2-D"]))
    def test_slicing(self, pairs, form):
        re, im = (np.array(axis) for axis in zip(*pairs))
        y = _received(re, im, form)
        dec, ref = hard_decision_16qam(y), _ref_hard_decision(y)
        assert dec.shape == ref.shape
        assert np.array_equal(dec.view(np.int64), ref.view(np.int64))
        assert np.array_equal(demap_payload_16qam(y), _ref_demap(np.ravel(y)))

    @settings(max_examples=100, deadline=None)
    @given(_QAM16_BITS, st.sampled_from([np.uint8, np.int64, bool]), st.booleans())
    def test_mapping(self, bits, dtype, two_d):
        bits = bits.astype(dtype).reshape(-1, 4) if two_d else bits.astype(dtype)
        assert np.array_equal(map_payload_16qam(bits).view(np.int64),
                              _ref_map(bits).view(np.int64))


# The 16QAM LLR body that per-level 1-D log-likelihoods replaced, kept as
# the reference: a log-sum-exp reduce over each label set's two levels.
def _ref_axis_llrs(v, sigma2):
    lv = framing._PAM4_LEVELS * framing._QAM16_SCALE
    ll = -((v[:, None] - lv[None, :]) ** 2) / (2.0 * sigma2)
    lab = framing._PAM4_GRAY
    hi0 = lab >> 1 == 0
    lo0 = (lab & 1) == 0
    hi = np.logaddexp.reduce(ll[:, hi0], axis=1) - np.logaddexp.reduce(ll[:, ~hi0], axis=1)
    lo = np.logaddexp.reduce(ll[:, lo0], axis=1) - np.logaddexp.reduce(ll[:, ~lo0], axis=1)
    return hi, lo


def _ref_payload_llrs(symbols, noise_var):
    i_hi, i_lo = _ref_axis_llrs(symbols.real, noise_var / 2.0)
    q_hi, q_lo = _ref_axis_llrs(symbols.imag, noise_var / 2.0)
    return np.stack([i_hi, i_lo, q_hi, q_lo], axis=1).reshape(-1)


# received axis values: anywhere around the constellation, its decision
# boundaries and their neighbours, and the levels themselves
_LLR_AXIS_VALUE = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from(_EDGES + [float(x) for x in framing._PAM4_LEVELS * framing._QAM16_SCALE]))
# noise variances down to the 1e-12 floor of the receiver's estimate,
# where |LLR| reaches about 1e12
_NOISE_VAR = st.one_of(st.floats(1e-12, 10.0),
                       st.integers(-12, 1).map(lambda e: 10.0 ** e))


class TestPayloadLlrsMatchLevelReduce:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_LLR_AXIS_VALUE, _LLR_AXIS_VALUE), min_size=1, max_size=32),
           _NOISE_VAR, st.sampled_from(["complex", "strided", "real"]))
    def test_bit_identical(self, pairs, noise_var, form):
        re, im = (np.array(axis) for axis in zip(*pairs))
        y = _received(re, im, form)
        got, ref = payload_llrs_16qam(y, noise_var), _ref_payload_llrs(y, noise_var)
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


# The pilot LLR body the shared PAM4 kernel replaced, kept as the
# reference: an (n, 4) log-likelihood matrix on the diagonal, reduced
# over the outer and the inner levels.
def _ref_pilot_llrs(symbols, params, noise_var):
    r = diagonal_projection(symbols)
    amps = params.amplitudes()
    ll = -((r[:, None] - amps[None, :]) ** 2) / (2.0 * (noise_var / 4.0))
    outer = np.logaddexp.reduce(ll[:, [0, 3]], axis=1)
    inner = np.logaddexp.reduce(ll[:, [1, 2]], axis=1)
    return outer - inner


class TestPilotLlrsMatchLevelReduce:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_LLR_AXIS_VALUE, _LLR_AXIS_VALUE), min_size=1, max_size=32),
           st.one_of(st.floats(0.0, 3.0, exclude_min=True), st.sampled_from([1.0, 1.7, 3.0])),
           st.sampled_from(["complex", "strided"]))
    def test_bit_identical(self, pairs, a, form):
        params = GcsPilotParams(a=a)
        # the drawn values, then every pilot point and decision threshold
        marks = np.concatenate([params.amplitudes(),
                                np.array([-1.0, 0.0, 1.0]) * params.decision_threshold
                                * params.d])
        re, im = (np.concatenate([axis, marks]) for axis in zip(*pairs))
        y = _received(re, im, form)
        got = demap_pilot_llrs(y, params)
        ref = _ref_pilot_llrs(y, params, framing._PILOT_NOISE_VAR)
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


class TestPilotConstellation:
    def test_points_and_normalization(self):
        p = GcsPilotParams(a=1.7)
        d = 1 / np.sqrt(9 + 1.7 ** 2)
        assert p.d == pytest.approx(d)
        assert np.allclose(p.points(), np.array([-3, -1.7, 1.7, 3]) * d * (1 + 1j))
        assert np.mean(np.abs(p.points()) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_limiting_shapes(self):
        # a = 1 is plain uniform PAM4 on the diagonal
        amps = GcsPilotParams(a=1.0).amplitudes()
        assert np.allclose(np.diff(amps), amps[1] - amps[0])
        # a = 3 collapses to two distinct points
        pts = GcsPilotParams(a=3.0).points()
        assert np.unique(np.round(pts, 12)).size == 2

    def test_invalid_a_rejected(self):
        for bad in (0.0, -1.0, 3.2):
            with pytest.raises(ValueError):
                GcsPilotParams(a=bad)

    def test_demap_examples(self):
        p17 = GcsPilotParams(a=1.7)
        first, second = demap_pilot(np.array([3 * p17.d * (1 + 1j)]), p17)
        assert (first[0], second[0]) == (1, 0)
        first, second = demap_pilot(np.array([-1.7 * p17.d * (1 + 1j)]), p17)
        assert (first[0], second[0]) == (0, 1)

    def test_map_demap_roundtrip(self):
        rng = np.random.default_rng(3)
        p = GcsPilotParams(a=1.7)
        b1 = rng.integers(0, 2, 4000).astype(np.uint8)
        b2 = rng.integers(0, 2, 4000).astype(np.uint8)
        r1, r2 = demap_pilot(map_pilot(b1, b2, p), p)
        assert np.array_equal(r1, b1)
        assert np.array_equal(r2, b2)

    def test_threshold_midpoint(self):
        p = GcsPilotParams(a=1.7)
        k = p.decision_threshold
        eps = 1e-9
        _, sec = demap_pilot(np.array([(k - eps) * p.d * (1 + 1j),
                                       (k + eps) * p.d * (1 + 1j)]), p)
        assert list(sec) == [1, 0]

    def test_projection_halves_orthogonal_noise(self):
        rng = np.random.default_rng(5)
        n = rng.normal(size=200_000) + 1j * rng.normal(size=200_000)
        r = diagonal_projection(n)
        assert np.var(r) == pytest.approx(0.5, rel=0.02)

    def test_phase_reference_tracks_pilot_argument(self):
        rng = np.random.default_rng(11)
        p = GcsPilotParams(a=1.7)
        b1 = rng.integers(0, 2, 500).astype(np.uint8)
        b2 = rng.integers(0, 2, 500).astype(np.uint8)
        ref = pilot_phase_reference(b1)
        assert np.allclose(np.abs(ref), 1.0)
        # the reference argument equals the true pilot argument regardless
        # of the magnitude bit, which is what lets phase recovery ignore it
        assert np.allclose(np.angle(map_pilot(b1, b2, p)) - np.angle(ref), 0.0)

    def test_pilot_llr_sign_matches_hard_decision(self):
        rng = np.random.default_rng(13)
        p = GcsPilotParams(a=1.7)
        noise_var = 0.05
        y = map_pilot(rng.integers(0, 2, 3000).astype(np.uint8),
                      rng.integers(0, 2, 3000).astype(np.uint8), p)
        y = y + (rng.normal(size=3000) + 1j * rng.normal(size=3000)) * np.sqrt(noise_var / 2)
        llr = demap_pilot_llrs(y, p)
        _, hard = demap_pilot(y, p)
        agree = np.mean((llr < 0).astype(np.uint8) == hard)
        assert agree > 0.995  # soft and hard rules share the midpoint threshold


class TestFrameLayout:
    def test_standard_counts(self):
        us, ds = upstream_layout(), downstream_layout()
        assert us.n_pilots == 279
        assert us.body_len == 8919
        assert us.total_len == 9335
        assert ds.total_len == 9399
        assert us.pilot_body_positions()[0] == 0
        assert us.pilot_body_positions()[-1] == 278 * 32

    def test_positions_are_read_only(self):
        with pytest.raises(ValueError):
            upstream_layout().payload_body_positions()[0] = 1
        with pytest.raises(ValueError):
            upstream_layout().pilot_body_positions()[0] = 1

    def test_net_rates(self):
        assert net_rate_gbps(upstream_layout()) == pytest.approx(200.08, abs=0.01)
        assert net_rate_gbps(downstream_layout()) == pytest.approx(198.72, abs=0.01)

    def test_invalid_layouts_rejected(self):
        with pytest.raises(ValueError):
            FrameLayout(training_len=-1)
        with pytest.raises(ValueError):
            FrameLayout(training_len=0, payload_len=0)
        with pytest.raises(ValueError):
            FrameLayout(training_len=0, pilot_spacing=1)

    def test_assemble_parse_roundtrip_random_layouts(self):
        """assemble_frame puts every symbol where the layout says."""
        rng = np.random.default_rng(17)
        for _ in range(120):
            layout = FrameLayout(
                training_len=int(rng.integers(0, 64)),
                payload_len=int(rng.integers(1, 600)),
                pilot_spacing=int(rng.integers(2, 48)),
            )
            tr = rng.normal(size=layout.training_len) + 0j
            pi = rng.normal(size=layout.n_pilots) + 0j
            pl = rng.normal(size=layout.payload_len) + 0j
            t2, p2, l2 = _parse_frame(assemble_frame(tr, pi, pl, layout), layout)
            assert np.array_equal(t2, tr)
            assert np.array_equal(p2, pi)
            assert np.array_equal(l2, pl)

    def test_assemble_rejects_wrong_counts(self):
        layout = FrameLayout(training_len=4, payload_len=10, pilot_spacing=4)
        tr = np.zeros(4, complex)
        pi = np.zeros(layout.n_pilots, complex)
        pl = np.zeros(10, complex)
        with pytest.raises(ValueError):
            assemble_frame(tr[:-1], pi, pl, layout)
        with pytest.raises(ValueError):
            assemble_frame(tr, pi[:-1], pl, layout)

    def test_training_sequence_deterministic_qpsk(self):
        t1 = qpsk_training(416, (12,))
        t2 = qpsk_training(416, (12,))
        assert np.array_equal(t1, t2)
        assert np.allclose(np.abs(t1), 1.0)
        assert np.unique(np.round(np.angle(t1), 9)).size == 4
        assert not np.array_equal(t1, qpsk_training(416, (13,)))

    def test_training_sequence_cached_read_only(self):
        t = qpsk_training(416, (12,))
        assert t is qpsk_training(416, (12,))
        with pytest.raises(ValueError):
            t[0] = 0

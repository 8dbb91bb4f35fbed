import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse

from secpon import fec_ldpc, framing, theory

# the flooding reference clips channel LLRs and messages at this level
LLR_CLIP = 30.0
# A downstream row that the decoder left unconverged while it clipped the
# magnitudes into its check kernel at 30: the second codeword of onu2's
# subcarrier 3 in superframe 4 of `e2e-secure` {"n_superframes": 9} at
# seed 2603970838, under the seed tree of that time.  Its LLRs (float16)
# and the codeword sent (packed bits).  About 21% of them exceed 30.
SATURATED_ROW = Path(__file__).parent / "data" / "ldpc_saturated_row.npz"
# sha256 of the shipped code's check_of_edge then var_of_edge as <i8 bytes
SHIPPED_MATRIX_SHA256 = "25c94c20e3a145a3e371ae16593ded7eaec13822c8d898750ec8286ff1e12bd2"


def _phi(x):
    """Self-inverse check-node kernel -log(tanh(x/2)) for x > 0."""
    return -np.log(np.tanh(0.5 * x))


class _LogSpy:
    """Stands in for numpy inside ``secpon.fec_ldpc`` and hands every
    ``log`` output to ``sink``; the decoder's only logs are its two phi
    evaluations per layer, each -phi of its input."""

    def __init__(self, sink):
        self._sink = sink

    def __getattr__(self, name):
        return getattr(np, name)

    def log(self, x, out=None):
        y = np.log(x, out=out)
        self._sink(y)
        return y


def _reference_row_major(code, llrs, max_iterations=fec_ldpc.DEFAULT_MAX_ITERATIONS,
                         kernel=_phi):
    """The layered decoder with codewords as rows and each layer's checks
    as (checks, degree) rows: each check sums its phi terms and multiplies
    its signs along a contiguous last axis, in numpy's own reduction
    order.  ``decode_batch`` must give exactly its bits.  ``kernel``
    evaluates phi."""
    b = llrs.shape[0]
    hard = np.zeros((b, code.n), dtype=np.uint8)
    iters = np.full(b, max_iterations, dtype=np.int64)
    done = np.zeros(b, dtype=bool)
    active = np.arange(b)
    post = llrs.astype(np.float64)
    msg = np.zeros((b, code.var_of_edge.size))
    layers = [(e0, e1, v.T) for e0, e1, v in code._layers]
    for it in range(max_iterations):
        for e0, e1, v in layers:
            r = msg[:, e0:e1].reshape(-1, *v.shape)
            q = np.take(post, v, axis=1)
            q -= r
            phi = kernel(np.maximum(np.abs(q), 1e-12))
            others = np.maximum(phi.sum(axis=-1, keepdims=True) - phi, 1e-12)
            sign = np.copysign(1.0, q)
            sign *= sign.prod(axis=-1, keepdims=True)
            r[...] = kernel(others)
            r *= sign
            q += r
            post[:, v] = q
        conv = ~np.any(code._syndrome(post < 0), axis=1)
        if np.any(conv):
            rows = active[conv]
            hard[rows] = post[conv] < 0
            iters[rows] = it + 1
            done[rows] = True
            keep = ~conv
            active, post, msg = active[keep], post[keep], msg[keep]
        if active.size == 0:
            break
    hard[active] = post < 0
    return hard, iters, done


def _reference_flooding(code, llrs, max_iterations=fec_ldpc.DEFAULT_MAX_ITERATIONS):
    """The flooding sum-product decoder the layered one replaced: every
    check, then every variable, updates once per iteration, and the whole
    batch iterates in lockstep."""
    cidx, vidx = code.check_of_edge, code.var_of_edge
    cstarts = np.concatenate(([0], np.cumsum(np.bincount(cidx, minlength=code.m))))[:-1]
    vstarts = np.concatenate(([0], np.cumsum(np.bincount(vidx, minlength=code.n))))[:-1]
    byv = np.argsort(vidx, kind="stable")
    b = llrs.shape[0]
    ch = np.clip(llrs, -LLR_CLIP, LLR_CLIP)
    m_vc = ch[:, vidx]
    hard = np.zeros((b, code.n), dtype=np.uint8)
    iters = np.full(b, max_iterations, dtype=np.int64)
    done = np.zeros(b, dtype=bool)
    posterior = ch.copy()
    for it in range(max_iterations):
        neg = m_vc < 0
        phi = _phi(np.maximum(np.abs(m_vc), 1e-12))
        phi_sum = np.add.reduceat(phi, cstarts, axis=1)[:, cidx] - phi
        negsum = np.add.reduceat(neg.astype(np.int8), cstarts, axis=1)[:, cidx] \
            - neg.astype(np.int8)
        sign = 1.0 - 2.0 * (negsum & 1)
        m_cv = np.clip(sign * _phi(np.maximum(phi_sum, 1e-12)), -LLR_CLIP, LLR_CLIP)
        posterior = ch + np.add.reduceat(m_cv[:, byv], vstarts, axis=1)
        m_vc = np.clip(posterior[:, vidx] - m_cv, -LLR_CLIP, LLR_CLIP)
        hard_now = (posterior < 0).astype(np.uint8)
        conv = ~np.any(np.add.reduceat(hard_now[:, vidx], cstarts, axis=1) & 1, axis=1)
        newly = conv & ~done
        hard[newly] = hard_now[newly]
        iters[newly] = it + 1
        done |= conv
        if np.all(done):
            break
    hard[~done] = (posterior[~done] < 0).astype(np.uint8)
    return hard, iters, done


def _sparse_h(code):
    """The parity-check matrix as a scipy.sparse CSR matrix."""
    return sparse.csr_matrix((np.ones(code.var_of_edge.size, dtype=np.int32),
                              (code.check_of_edge, code.var_of_edge)),
                             shape=(code.m, code.n))


def _noisy_llrs(rng, code, infos, snr_db):
    nvar = 10 ** (-snr_db / 10)
    llr = np.empty((infos.shape[0], code.n))
    for i, info in enumerate(infos):
        sym = framing.map_payload_16qam(code.encode(info))
        noise = (rng.standard_normal(sym.size) + 1j * rng.standard_normal(sym.size)) \
            * np.sqrt(nvar / 2)
        llr[i] = framing.payload_llrs_16qam(sym + noise, nvar)
    return llr


def _llrs_at(rng, code, snrs_db):
    """One noisy codeword per SNR, stacked as a batch."""
    infos = rng.integers(0, 2, (len(snrs_db), code.k)).astype(np.uint8)
    return np.concatenate([_noisy_llrs(rng, code, infos[i:i + 1], snr)
                           for i, snr in enumerate(snrs_db)])


def _assert_rows_decode_alone(code, llr, batch_out):
    """Each row of a batch decodes to what it gives as a batch of one."""
    hard, iters, ok = batch_out
    for i in range(llr.shape[0]):
        alone = code.decode_batch(llr[i:i + 1])
        assert np.array_equal(alone[0][0], hard[i]), i
        assert (alone[1][0], alone[2][0]) == (iters[i], ok[i]), i


# row order for the bit-identity guard: any prefix mixes SNRs from 9 to
# 13.54 dB, and row 2 is a 13.54 dB row scaled by 1e6, which no bounded
# check message can move
_GUARD_SNRS_DB = (12.3434, 9.0, 13.54, 11.6, 12.0, 10.0, 13.0, 11.0, 12.6, 11.8, 13.54)


@pytest.fixture(scope="module")
def guard_llrs():
    code = fec_ldpc.default_code()
    llr = _llrs_at(np.random.default_rng(14), code, _GUARD_SNRS_DB)
    llr[2] *= 1e6
    return llr


class TestConstruction:
    def test_dimensions_and_rate(self):
        code = fec_ldpc.default_code()
        assert (code.n, code.k, code.m) == (17280, 14592, 2688)
        assert code.n - code.k == 2688
        assert abs(code.rate - 14592 / 17280) < 1e-12

    def test_no_empty_rows_or_columns(self):
        code = fec_ldpc.default_code()
        assert np.bincount(code.check_of_edge, minlength=code.m).min() >= 1
        assert np.bincount(code.var_of_edge, minlength=code.n).min() >= 1

    def test_deterministic_construction(self):
        a = fec_ldpc.default_code()
        fec_ldpc.default_code.cache_clear()
        b = fec_ldpc.default_code()
        assert np.array_equal(a.check_of_edge, b.check_of_edge)
        assert np.array_equal(a.var_of_edge, b.var_of_edge)

    def test_shipped_matrix_is_pinned(self):
        code = fec_ldpc.default_code()
        h = hashlib.sha256()
        h.update(code.check_of_edge.astype("<i8").tobytes())
        h.update(code.var_of_edge.astype("<i8").tobytes())
        assert h.hexdigest() == SHIPPED_MATRIX_SHA256

    def test_column_degree_profile(self):
        code = fec_ldpc.default_code()
        profile = np.bincount(np.bincount(code.var_of_edge, minlength=code.n))
        assert {d: int(n) for d, n in enumerate(profile) if n} == \
            {1: 48, 2: 2640, 3: 11712, 4: 1440, 10: 1440}

    def test_no_length_four_cycles(self):
        # two columns sharing two checks close a 4-cycle: off the diagonal
        # of H^T H no entry may exceed 1
        h = _sparse_h(fec_ldpc.default_code())
        gram = (h.T @ h).tocoo()
        off_diagonal = gram.row != gram.col
        assert gram.data[off_diagonal].max() == 1

    def test_shift_search_rejects_unavoidable_four_cycle(self):
        # every column holds checks 0 and 1, like the first staircase
        # column; once the 48 shift differences are taken, the next
        # column cannot place its check-1 edge
        edges = [(c, j) for j in range(fec_ldpc._LIFT) for c in (0, 1)]
        rng = np.random.Generator(np.random.Philox(0))
        with pytest.raises(ValueError, match=r"check 1, column \d+"):
            fec_ldpc._assign_shifts(edges, rng)

    def test_layers_are_the_base_rows(self):
        code = fec_ldpc.default_code()
        layers = code._layers
        assert len(layers) == 56
        bounds = [(e0, e1) for e0, e1, _ in layers]
        assert bounds[0][0] == 0 and bounds[-1][1] == code.var_of_edge.size
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        for e0, e1, v in layers:
            # variable-major: one row of 48 variables per position in the
            # checks, column c holding check c's variables
            assert v.shape[1] == 48 and v.flags.c_contiguous
            assert np.array_equal(v.T.ravel(), code.var_of_edge[e0:e1])
            checks = code.check_of_edge[e0:e1].reshape(v.T.shape)
            assert (checks == checks[:, :1]).all()
            assert np.unique(v).size == v.size

    def test_rejects_empty_row(self):
        with pytest.raises(ValueError):
            fec_ldpc.LdpcCode(n=4, m=2,
                              check_of_edge=np.array([0, 0]),
                              var_of_edge=np.array([0, 1]))


class TestEncoder:
    def test_syndrome_is_h_times_word(self):
        # eight words share a byte of the parity kernel, so the shapes cross
        # the 8-word lane boundary; 2 and 255 count by their parity
        code = fec_ldpc.default_code()
        rng = np.random.default_rng(3)
        values = np.array([0, 1, 2, 255], dtype=np.uint8)
        for lead in [(), (1,), (8,), (9,), (17,), (2, 3)]:
            words = rng.choice(values, (*lead, code.n))
            expect = (_sparse_h(code) @ words.reshape(-1, code.n).T.astype(np.int32)).T % 2
            got = code._syndrome(words)
            assert got.shape == (*lead, code.m)
            assert np.array_equal(got.reshape(-1, code.m), expect), lead

    def test_zero_in_zero_out(self):
        code = fec_ldpc.default_code()
        cw = code.encode(np.zeros(code.k, np.uint8))
        assert not cw.any()
        assert code.syndrome_weight(cw) == 0

    def test_random_payloads_satisfy_every_check(self):
        code = fec_ldpc.default_code()
        rng = np.random.default_rng(0)
        for _ in range(1000):
            cw = code.encode(rng.integers(0, 2, code.k).astype(np.uint8))
            assert code.syndrome_weight(cw) == 0

    def test_single_bit_flip_breaks_syndrome(self):
        code = fec_ldpc.default_code()
        rng = np.random.default_rng(1)
        cw = code.encode(rng.integers(0, 2, code.k).astype(np.uint8))
        for pos in rng.choice(code.n, 50, replace=False):
            bad = cw.copy()
            bad[pos] ^= 1
            assert code.syndrome_weight(bad) > 0

    def test_systematic_prefix(self):
        code = fec_ldpc.default_code()
        rng = np.random.default_rng(2)
        info = rng.integers(0, 2, code.k).astype(np.uint8)
        assert np.array_equal(code.encode(info)[:code.k], info)

    def test_wrong_length_rejected(self):
        code = fec_ldpc.default_code()
        with pytest.raises(ValueError):
            code.encode(np.zeros(code.k - 1, np.uint8))

    @pytest.mark.parametrize("bad", [2, -1, 0.5, 256])
    def test_non_bits_rejected(self, bad):
        # parity keeps only the lowest bit, so a codeword holding a 2 would
        # pass the encoder's own zero-syndrome check
        code = fec_ldpc.default_code()
        info = np.zeros(code.k)
        info[7] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            code.encode(info)

    def test_parity_columns_are_block_staircase(self):
        # parity bit j enters check j and, below the last block of 48, check
        # j + 48, and nothing else: a unit lower-triangular parity part, so
        # each info word has one codeword, which the zero-syndrome and
        # systematic-prefix tests pin
        code = fec_ldpc.default_code()
        par = code.var_of_edge >= code.k
        got = sorted(zip((code.var_of_edge[par] - code.k).tolist(),
                         code.check_of_edge[par].tolist()))
        want = sorted([(j, j) for j in range(code.m)]
                      + [(j, j + 48) for j in range(code.m - 48)])
        assert got == want


class TestSmallCodeSanity:
    # (7,4) single-error-correcting code, H = [A | I3]
    A = np.array([[1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1]], dtype=np.uint8)

    def hamming(self):
        rows, cols = np.nonzero(np.hstack([self.A, np.eye(3, dtype=np.uint8)]))
        return fec_ldpc.LdpcCode(n=7, m=3, check_of_edge=rows, var_of_edge=cols)

    def codewords(self):
        for val in range(16):
            info = np.array([(val >> i) & 1 for i in range(4)], dtype=np.uint8)
            yield info, np.concatenate([info, self.A @ info % 2]).astype(np.uint8)

    def test_hamming_roundtrip_all_codewords(self):
        code = self.hamming()
        for info, cw in self.codewords():
            assert code.syndrome_weight(cw) == 0
            llr = 4.0 * (1.0 - 2.0 * cw.astype(float))
            bits, _, ok = code.decode_batch(llr[None, :], 20)
            assert ok[0] and np.array_equal(bits[0, :4], info)

    def test_hamming_layers_are_single_checks(self):
        # every pair of Hamming checks shares variable 0
        layers = self.hamming()._layers
        assert [(e0, e1, v.shape) for e0, e1, v in layers] \
            == [(0, 4, (4, 1)), (4, 8, (4, 1)), (8, 12, (4, 1))]

    def test_hamming_corrects_unreliable_position(self):
        # one position flipped at low confidence: belief propagation must
        # pull it back from the other checks, wherever it sits
        code = self.hamming()
        for info, cw in self.codewords():
            for flip in range(7):
                llr = 4.0 * (1.0 - 2.0 * cw.astype(float))
                llr[flip] = -0.25 * llr[flip]
                bits, _, ok = code.decode_batch(llr[None, :], 20)
                assert ok[0]
                assert np.array_equal(bits[0, :4], info), (info, flip)


class TestDecoder:
    def test_noiseless_converges_first_iteration(self):
        code = fec_ldpc.default_code()
        rng = np.random.default_rng(4)
        info = rng.integers(0, 2, code.k).astype(np.uint8)
        llr = 10.0 * (1.0 - 2.0 * code.encode(info).astype(float))
        bits, iters, ok = code.decode_batch(llr[None, :])
        assert ok[0] and iters[0] <= 1
        assert np.array_equal(bits[0, :code.k], info)

    def test_converged_implies_zero_syndrome(self):
        code = fec_ldpc.default_code()
        rng = np.random.default_rng(5)
        infos = rng.integers(0, 2, (4, code.k)).astype(np.uint8)
        llr = _noisy_llrs(rng, code, infos, 12.4)
        hard, _, ok = code.decode_batch(llr)
        assert ok.all()
        for row in hard:
            assert code.syndrome_weight(row) == 0

    def test_error_free_at_operating_point(self):
        code = fec_ldpc.default_code()
        snr = theory.snr_at_ber_16qam(theory.SD_FEC_LIMIT)
        rng = np.random.default_rng(6)
        infos = rng.integers(0, 2, (30, code.k)).astype(np.uint8)
        hard, _, ok = code.decode_batch(_noisy_llrs(rng, code, infos, snr))
        assert ok.all()
        assert np.array_equal(hard[:, :code.k], infos)

    def test_error_free_half_db_above_operating_point(self):
        code = fec_ldpc.default_code()
        snr = theory.snr_at_ber_16qam(theory.SD_FEC_LIMIT) + 0.5
        rng = np.random.default_rng(7)
        infos = rng.integers(0, 2, (25, code.k)).astype(np.uint8)
        hard, iters, ok = code.decode_batch(_noisy_llrs(rng, code, infos, snr))
        assert ok.all()
        assert np.array_equal(hard[:, :code.k], infos)
        assert iters.max() <= 15

    def test_ber_nonincreasing_in_iteration_budget(self):
        code = fec_ldpc.default_code()
        rng = np.random.default_rng(8)
        infos = rng.integers(0, 2, (30, code.k)).astype(np.uint8)
        llr = _noisy_llrs(rng, code, infos, 11.9)
        bers = []
        for budget in (5, 20, 50):
            hard, _, _ = code.decode_batch(llr, budget)
            bers.append(np.mean(hard[:, :code.k] != infos))
        assert bers[0] >= bers[1] >= bers[2]
        assert bers[0] > bers[2]  # the budget actually matters down here

    def test_matches_flooding_reference_at_operating_point(self):
        code = fec_ldpc.default_code()
        snr = theory.snr_at_ber_16qam(theory.SD_FEC_LIMIT)
        rng = np.random.default_rng(10)
        infos = rng.integers(0, 2, (8, code.k)).astype(np.uint8)
        llr = _noisy_llrs(rng, code, infos, snr)
        hard, iters, ok = code.decode_batch(llr)
        ref_hard, ref_iters, ref_ok = _reference_flooding(code, llr)
        assert ok.all() and ref_ok.all()
        assert np.array_equal(hard, ref_hard)
        assert iters.sum() < ref_iters.sum()

    def test_rows_decode_as_they_do_alone(self):
        code = fec_ldpc.default_code()
        op = theory.snr_at_ber_16qam(theory.SD_FEC_LIMIT)
        rng = np.random.default_rng(11)
        llr = _llrs_at(rng, code, (op, 11.0, 11.6))
        hard, iters, ok = code.decode_batch(llr)
        assert ok[0] and not ok[1]
        _assert_rows_decode_alone(code, llr, (hard, iters, ok))

    def test_rows_decode_as_they_do_alone_across_byte_lanes(self):
        # the stopping test packs eight rows to a byte: unconverged rows 7
        # and 8 sit on either side of the first lane boundary while rows
        # around them leave the batch at different iterations
        code = fec_ldpc.default_code()
        op = theory.snr_at_ber_16qam(theory.SD_FEC_LIMIT)
        rng = np.random.default_rng(13)
        snrs = (op + 0.5, op, 12.0, op + 0.2, 11.9, op + 1.0, op, 11.0, 11.0, op + 0.3, 11.8)
        llr = _llrs_at(rng, code, snrs)
        hard, iters, ok = code.decode_batch(llr)
        assert np.flatnonzero(~ok).tolist() == [7, 8]
        assert len(set(iters[ok].tolist())) >= 3
        _assert_rows_decode_alone(code, llr, (hard, iters, ok))
        hard, iters, ok = code.decode_batch(np.zeros((0, code.n)))
        assert hard.shape == (0, code.n) and iters.shape == ok.shape == (0,)

    def test_check_messages_stay_bounded(self, monkeypatch):
        # decode_batch floors the kernel's inputs at 1e-12 and clamps
        # nothing: phi falls with x, so phi(1e-12) bounds every message,
        # even for channel LLRs far beyond any clip level.  The kernel
        # takes phi as log(tanh(x/2)) = -phi(x) and each message is the
        # second log's output times +-1, so the peak |log| over the
        # decode bounds every message (and every phi term).
        code = fec_ldpc.default_code()
        cw = code.encode(np.random.default_rng(12).integers(0, 2, code.k).astype(np.uint8))
        llr = 1e6 * (1.0 - 2.0 * cw.astype(float))
        llr[:40] *= -1e-6
        llr[40] = 0.0
        peak = []
        monkeypatch.setattr(fec_ldpc, "np", _LogSpy(lambda y: peak.append(np.abs(y).max())))
        bits, iters, ok = code.decode_batch(llr[None, :])
        monkeypatch.undo()
        assert ok[0] and np.array_equal(bits[0], cw)
        assert len(peak) == 2 * len(code._layers) * iters[0]
        assert np.isfinite(peak).all()
        assert max(peak) <= _phi(np.float64(1e-12)) < 28.4

    @pytest.mark.parametrize("batch", [1, 3, 8, 11])
    def test_same_bits_as_row_major_reference(self, guard_llrs, batch, monkeypatch):
        # the variable-major kernel reorders memory, not arithmetic: every
        # phi-sum follows numpy's pairwise order and the sign product of
        # +-1 is exact, so hard bits, iterations and flags match the
        # row-major kernel at every budget, and at the largest every phi
        # array of every layer matches too; 11 rows cross a byte lane of
        # the stopping test
        code = fec_ldpc.default_code()
        llr = guard_llrs[:batch].copy()
        for budget in (1, 2, 3, 5):
            got = code.decode_batch(llr, budget)
            want = _reference_row_major(code, llr, budget)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (batch, budget)
        got_phi, want_phi = hashlib.sha256(), hashlib.sha256()

        def kernel(x):
            y = _phi(x)
            want_phi.update(np.ascontiguousarray(-y.transpose(2, 1, 0)).tobytes())
            return y

        want = _reference_row_major(code, llr, 50, kernel)
        monkeypatch.setattr(fec_ldpc, "np", _LogSpy(lambda y: got_phi.update(y.tobytes())))
        got = code.decode_batch(llr, 50)
        monkeypatch.undo()
        for g, w in zip(got, want):
            assert np.array_equal(g, w), (batch, 50)
        assert got_phi.digest() == want_phi.digest()
        assert np.array_equal(llr, guard_llrs[:batch])     # input left as given

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_pairwise_sum_is_numpy_reduce(self, data):
        # over axis 0, bit for bit what np.add.reduce gives over a
        # contiguous last axis, -0.0 and subnormal terms included
        n = data.draw(st.integers(1, 300), label="n")
        x = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 3)), n),
                                 elements=st.floats(-1e300, 1e300)), label="x")
        got = fec_ldpc._pairwise_sum(np.ascontiguousarray(x.T))
        assert got.tobytes() == np.add.reduce(x, axis=-1).tobytes()

    @pytest.mark.parametrize("n", [3, 8, 21, 200])
    def test_pairwise_sum_of_negative_zeros_is_positive_zero(self, n):
        # numpy's reduction starts from +0.0
        got = fec_ldpc._pairwise_sum(np.full((n, 2), -0.0))
        assert not np.signbit(got).any()

    def test_saturated_session_row_decodes(self):
        code = fec_ldpc.default_code()
        row = np.load(SATURATED_ROW)
        sent = np.unpackbits(row["codeword"])[:code.n]
        bits, iters, ok = code.decode_batch(row["llrs"].astype(np.float64)[None, :])
        assert ok[0] and iters[0] < 10
        assert np.array_equal(bits[0], sent)

    def test_decode_is_deterministic(self):
        code = fec_ldpc.default_code()
        rng = np.random.default_rng(9)
        infos = rng.integers(0, 2, (2, code.k)).astype(np.uint8)
        llr = _noisy_llrs(rng, code, infos, 11.6)
        a = code.decode_batch(llr)
        b = code.decode_batch(llr.copy())
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_llr_length_and_budget_validated(self):
        code = fec_ldpc.default_code()
        with pytest.raises(ValueError):
            code.decode_batch(np.zeros((1, 100)))
        with pytest.raises(ValueError):
            code.decode_batch(np.zeros(code.n))
        with pytest.raises(ValueError):
            code.decode_batch(np.zeros((1, code.n)), max_iterations=0)
        # a NaN would otherwise pass the stopping test as if satisfied:
        # one among clean LLRs "converged" with thousands of bit errors
        llr = np.full((3, code.n), 4.0)
        llr[2, 123] = np.nan
        with pytest.raises(ValueError, match="row 2"):
            code.decode_batch(llr)
        with pytest.raises(ValueError, match="row 0"):
            code.decode_batch(np.full((1, code.n), np.nan))

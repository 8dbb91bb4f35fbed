import numpy as np
import pytest

from secpon import fec_ldpc, framing, theory


def _noisy_llrs(rng, code, infos, snr_db):
    nvar = 10 ** (-snr_db / 10)
    llr = np.empty((infos.shape[0], code.n))
    for i, info in enumerate(infos):
        sym = framing.map_payload_16qam(code.encode(info))
        noise = (rng.standard_normal(sym.size) + 1j * rng.standard_normal(sym.size)) \
            * np.sqrt(nvar / 2)
        llr[i] = framing.payload_llrs_16qam(sym + noise, nvar)
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

    def test_rejects_empty_row(self):
        with pytest.raises(ValueError):
            fec_ldpc.LdpcCode(n=4, m=2,
                              check_of_edge=np.array([0, 0]),
                              var_of_edge=np.array([0, 1]))


class TestEncoder:
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

    def test_generic_solver_matches_staircase(self):
        fast = fec_ldpc.default_code()
        slow = fec_ldpc.LdpcCode(n=fast.n, m=fast.m,
                                 check_of_edge=fast.check_of_edge.copy(),
                                 var_of_edge=fast.var_of_edge.copy())
        rng = np.random.default_rng(3)
        for _ in range(3):
            info = rng.integers(0, 2, fast.k).astype(np.uint8)
            assert np.array_equal(fast.encode(info), slow.encode(info))


class TestSmallCodeSanity:
    def hamming(self):
        # (7,4) single-error-correcting code, identity on the parity columns
        rows = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
        cols = [0, 1, 2, 4, 0, 1, 3, 5, 0, 2, 3, 6]
        return fec_ldpc.LdpcCode(n=7, m=3, check_of_edge=np.array(rows),
                                 var_of_edge=np.array(cols))

    def test_hamming_roundtrip_all_codewords(self):
        code = self.hamming()
        for val in range(16):
            info = np.array([(val >> i) & 1 for i in range(4)], dtype=np.uint8)
            cw = code.encode(info)
            assert code.syndrome_weight(cw) == 0
            llr = 4.0 * (1.0 - 2.0 * cw.astype(float))
            bits, _, ok = code.decode_batch(llr[None, :], 20)
            assert ok[0] and np.array_equal(bits[0, :4], info)

    def test_hamming_corrects_unreliable_position(self):
        # one position flipped at low confidence: belief propagation must
        # pull it back from the other checks, wherever it sits
        code = self.hamming()
        for val in range(16):
            info = np.array([(val >> i) & 1 for i in range(4)], dtype=np.uint8)
            cw = code.encode(info)
            for flip in range(7):
                llr = 4.0 * (1.0 - 2.0 * cw.astype(float))
                llr[flip] = -0.25 * llr[flip]
                bits, _, ok = code.decode_batch(llr[None, :], 20)
                assert ok[0]
                assert np.array_equal(bits[0, :4], info), (val, flip)


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

"""High-rate LDPC coding for the 16QAM payload.

The shipped (17280, 14592) code is quasi-cyclic: a 56 x 360 protograph
with lifting factor 48, an accumulator (staircase) parity part, and
irregular information-column degrees placed by progressive edge growth
with circulant shifts chosen to avoid length-4 cycles.  Construction is
deterministic for a given seed, so every build of the package decodes
the waterfall tests identically.

The code is built in every process on the first call to
``default_code()``: the PEG breadth-first search and the shift search
work on Python-int bitmasks (checks sharing a column, and per check pair
the shift differences already taken), and the lifted matrix is pinned
by its sha256 in ``tests/test_fec_ldpc.py``.

Encoding is systematic and needs no matrix inverse: the parity part is
lower-triangular with a unit diagonal, so each parity bit is the running
XOR of the information syndrome down its staircase chain of checks.

Decoding is layered sum-product in the log domain (Hocevar, SiPS 2004;
Mansour and Shanbhag, IEEE TVLSI 2003): the checks are split once into
layers of consecutive checks that share no variable, 56 base rows of 48
checks for the shipped code, and each layer updates the posteriors
before the next one reads them, so a codeword needs about half the
iterations of a flooding schedule.  Nothing is clipped: the check
kernel floors its input magnitudes at 1e-12, which bounds every check
message by phi(1e-12) ~ 28.3, and clipping the kernel's input leaves
codewords with large channel LLRs stuck short of convergence (the tests
pin one such row).  After every iteration the syndrome of the posterior
signs is tested, and each codeword that satisfies it leaves the batch
with its hard bits, so a batch costs the iterations of its codewords,
not those of its slowest one.

The decoder keeps the codewords on the last axis: the posteriors are
(n, batch) and each layer holds its variables as (degree, checks), so
every layer array is (degree, checks, batch).  A check's phi-sum and
sign product over its variables are then degree - 1 elementwise
operations over checks x batch contiguous values, and the gather and
scatter move whole rows of batch values.  The phi-sum runs in numpy's
pairwise summation order, written out in ``_pairwise_sum``, so the
bits are those of a kernel that sums each check along a contiguous
last axis; the tests keep that kernel as the reference.

One parity routine serves the encoder, ``syndrome_weight`` and that
stopping test.  It packs up to eight words into each byte, one bit lane
per word, so one gather of a byte per edge and one XOR reduction per
check give the parity of eight words at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

LDPC_N = 17280
LDPC_K = 14592
DEFAULT_MAX_ITERATIONS = 50

_LIFT = 48
_BASE_ROWS = (LDPC_N - LDPC_K) // _LIFT          # 56
_BASE_COLS = LDPC_N // _LIFT                     # 360
_BASE_INFO_COLS = _BASE_COLS - _BASE_ROWS        # 304
_CONSTRUCTION_SEED = 20240811
# information-column degree mix (counts must sum to the info columns);
# a small high-degree population buys waterfall steepness
_INFO_DEGREES = ((3, 244), (4, 30), (10, 30))


@dataclass
class LdpcCode:
    """Parity-check matrix in edge-list form plus encode/decode machinery."""

    n: int
    m: int
    check_of_edge: np.ndarray       # edge -> check index, sorted by check
    var_of_edge: np.ndarray         # edge -> variable index (same edge order)

    def __post_init__(self) -> None:
        self.k = self.n - self.m
        order = np.lexsort((self.var_of_edge, self.check_of_edge))
        self.check_of_edge = np.ascontiguousarray(self.check_of_edge[order])
        self.var_of_edge = np.ascontiguousarray(self.var_of_edge[order])
        counts = np.bincount(self.check_of_edge, minlength=self.m)
        if np.any(counts == 0):
            raise ValueError("parity-check matrix has an empty row")
        self._check_starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
        if np.any(np.bincount(self.var_of_edge, minlength=self.n) == 0):
            raise ValueError("parity-check matrix has an empty column")
        self._layers = self._build_layers(counts)

    def _build_layers(self, counts: np.ndarray) -> list[tuple[int, int, np.ndarray]]:
        """Split the checks into runs of consecutive checks of equal degree
        that share no variable, as (first edge, end edge, variables) with
        the variables shaped (degree, checks).

        Within a layer every variable takes at most one message, so the
        layer updates its checks at once.  For the quasi-cyclic code each
        layer is one base row of lifted checks.
        """
        # latest earlier check sharing a variable with each check (-1: none)
        by_var = np.lexsort((self.check_of_edge, self.var_of_edge))
        same = np.diff(self.var_of_edge[by_var]) == 0
        earlier = np.full(self.var_of_edge.size, -1)
        earlier[by_var[1:][same]] = self.check_of_edge[by_var[:-1][same]]
        conflict = np.maximum.reduceat(earlier, self._check_starts).tolist()
        degree = counts.tolist()
        firsts = [0]
        for c in range(1, self.m):
            if degree[c] != degree[firsts[-1]] or conflict[c] >= firsts[-1]:
                firsts.append(c)
        edge_at = np.append(self._check_starts, self.var_of_edge.size)
        return [(int(edge_at[c0]), int(edge_at[c1]),
                 np.ascontiguousarray(self.var_of_edge[edge_at[c0]:edge_at[c1]]
                                      .reshape(c1 - c0, degree[c0]).T))
                for c0, c1 in zip(firsts, firsts[1:] + [self.m])]

    @property
    def rate(self) -> float:
        return self.k / self.n

    # -- encoding ------------------------------------------------------

    def encode(self, info: np.ndarray) -> np.ndarray:
        """Systematic encoding: codeword is info bits followed by parity.

        The parity part must be the block staircase of the shipped code:
        parity bit j enters check j and, below the last block of 48, check
        j + 48, and no other check.
        """
        info = np.asarray(info)
        if info.size != self.k:
            raise ValueError(f"expected {self.k} information bits, got {info.size}")
        if not np.all((info == 0) | (info == 1)):
            raise ValueError("information bits must be 0 or 1")
        info = info.astype(np.uint8)
        s = self._syndrome(np.concatenate([info, np.zeros(self.m, dtype=np.uint8)]))
        # staircase: parity block i closes check block i given block i-1,
        # one independent chain per position within the lifted block
        blocks = s.reshape(-1, _LIFT)
        parity = np.bitwise_xor.accumulate(blocks, axis=0).ravel().astype(np.uint8)
        out = np.concatenate([info, parity])
        assert not self.syndrome_weight(out)
        return out

    def syndrome_weight(self, bits: np.ndarray) -> int:
        """Number of unsatisfied checks (0 means a valid codeword)."""
        return int(np.sum(self._syndrome(bits)))

    def _syndrome(self, bits: np.ndarray) -> np.ndarray:
        """Parity of each check over (..., n) integer or boolean bits, as
        uint8 shaped (..., m); only each bit's lowest bit counts.

        Words are packed eight to a byte, word j of a group in bit j, so
        one gather and one XOR reduction per check serve eight words.
        """
        bits = np.asarray(bits)
        words = bits.reshape(-1, self.n)
        w = words.shape[0]
        lanes = np.zeros((-(-w // 8), 8, self.n), dtype=np.uint8)
        lanes.reshape(-1, self.n)[:w] = words      # unsafe cast keeps the lowest bit
        lanes &= 1
        lanes <<= np.arange(8, dtype=np.uint8)[:, None]
        packed = np.bitwise_or.reduce(lanes, axis=1)
        parity = np.bitwise_xor.reduceat(np.take(packed, self.var_of_edge, axis=1),
                                         self._check_starts, axis=1)
        s = np.unpackbits(parity[:, None, :], axis=1, bitorder="little")
        return s.reshape(-1, self.m)[:w].reshape(*bits.shape[:-1], self.m)

    # -- decoding ------------------------------------------------------

    def decode_batch(self, llrs: np.ndarray,
                     max_iterations: int = DEFAULT_MAX_ITERATIONS
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Layered sum-product decode of a (batch, n) LLR array; positive
        LLR favors bit 0.  A codeword stops iterating once its syndrome is
        zero.  Raises ``ValueError`` for a row holding a NaN.

        Returns (hard bits, iterations used, converged flags), one row or
        entry per codeword.
        """
        llrs = np.asarray(llrs, dtype=np.float64)
        if llrs.ndim != 2 or llrs.shape[1] != self.n:
            raise ValueError(f"expected (batch, {self.n}) LLRs, got shape {llrs.shape}")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        nan_rows = np.flatnonzero(np.isnan(llrs).any(axis=1))
        if nan_rows.size:
            raise ValueError(f"LLR row {nan_rows[0]} holds NaN")
        b = llrs.shape[0]
        hard = np.zeros((b, self.n), dtype=np.uint8)
        iters = np.full(b, max_iterations, dtype=np.int64)
        done = np.zeros(b, dtype=bool)
        # codewords are the last axis, so a check's reduction over its
        # variables is elementwise over (checks, codewords) rows, and
        # converged codewords leave the active columns
        active = np.arange(b)
        post = llrs.T.copy()
        msg = np.zeros((self.var_of_edge.size, b))     # check-to-variable
        size = max(v.size for _, _, v in self._layers) * b
        q_buf, a_buf, s_buf = np.empty(size), np.empty(size), np.empty(size)
        for it in range(max_iterations):
            nb = active.size
            for e0, e1, v in self._layers:
                shape = (*v.shape, nb)
                r = msg[e0:e1].reshape(shape)
                # in-range indices; "clip" lets take write straight into out
                q = np.take(post, v, axis=0, out=q_buf[:r.size].reshape(shape), mode="clip")
                q -= r
                # phi(x) = -log(tanh(x/2)) with both negations folded into
                # the sign: a holds -phi of each input magnitude, then
                # -phi of the other inputs' phi-sum (negated terms sum to
                # the negated sum, bit for bit); the 1e-12 floors bound
                # |r| by phi(1e-12) ~ 28.3
                a = np.abs(q, out=a_buf[:r.size].reshape(shape))
                np.maximum(a, 1e-12, out=a)
                a *= 0.5
                np.tanh(a, out=a)
                np.log(a, out=a)
                np.subtract(a, _pairwise_sum(a), out=a)
                np.maximum(a, 1e-12, out=a)
                a *= 0.5
                np.tanh(a, out=a)
                np.log(a, out=a)
                # r = phi(others) x the other inputs' sign product
                #   = a x -(own sign x the check's whole sign product)
                sign = np.copysign(1.0, q, out=s_buf[:r.size].reshape(shape))
                sign *= np.negative(np.multiply.reduce(sign, axis=0))
                np.multiply(a, sign, out=r)
                q += r
                post[v] = q
            conv = ~np.any(self._syndrome((post < 0).T), axis=1)
            if np.any(conv):
                rows = active[conv]
                hard[rows] = post[:, conv].T < 0
                iters[rows] = it + 1
                done[rows] = True
                keep = np.flatnonzero(~conv)
                active = active[keep]
                post, msg = np.take(post, keep, axis=1), np.take(msg, keep, axis=1)
            if active.size == 0:
                break
        hard[active] = post.T < 0
        return hard, iters, done


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in the order of numpy's pairwise summation, so the
    result is bit for bit ``np.add.reduce`` of each column laid out along
    a contiguous last axis.

    Below 8 terms the sum runs in sequence; up to 128, eight running
    accumulators take every eighth term, their tree sum
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) follows and the
    remainder is added in sequence; above 128 the terms split at half
    their count rounded down to a multiple of 8, and each half is summed
    the same way.  The +0.0 start is numpy's: it turns a -0.0 sum into
    +0.0.
    """
    n = a.shape[0]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])
    if n < 8:
        out = a[0] + 0.0
        for x in a[1:]:
            out += x
        return out
    r = a[:8] + 0.0
    tail = n - n % 8
    for i in range(8, tail, 8):
        r += a[i:i + 8]
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    out = r[0] + r[1]
    for x in a[tail:]:
        out += x
    return out


def _peg_base_graph(rng: np.random.Generator) -> list[tuple[int, int]]:
    """Progressive-edge-growth placement of info edges on the protograph.

    Checks are bits of Python-int masks: ``var_checks[j]`` holds column
    j's checks and ``check_nbrs[c]`` every check sharing a column with c,
    so one breadth-first level from column j is the OR of its frontier's
    neighbour masks less the checks already reached.
    """
    m = _BASE_ROWS
    degrees = []
    for deg, count in _INFO_DEGREES:
        degrees += [deg] * count
    assert len(degrees) == _BASE_INFO_COLS
    all_checks = (1 << m) - 1
    bit_index = np.arange(m)
    check_nbrs = [0] * m
    var_checks = [0] * _BASE_INFO_COLS
    check_load = np.zeros(m, dtype=int)
    edges: list[tuple[int, int]] = []
    # process highest-degree columns first; they are hardest to place well
    col_order = sorted(range(_BASE_INFO_COLS), key=lambda j: -degrees[j])
    for j in col_order:
        placed: list[int] = []
        for _ in range(degrees[j]):
            reached = level = last = var_checks[j]
            while level:
                last, nxt = level, 0
                while level:
                    low = level & -level
                    nxt |= check_nbrs[low.bit_length() - 1]
                    level ^= low
                level = nxt & ~reached
                reached |= level
            # the unreached checks if any, else the farthest level reached
            cand_mask = all_checks & ~reached or last
            cand = bit_index[(cand_mask >> bit_index) & 1 == 1]
            # among the girth-best checks prefer the lightest, break ties randomly
            lightest = cand[check_load[cand] == check_load[cand].min()]
            c = int(rng.choice(lightest))
            edges.append((c, j))
            placed.append(c)
            var_checks[j] |= 1 << c
            for c2 in placed:
                check_nbrs[c2] |= var_checks[j]
            check_load[c] += 1
    return edges


def _assign_shifts(edges: list[tuple[int, int]], rng: np.random.Generator) -> dict:
    """Circulant shifts per base edge, rejecting length-4 cycles.

    Two columns j, j2 sharing checks c and c2 close a 4-cycle iff their
    shift differences around the rectangle cancel mod Z, so
    ``diffs[c][c2]`` keeps, as bits of a Z-bit mask, the differences
    shift(c) - shift(c2) mod Z of every column placed so far that holds
    both checks.  Raises ``ValueError`` if no draw avoids a 4-cycle.
    """
    full = (1 << _LIFT) - 1
    diffs = [[0] * _BASE_ROWS for _ in range(_BASE_ROWS)]
    # the zero-shift staircase columns take part in rectangles too
    for p in range(_BASE_ROWS - 1):
        diffs[p][p + 1] |= 1
        diffs[p + 1][p] |= 1
    by_col: dict[int, dict[int, int]] = {}
    shifts: dict[tuple[int, int], int] = {}
    for c, j in edges:
        col = by_col.setdefault(j, {})
        forbidden = 0
        for c2, s2 in col.items():
            d = diffs[c][c2]
            forbidden |= ((d << s2) | (d >> (_LIFT - s2))) & full
        for _ in range(200):
            s = int(rng.integers(0, _LIFT))
            if not forbidden >> s & 1:
                break
        else:
            raise ValueError(f"no circulant shift for base edge (check {c}, "
                             f"column {j}) avoids a length-4 cycle")
        for c2, s2 in col.items():
            diffs[c][c2] |= 1 << (s - s2) % _LIFT
            diffs[c2][c] |= 1 << (s2 - s) % _LIFT
        col[c] = s
        shifts[(c, j)] = s
    return shifts


@lru_cache(maxsize=1)
def default_code() -> LdpcCode:
    """The shipped (17280, 14592) quasi-cyclic code, built deterministically."""
    rng = np.random.Generator(np.random.Philox(_CONSTRUCTION_SEED))
    base_edges = _peg_base_graph(rng)
    shifts = _assign_shifts(base_edges, rng)
    rows = []
    cols = []
    r = np.arange(_LIFT)
    for (c, j) in base_edges:
        s = shifts[(c, j)]
        rows.append(c * _LIFT + r)
        cols.append(j * _LIFT + (r + s) % _LIFT)
    # accumulator on the parity columns: column p connects checks p and p+1
    for p in range(_BASE_ROWS):
        j = _BASE_INFO_COLS + p
        rows.append(p * _LIFT + r)
        cols.append(j * _LIFT + r)
        if p + 1 < _BASE_ROWS:
            rows.append((p + 1) * _LIFT + r)
            cols.append(j * _LIFT + r)
    return LdpcCode(n=LDPC_N, m=LDPC_N - LDPC_K,
                    check_of_edge=np.concatenate(rows), var_of_edge=np.concatenate(cols))


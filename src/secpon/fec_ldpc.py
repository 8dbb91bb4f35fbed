"""High-rate LDPC coding for the 16QAM payload.

The shipped (17280, 14592) code is quasi-cyclic: a 56 x 360 protograph
with lifting factor 48, an accumulator (staircase) parity part, and
irregular information-column degrees placed by progressive edge growth
with circulant shifts chosen to avoid length-4 cycles.  Construction is
deterministic for a given seed, so every build of the package decodes
the waterfall tests identically.

Decoding is flooding sum-product in the log domain with message clipping
and syndrome-based early termination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

LDPC_N = 17280
LDPC_K = 14592
LLR_CLIP = 30.0
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
    accumulator_lift: int | None = None  # staircase parity with this lift factor

    def __post_init__(self) -> None:
        self.k = self.n - self.m
        order = np.lexsort((self.var_of_edge, self.check_of_edge))
        self.check_of_edge = np.ascontiguousarray(self.check_of_edge[order])
        self.var_of_edge = np.ascontiguousarray(self.var_of_edge[order])
        counts = np.bincount(self.check_of_edge, minlength=self.m)
        if np.any(counts == 0):
            raise ValueError("parity-check matrix has an empty row")
        self._check_starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
        self._by_var = np.argsort(self.var_of_edge, kind="stable")
        var_counts = np.bincount(self.var_of_edge, minlength=self.n)
        if np.any(var_counts == 0):
            raise ValueError("parity-check matrix has an empty column")
        self._var_starts = np.concatenate(([0], np.cumsum(var_counts)))[:-1]
        self._solver = None

    @property
    def rate(self) -> float:
        return self.k / self.n

    # -- encoding ------------------------------------------------------

    def _info_syndrome(self, info: np.ndarray) -> np.ndarray:
        """Per-check XOR of the information bits (parity columns excluded)."""
        mask = self.var_of_edge < self.k
        contrib = np.zeros(len(self.var_of_edge), dtype=np.int64)
        contrib[mask] = info[self.var_of_edge[mask]]
        return np.bitwise_and(np.add.reduceat(contrib, self._check_starts), 1)

    def encode(self, info: np.ndarray) -> np.ndarray:
        """Systematic encoding: codeword is info bits followed by parity."""
        info = np.asarray(info).astype(np.uint8)
        if info.size != self.k:
            raise ValueError(f"expected {self.k} information bits, got {info.size}")
        if self.accumulator_lift:
            s = self._info_syndrome(info.astype(np.int64))
            # staircase: parity block i closes check block i given block i-1,
            # one independent chain per position within the lifted block
            blocks = s.reshape(-1, self.accumulator_lift)
            parity = np.bitwise_xor.accumulate(blocks, axis=0).ravel().astype(np.uint8)
        else:
            if self._solver is None:
                self._solver = _GenericParitySolver(self)
            parity = self._solver.solve(info)
        out = np.concatenate([info, parity])
        assert not self.syndrome_weight(out)
        return out

    def syndrome_weight(self, bits: np.ndarray) -> int:
        """Number of unsatisfied checks (0 means a valid codeword)."""
        bits = np.asarray(bits).astype(np.int64)
        s = np.add.reduceat(bits[self.var_of_edge], self._check_starts) & 1
        return int(np.sum(s))

    # -- decoding ------------------------------------------------------

    def decode_batch(self, llrs: np.ndarray,
                     max_iterations: int = DEFAULT_MAX_ITERATIONS
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sum-product decode a (batch, n) LLR array in lockstep; positive
        LLR favors bit 0.

        Returns (hard bits, iterations used, converged flags), one row or
        entry per codeword.
        """
        llrs = np.asarray(llrs, dtype=np.float64)
        if llrs.ndim != 2 or llrs.shape[1] != self.n:
            raise ValueError(f"expected (batch, {self.n}) LLRs, got shape {llrs.shape}")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        b = llrs.shape[0]
        ch = np.clip(llrs, -LLR_CLIP, LLR_CLIP)
        cidx = self.check_of_edge
        vidx = self.var_of_edge
        cstarts = self._check_starts
        vstarts = self._var_starts
        byv = self._by_var
        m_vc = ch[:, vidx]
        hard = np.zeros((b, self.n), dtype=np.uint8)
        iters = np.full(b, max_iterations, dtype=np.int64)
        done = np.zeros(b, dtype=bool)
        posterior = ch.copy()
        for it in range(max_iterations):
            # check update: sign product and phi-domain magnitude sum
            neg = m_vc < 0
            mag = np.maximum(np.abs(m_vc), 1e-12)
            phi = _phi(mag)
            phi_sum = np.add.reduceat(phi, cstarts, axis=1)[:, cidx] - phi
            negsum = np.add.reduceat(neg.astype(np.int8), cstarts, axis=1)[:, cidx] \
                - neg.astype(np.int8)
            sign = 1.0 - 2.0 * (negsum & 1)
            m_cv = np.clip(sign * _phi(np.maximum(phi_sum, 1e-12)), -LLR_CLIP, LLR_CLIP)
            # variable update
            tot = np.add.reduceat(m_cv[:, byv], vstarts, axis=1)
            posterior = ch + tot
            m_vc = np.clip(posterior[:, vidx] - m_cv, -LLR_CLIP, LLR_CLIP)
            hard_now = (posterior < 0).astype(np.uint8)
            syn = np.add.reduceat(hard_now[:, vidx], cstarts, axis=1) & 1
            conv = ~np.any(syn, axis=1)
            newly = conv & ~done
            if np.any(newly):
                hard[newly] = hard_now[newly]
                iters[newly] = it + 1
                done |= conv
            if np.all(done):
                break
        hard[~done] = (posterior[~done] < 0).astype(np.uint8)
        return hard, iters, done


def _phi(x: np.ndarray) -> np.ndarray:
    """Self-inverse check-node kernel -log(tanh(x/2)) for x > 0."""
    return -np.log(np.tanh(0.5 * x))


class _GenericParitySolver:
    """Gauss-elimination parity solver for codes without helper structure."""

    def __init__(self, code: LdpcCode) -> None:
        n, m, k = code.n, code.m, code.k
        words = (n + 63) // 64
        rows = np.zeros((m, words), dtype=np.uint64)
        e_r = code.check_of_edge
        e_c = code.var_of_edge
        np.bitwise_xor.at(rows, (e_r, e_c // 64), np.uint64(1) << (e_c % 64).astype(np.uint64))
        # eliminate on parity columns first so pivots land there
        piv_rows: list[int] = []
        piv_cols: list[int] = []
        r = 0
        for c in list(range(k, n)) + list(range(k)):
            w, b = c // 64, np.uint64(1) << np.uint64(c % 64)
            cand = np.nonzero(rows[r:, w] & b)[0]
            if cand.size == 0:
                continue
            p = r + cand[0]
            rows[[r, p]] = rows[[p, r]]
            hit = np.nonzero(rows[:, w] & b)[0]
            hit = hit[hit != r]
            rows[hit] ^= rows[r]
            piv_rows.append(r)
            piv_cols.append(c)
            r += 1
            if r == m:
                break
        if len(piv_cols) != m or any(c < k for c in piv_cols):
            raise ValueError("parity-check matrix is rank-deficient on parity columns")
        self._pivot_cols = np.array(piv_cols) - k
        mat = np.zeros((m, k), dtype=np.uint8)
        for i in range(m):
            unpacked = np.unpackbits(rows[i].view(np.uint8), bitorder="little")[:n]
            mat[i] = unpacked[:k]
        self._mat = np.packbits(mat, axis=1)
        self._k = k

    def solve(self, info: np.ndarray) -> np.ndarray:
        info_p = np.packbits(info.astype(np.uint8))
        acc = np.bitwise_and(self._mat, info_p[None, :])
        # parity of popcount per row
        bits = np.unpackbits(acc, axis=1)
        vals = np.bitwise_and(np.sum(bits, axis=1), 1).astype(np.uint8)
        parity = np.zeros(len(vals), dtype=np.uint8)
        parity[self._pivot_cols] = vals
        return parity


def _peg_base_graph(rng: np.random.Generator) -> list[tuple[int, int]]:
    """Progressive-edge-growth placement of info edges on the protograph."""
    m = _BASE_ROWS
    degrees = []
    for deg, count in _INFO_DEGREES:
        degrees += [deg] * count
    assert len(degrees) == _BASE_INFO_COLS
    adj_check: list[set[int]] = [set() for _ in range(m)]   # check -> vars
    adj_var: list[set[int]] = [set() for _ in range(_BASE_INFO_COLS)]
    check_load = np.zeros(m, dtype=int)
    edges: list[tuple[int, int]] = []
    # process highest-degree columns first; they are hardest to place well
    col_order = sorted(range(_BASE_INFO_COLS), key=lambda j: -degrees[j])
    for j in col_order:
        for _ in range(degrees[j]):
            dist = _bfs_check_distances(j, adj_var, adj_check)
            unreached = dist < 0
            if np.any(unreached):
                cand = np.nonzero(unreached)[0]
            else:
                cand = np.nonzero(dist == dist.max())[0]
            # among the girth-best checks prefer the lightest, break ties randomly
            lightest = cand[check_load[cand] == check_load[cand].min()]
            c = int(rng.choice(lightest))
            edges.append((c, j))
            adj_check[c].add(j)
            adj_var[j].add(c)
            check_load[c] += 1
    return edges


def _bfs_check_distances(var: int, adj_var: list[set[int]],
                         adj_check: list[set[int]]) -> np.ndarray:
    """Distance from a variable node to every check; -1 when unreachable."""
    m = len(adj_check)
    dist = np.full(m, -1, dtype=int)
    frontier_checks = set(adj_var[var])
    for c in frontier_checks:
        dist[c] = 0
    seen_vars = {var}
    d = 0
    while frontier_checks:
        next_vars = set()
        for c in frontier_checks:
            next_vars |= adj_check[c] - seen_vars
        seen_vars |= next_vars
        next_checks = set()
        for v in next_vars:
            next_checks |= {c for c in adj_var[v] if dist[c] < 0}
        d += 1
        for c in next_checks:
            dist[c] = d
        frontier_checks = next_checks
    return dist


def _assign_shifts(edges: list[tuple[int, int]], rng: np.random.Generator) -> dict:
    """Circulant shifts per base edge, rejecting length-4 cycles."""
    by_col: dict[int, dict[int, int]] = {}
    # the zero-shift staircase columns take part in rectangles too
    for p in range(_BASE_ROWS):
        col = {p: 0}
        if p + 1 < _BASE_ROWS:
            col[p + 1] = 0
        by_col[_BASE_INFO_COLS + p] = col
    shifts: dict[tuple[int, int], int] = {}
    for c, j in edges:
        col = by_col.setdefault(j, {})
        for _ in range(200):
            s = int(rng.integers(0, _LIFT))
            ok = True
            for c2, s2 in col.items():
                # another column sharing checks c and c2 closes a 4-cycle iff
                # the shift differences around the rectangle cancel mod Z
                for j2, col2 in by_col.items():
                    if j2 == j or c not in col2 or c2 not in col2:
                        continue
                    if (s - s2 - col2[c] + col2[c2]) % _LIFT == 0:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                break
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
    code = LdpcCode(
        n=LDPC_N, m=LDPC_N - LDPC_K,
        check_of_edge=np.concatenate(rows), var_of_edge=np.concatenate(cols),
        accumulator_lift=_LIFT,
    )
    return code


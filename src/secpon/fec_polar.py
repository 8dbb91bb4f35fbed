"""(512, 256) polar coding with an 11-bit CRC for the key channel.

Encoding is the Arikan butterfly in natural bit order; the frozen set
comes from the standardized universal reliability sequence restricted
to the block length.  Decoding is successive-cancellation list in the
LLR domain with min-sum node updates; the CRC, a GF(2) matrix built
from its polynomial, is the encoder's and picks the winner among the
surviving paths.  A prune moves no decoder state: it composes a small
path map per state array, and the array is gathered once, through its
map, when it is next read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

POLAR_N = 512
POLAR_K = 256
CRC_BITS = 11
# x^11 + x^10 + x^9 + x^5 + 1, most significant coefficient first
CRC11_POLY = (1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1)
DEFAULT_LIST_SIZE = 8

# Universal reliability order for block lengths up to 1024, least
# reliable position first.  The order for any smaller power-of-two
# block is the subsequence of positions below that block length.
RELIABILITY_1024 = np.array([
    0, 1, 2, 4, 8, 16, 32, 3, 5, 64, 9, 6,
    17, 10, 18, 128, 12, 33, 65, 20, 256, 34, 24, 36,
    7, 129, 66, 512, 11, 40, 68, 130, 19, 13, 48, 14,
    72, 257, 21, 132, 35, 258, 26, 513, 80, 37, 25, 22,
    136, 260, 264, 38, 514, 96, 67, 41, 144, 28, 69, 42,
    516, 49, 74, 272, 160, 520, 288, 528, 192, 544, 70, 44,
    131, 81, 50, 73, 15, 320, 133, 52, 23, 134, 384, 76,
    137, 82, 56, 27, 97, 39, 259, 84, 138, 145, 261, 29,
    43, 98, 515, 88, 140, 30, 146, 71, 262, 265, 161, 576,
    45, 100, 640, 51, 148, 46, 75, 266, 273, 517, 104, 162,
    53, 193, 152, 77, 164, 768, 268, 274, 518, 54, 83, 57,
    521, 112, 135, 78, 289, 194, 85, 276, 522, 58, 168, 139,
    99, 86, 60, 280, 89, 290, 529, 524, 196, 141, 101, 147,
    176, 142, 530, 321, 31, 200, 90, 545, 292, 322, 532, 263,
    149, 102, 105, 304, 296, 163, 92, 47, 267, 385, 546, 324,
    208, 386, 150, 153, 165, 106, 55, 328, 536, 577, 548, 113,
    154, 79, 269, 108, 578, 224, 166, 519, 552, 195, 270, 641,
    523, 275, 580, 291, 59, 169, 560, 114, 277, 156, 87, 197,
    116, 170, 61, 531, 525, 642, 281, 278, 526, 177, 293, 388,
    91, 584, 769, 198, 172, 120, 201, 336, 62, 282, 143, 103,
    178, 294, 93, 644, 202, 592, 323, 392, 297, 770, 107, 180,
    151, 209, 284, 648, 94, 204, 298, 400, 608, 352, 325, 533,
    155, 210, 305, 547, 300, 109, 184, 534, 537, 115, 167, 225,
    326, 306, 772, 157, 656, 329, 110, 117, 212, 171, 776, 330,
    226, 549, 538, 387, 308, 216, 416, 271, 279, 158, 337, 550,
    672, 118, 332, 579, 540, 389, 173, 121, 553, 199, 784, 179,
    228, 338, 312, 704, 390, 174, 554, 581, 393, 283, 122, 448,
    353, 561, 203, 63, 340, 394, 527, 582, 556, 181, 295, 285,
    232, 124, 205, 182, 643, 562, 286, 585, 299, 354, 211, 401,
    185, 396, 344, 586, 645, 593, 535, 240, 206, 95, 327, 564,
    800, 402, 356, 307, 301, 417, 213, 568, 832, 588, 186, 646,
    404, 227, 896, 594, 418, 302, 649, 771, 360, 539, 111, 331,
    214, 309, 188, 449, 217, 408, 609, 596, 551, 650, 229, 159,
    420, 310, 541, 773, 610, 657, 333, 119, 600, 339, 218, 368,
    652, 230, 391, 313, 450, 542, 334, 233, 555, 774, 175, 123,
    658, 612, 341, 777, 220, 314, 424, 395, 673, 583, 355, 287,
    183, 234, 125, 557, 660, 616, 342, 316, 241, 778, 563, 345,
    452, 397, 403, 207, 674, 558, 785, 432, 357, 187, 236, 664,
    624, 587, 780, 705, 126, 242, 565, 398, 346, 456, 358, 405,
    303, 569, 244, 595, 189, 566, 676, 361, 706, 589, 215, 786,
    647, 348, 419, 406, 464, 680, 801, 362, 590, 409, 570, 788,
    597, 572, 219, 311, 708, 598, 601, 651, 421, 792, 802, 611,
    602, 410, 231, 688, 653, 248, 369, 190, 364, 654, 659, 335,
    480, 315, 221, 370, 613, 422, 425, 451, 614, 543, 235, 412,
    343, 372, 775, 317, 222, 426, 453, 237, 559, 833, 804, 712,
    834, 661, 808, 779, 617, 604, 433, 720, 816, 836, 347, 897,
    243, 662, 454, 318, 675, 618, 898, 781, 376, 428, 665, 736,
    567, 840, 625, 238, 359, 457, 399, 787, 591, 678, 434, 677,
    349, 245, 458, 666, 620, 363, 127, 191, 782, 407, 436, 626,
    571, 465, 681, 246, 707, 350, 599, 668, 790, 460, 249, 682,
    573, 411, 803, 789, 709, 365, 440, 628, 689, 374, 423, 466,
    793, 250, 371, 481, 574, 413, 603, 366, 468, 655, 900, 805,
    615, 684, 710, 429, 794, 252, 373, 605, 848, 690, 713, 632,
    482, 806, 427, 904, 414, 223, 663, 692, 835, 619, 472, 455,
    796, 809, 714, 721, 837, 716, 864, 810, 606, 912, 722, 696,
    377, 435, 817, 319, 621, 812, 484, 430, 838, 667, 488, 239,
    378, 459, 622, 627, 437, 380, 818, 461, 496, 669, 679, 724,
    841, 629, 351, 467, 438, 737, 251, 462, 442, 441, 469, 247,
    683, 842, 738, 899, 670, 783, 849, 820, 728, 928, 791, 367,
    901, 630, 685, 844, 633, 711, 253, 691, 824, 902, 686, 740,
    850, 375, 444, 470, 483, 415, 485, 905, 795, 473, 634, 744,
    852, 960, 865, 693, 797, 906, 715, 807, 474, 636, 694, 254,
    717, 575, 913, 798, 811, 379, 697, 431, 607, 489, 866, 723,
    486, 908, 718, 813, 476, 856, 839, 725, 698, 914, 752, 868,
    819, 814, 439, 929, 490, 623, 671, 739, 916, 463, 843, 381,
    497, 930, 821, 726, 961, 872, 492, 631, 729, 700, 443, 741,
    845, 920, 382, 822, 851, 730, 498, 880, 742, 445, 471, 635,
    932, 687, 903, 825, 500, 846, 745, 826, 732, 446, 962, 936,
    475, 853, 867, 637, 907, 487, 695, 746, 828, 753, 854, 857,
    504, 799, 255, 964, 909, 719, 477, 915, 638, 748, 944, 869,
    491, 699, 754, 858, 478, 968, 383, 910, 815, 976, 870, 917,
    727, 493, 873, 701, 931, 756, 860, 499, 731, 823, 922, 874,
    918, 502, 933, 743, 760, 881, 494, 702, 921, 501, 876, 847,
    992, 447, 733, 827, 934, 882, 937, 963, 747, 505, 855, 924,
    734, 829, 965, 938, 884, 506, 749, 945, 966, 755, 859, 940,
    830, 911, 871, 639, 888, 479, 946, 750, 969, 508, 861, 757,
    970, 919, 875, 862, 758, 948, 977, 923, 972, 761, 877, 952,
    495, 703, 935, 978, 883, 762, 503, 925, 878, 735, 993, 885,
    939, 994, 980, 926, 764, 941, 967, 886, 831, 947, 507, 889,
    984, 751, 942, 996, 971, 890, 509, 949, 973, 1000, 892, 950,
    863, 759, 1008, 510, 979, 953, 763, 974, 954, 879, 981, 982,
    927, 995, 765, 956, 887, 985, 997, 986, 943, 891, 998, 766,
    511, 988, 1001, 951, 1002, 893, 975, 894, 1009, 955, 1004, 1010,
    957, 983, 958, 987, 1012, 999, 1016, 767, 989, 1003, 990, 1005,
    959, 1011, 1013, 895, 1006, 1014, 1017, 1018, 991, 1020, 1007, 1015,
    1019, 1021, 1022, 1023,
], dtype=np.int64)


@dataclass(frozen=True)
class PolarCode:
    """Code description: block length, info length, list size.  The
    frozen set is the block's n - k least reliable positions, and the
    last ``CRC_BITS`` info bits are the CRC-11 of the payload."""

    block_length: int = POLAR_N
    info_length: int = POLAR_K
    list_size: int = DEFAULT_LIST_SIZE

    def __post_init__(self) -> None:
        n, k = self.block_length, self.info_length
        if n < 2 or n & (n - 1) or n > RELIABILITY_1024.size:
            raise ValueError("block length must be a power of two up to 1024")
        if not 0 < k < n:
            raise ValueError("info length must be inside (0, block length)")
        if self.list_size < 1:
            raise ValueError("list size must be positive")
        if k <= CRC_BITS:
            raise ValueError("no payload room under the CRC")

    @property
    def payload_capacity(self) -> int:
        return self.info_length - CRC_BITS

    @cached_property
    def frozen_mask(self) -> np.ndarray:
        n = self.block_length
        mask = np.zeros(n, dtype=bool)
        mask[RELIABILITY_1024[RELIABILITY_1024 < n][:n - self.info_length]] = True
        mask.flags.writeable = False
        return mask

    @cached_property
    def info_positions(self) -> np.ndarray:
        pos = np.flatnonzero(~self.frozen_mask)
        pos.flags.writeable = False
        return pos


POLAR = PolarCode()


@dataclass
class KeyCodeword:
    """One coded key-channel block: the polar-coded payload and its CRC."""

    coded_bits: np.ndarray

    @classmethod
    def from_payload(cls, payload: np.ndarray, code: PolarCode = POLAR) -> "KeyCodeword":
        payload = _bits(payload, code.payload_capacity, "payload bits")
        crc = _crc_matrix(payload.size) @ payload & 1  # parity survives uint8 wrap
        coded = polar_encode(np.concatenate([payload, crc]), code)
        return cls(coded_bits=coded)


def polar_transform(u: np.ndarray) -> np.ndarray:
    """Arikan butterfly over GF(2) in natural bit order."""
    x = np.array(u, dtype=np.uint8, order="C")
    n = x.shape[-1]
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    h = 1
    while h < n:
        pairs = x.reshape(*x.shape[:-1], n // (2 * h), 2, h)   # a view: x is C-ordered
        pairs[..., 0, :] ^= pairs[..., 1, :]
        h *= 2
    return x


def polar_encode(info: np.ndarray, code: PolarCode = POLAR) -> np.ndarray:
    """Place info+CRC bits on the reliable positions and transform."""
    info = _bits(info, code.info_length, "bits")
    u = np.zeros(code.block_length, dtype=np.uint8)
    u[code.info_positions] = info
    return polar_transform(u)


def polar_decode_scl(llrs: np.ndarray, code: PolarCode = POLAR
                     ) -> tuple[np.ndarray, np.ndarray]:
    """List-decode a (batch, block_length) LLR array, all blocks at once.

    Positive LLR means bit 0 is more likely.  Returns the (batch,
    payload_capacity) payloads of the most likely CRC-passing path per
    block, or of the best path where no survivor checks out, and the
    (batch,) CRC flags.  A block whose chosen payload and CRC are all
    zero, as a total erasure decodes, is flagged as failing.  This is
    the LLR-domain list decoder of Balatsoukas-Stimming, Bastani Parizi
    and Burg (IEEE TSP 2015).
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    n = code.block_length
    if llrs.ndim != 2 or llrs.shape[1] != n:
        raise ValueError(f"expected (batch, {n}) LLRs, got shape {llrs.shape}")
    u_all = _scl_paths(llrs, code)
    b = u_all.shape[0]
    info_pos = code.info_positions
    cand = u_all[:, :, info_pos]                       # (batch, list, K)
    mat = _crc_matrix(code.payload_capacity)
    rem = np.einsum("blk,ck->blc", cand[..., :-CRC_BITS], mat) & 1
    passes = np.all(rem == cand[..., -CRC_BITS:], axis=2)   # (batch, list)
    any_ok = np.any(passes, axis=1)
    chosen = np.where(any_ok, np.argmax(passes, axis=1), 0)  # paths are best-first
    word = cand[np.arange(b), chosen]
    # the all-zero word passes the zero-initialised CRC; it is what an erasure decodes to
    return word[:, :-CRC_BITS], any_ok & word.any(axis=1)


def _bits(values: np.ndarray, size: int, what: str) -> np.ndarray:
    """A uint8 copy of ``size`` values that must each be 0 or 1."""
    values = np.asarray(values)
    if values.size != size:
        raise ValueError(f"expected {size} {what}, got {values.size}")
    if not np.all((values == 0) | (values == 1)):
        raise ValueError(f"{what} must be 0 or 1")
    return values.astype(np.uint8)


@lru_cache(maxsize=8)
def _crc_matrix(length: int) -> np.ndarray:
    """The CRC as a (CRC_BITS, length) GF(2) matrix, highest degree
    first: column i is x^(CRC_BITS + length - 1 - i) mod ``CRC11_POLY``,
    the CRC of the message with only bit i set."""
    low = np.array(CRC11_POLY[1:], dtype=np.uint8)     # x^CRC_BITS mod the polynomial
    mat = np.empty((CRC_BITS, length), dtype=np.uint8)
    rem = low
    for i in reversed(range(length)):
        mat[:, i] = rem
        rem = np.append(rem[1:], 0) ^ rem[0] * low     # times x, reduced
    return mat


def _scl_paths(llrs: np.ndarray, code: PolarCode) -> np.ndarray:
    """Run list decoding; returns u-domain paths ordered best-first.

    Shape (batch, list, block_length).  State lives in per-level arrays:
    ``llr_lv[t]`` holds the LLRs of the depth-t node on the way to the
    current leaf and ``left_bits[t]`` the re-encoded bits of a finished
    left child at depth t.  A prune at leaf i moves no state: for each
    array that is read again it composes a (batch, list) path map, and
    the next read gathers the array once through its map (lazy copying,
    Tal and Vardy, IEEE Trans. Inf. Theory 2015).  The arrays read again
    are every ``left_bits`` entry, and ``llr_lv[t]`` while leaf i lies in
    the left child of its depth-t ancestor, which re-reads it for the
    right child.  Any other level is overwritten before its next read.
    A level whose path axis has length 1 is shared by every path (the
    channel LLRs, and the left spine down to the first leaf), so it
    needs no map and costs 1/list_size of the memory.  No u-domain state
    is kept: the root returns each path's codeword estimate, and the
    butterfly, its own inverse over GF(2), turns that back into u.
    """
    b, n = llrs.shape
    lsz = code.list_size
    stages = n.bit_length() - 1
    frozen_mask = code.frozen_mask

    pm = np.full((b, lsz), np.inf)
    pm[:, 0] = 0.0
    llr_lv: dict[int, np.ndarray] = {0: llrs[:, None, :]}
    left_bits: dict[int, np.ndarray] = {}
    # path maps: entry [r, p] is the stored path that path p of block r reads
    llr_map: dict[int, np.ndarray] = {}
    bits_map: dict[int, np.ndarray] = {}
    leaf = [0]
    rows = np.arange(b)[:, None]

    def prune(src: np.ndarray, i: int) -> None:
        for t in range(stages):
            if not (i >> (stages - 1 - t)) & 1 and llr_lv[t].shape[1] > 1:
                llr_map[t] = llr_map[t][rows, src] if t in llr_map else src
        for t in left_bits:
            bits_map[t] = bits_map[t][rows, src] if t in bits_map else src

    def current(state: np.ndarray, path_map: np.ndarray | None) -> np.ndarray:
        return state if path_map is None else state[rows, path_map]

    def visit(t: int) -> np.ndarray:
        nonlocal pm
        size = n >> t
        if size == 1:
            i = leaf[0]
            leaf[0] += 1
            alpha = llr_lv[t][..., 0]
            if frozen_mask[i]:
                pm = pm + np.where(alpha < 0, -alpha, 0.0)
                return np.zeros((b, lsz, 1), dtype=np.uint8)
            pm0 = pm + np.where(alpha < 0, -alpha, 0.0)
            pm1 = pm + np.where(alpha > 0, alpha, 0.0)
            cand = np.concatenate([pm0, pm1], axis=1)          # (b, 2L)
            keep = np.argpartition(cand, lsz - 1, axis=1)[:, :lsz]
            newpm = cand[rows, keep]
            order = np.argsort(newpm, axis=1)
            keep = keep[rows, order]
            pm = newpm[rows, order]
            src, bit = keep % lsz, (keep // lsz).astype(np.uint8)
            prune(src, i)
            return bit[..., None]
        half = size // 2
        a, c = llr_lv[t][..., :half], llr_lv[t][..., half:]
        llr_lv[t + 1] = np.sign(a) * np.sign(c) * np.minimum(np.abs(a), np.abs(c))
        bl = visit(t + 1)
        left_bits[t] = bl
        lv = current(llr_lv[t], llr_map.pop(t, None))         # after the left child's prunes
        a, c = lv[..., :half], lv[..., half:]
        llr_lv[t + 1] = c + (1.0 - 2.0 * bl) * a
        br = visit(t + 1)
        bl = current(left_bits.pop(t), bits_map.pop(t, None))  # after the right child's prunes
        return np.concatenate([bl ^ br, br], axis=-1)

    x_hat = visit(0)
    # visit reaches itself through its closure; dropping it frees the
    # per-level state on return instead of at the next cyclic collection
    del visit
    assert leaf[0] == n
    order = np.argsort(pm, axis=1)
    return polar_transform(x_hat[rows, order])

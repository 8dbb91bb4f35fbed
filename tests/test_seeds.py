"""The seed tree: distinct (master, path) give distinct streams, and keys
outside the tree's range are refused."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from secpon import seeds
from secpon.experiments import ConfigError, ExperimentSpec

LOW, HIGH = -2 ** 127, 2 ** 127       # masters lie in [LOW, HIGH)
TOP = 2 ** 32                         # path elements lie in [0, TOP)

masters = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([5, 2 ** 32 + 5, 2 ** 64, 2 ** 64 + 5, -2 ** 64, -2 ** 64 - 1,
                     2 ** 96, HIGH - 1, LOW]),
    st.integers(LOW, HIGH - 1),
)
elements = st.one_of(st.integers(0, 3), st.integers(TOP - 3, TOP - 1), st.integers(0, TOP - 1))
paths = st.lists(elements, max_size=5).map(tuple)
keys = st.tuples(masters, paths)


def _state(master, path):
    """The PCG64 state the stream starts from."""
    state = seeds.stream(master, *path).bit_generator.state["state"]
    return state["state"], state["inc"]


def _neighbours(master, path):
    """Keys one known trap away from ``(master, path)``: a trailing or
    leading zero, a dropped or flipped last element, a rotated path, the
    sign, bits above 32 or 64 in the master, or the master's second word
    moved into the path."""
    out = {(master, path + (0,)), (master, (0,) + path), (-master - 1, path),
           (master + 2 ** 32, path), (master + 2 ** 64, path), (master % 2 ** 32, path),
           (master % 2 ** 32, (master // 2 ** 32 % TOP,) + path)}
    if path:
        out |= {(master, path[:-1]), (master, path[:-1] + (path[-1] ^ 1,)),
                (master, path[1:] + path[:1])}
    return {k for k in out if LOW <= k[0] < HIGH and k != (master, path)}


@given(st.lists(keys, min_size=2, max_size=8, unique=True))
def test_distinct_keys_give_distinct_streams(some_keys):
    assert len({_state(m, p) for m, p in some_keys}) == len(some_keys)


@given(keys)
def test_trap_neighbours_give_distinct_streams(key):
    near = _neighbours(*key)
    assert len({_state(*k) for k in near | {key}}) == len(near) + 1


def test_known_traps_are_distinct():
    """Each pair here is one state under a plainer derivation: entropy
    [1], [1, 0], [1, 0, 0]; spawn keys (2**32,) and (0, 1); masters taken
    modulo 2**32 or 2**64; a master 2**128 or more spilling into the path."""
    cases = [(1, ()), (1, (0,)), (1, (0, 0)), (0, (1,)), (0, (0, 1)), (0, (TOP - 1,)),
             (1, (1,)), (5, ()), (2 ** 32 + 5, ()), (2 ** 64 + 5, ()), (-5, ()), (-6, ()),
             (0, ()), (-1, ()), (HIGH - 1, ()), (LOW, ()), (5, (7,)), (5, (0, 7))]
    assert len({_state(m, p) for m, p in cases}) == len(cases)


@given(keys)
def test_equal_keys_give_equal_draws(key):
    a = seeds.stream(key[0], *key[1]).integers(0, 2 ** 63, 4)
    b = seeds.stream(key[0], *key[1]).integers(0, 2 ** 63, 4)
    assert np.array_equal(a, b)


@given(st.one_of(st.integers(max_value=-1), st.integers(min_value=TOP)), paths)
def test_path_element_out_of_range_raises(bad, path):
    with pytest.raises(ValueError, match="path element"):
        seeds.stream(0, *path, bad)


@given(st.one_of(st.integers(max_value=LOW - 1), st.integers(min_value=HIGH)))
def test_master_out_of_range_raises(master):
    with pytest.raises(ValueError, match="master seed"):
        seeds.stream(master, 1)
    with pytest.raises(ConfigError, match="master seed"):
        ExperimentSpec("theory-curves", {}, seed=master)


def test_zigzag_interleaves_signs():
    assert [seeds.zigzag(m) for m in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]
    assert seeds.zigzag(LOW) == 2 ** 128 - 1 and seeds.zigzag(HIGH - 1) == 2 ** 128 - 2

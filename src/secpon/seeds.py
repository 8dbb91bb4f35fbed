"""One seed tree: every random draw of a run comes from
``stream(master, *path)``, and the tags that start the paths are listed
here and nowhere else.  (The LDPC code's construction draws from its own
fixed seed: it builds the package's one code, not a run.)

A stream is PCG64 seeded by
``SeedSequence(zigzag(master), spawn_key=path)``.  Each part is there so
that distinct ``(master, path)`` give distinct seed material:

- ``zigzag`` maps 0, -1, 1, -2, ... to 0, 1, 2, 3, ...: ``SeedSequence``
  rejects negative entropy.  A master seed may be any integer in
  ``[-2**127, 2**127)``, whose image fits the sequence's 128-bit pool; a
  larger entropy would spill into the words the path occupies.
- The path is the spawn key, not more entropy: entropy ``[1]``,
  ``[1, 0]`` and ``[1, 0, 0]`` give one state, while every spawn-key word
  is mixed in, trailing zeros too.
- Every path element lies in ``[0, 2**32)``: the key is read as 32-bit
  words, so ``(2**32,)`` would be ``(0, 1)``.
- PCG64, not Philox: it draws the bits this package needs about 30%
  faster.

Functions that hand a stream on take its full path, master first, as
one tuple and call ``stream(*path)``.  A text label (an ONU id, an
experiment cell's description) enters a path as ``label(text)``.
"""

from __future__ import annotations

import zlib

import numpy as np

# Top-level tags: the first path element, one per kind of draw.
KEY = 1            # (KEY, label(onu), seq): a session key; seq 0 is the registration key
SIGNS = 2          # (SIGNS, frame, sc): the pre-shared pilot sign bits
PILOT2 = 3         # (PILOT2, frame, sc): pilot magnitude filler bits
TRAIN = 4          # (TRAIN, frame, sc): the QPSK training sequence
DATA = 5           # (DATA, label(onu), codeword): downstream plaintext
US_DATA = 6        # (US_DATA, frame, sc): upstream payload bits
US_LASER = 7       # (US_LASER, frame, onu index): one ONU burst's laser, a channel path
US_NOISE = 8       # (US_NOISE, frame): the noise loading at the OLT
DS_CHANNEL = 9     # (DS_CHANNEL, frame): the downstream channel, a channel path
TAP_CHANNEL = 10   # (TAP_CHANNEL, frame): the eavesdropper's tapped copy, a channel path
LOSS = 11          # (LOSS, frame, label(onu)): the fragment-loss draw
EVE_KEY = 12       # (EVE_KEY,): the eavesdropper's made-up key
CELL = 13          # (CELL, label(description)): one experiment cell's draws

# Tags that ``channel.apply_channel`` appends to a channel path.
PHASE = 1          # the Wiener phase walk
AWGN = 2           # the additive noise

_MASTER_LIMIT = 2 ** 127
_ELEMENT_LIMIT = 2 ** 32


def zigzag(master: int) -> int:
    """The nonnegative integer standing for ``master``: ``2m`` for
    ``m >= 0``, else ``-2m - 1``."""
    return 2 * master if master >= 0 else -2 * master - 1


def check_master(master: int) -> int:
    """``master`` as an int, or ValueError when it falls outside the
    seeds the tree keeps distinct."""
    if not -_MASTER_LIMIT <= master <= _MASTER_LIMIT - 1:
        raise ValueError(f"master seed must lie in [-2**127, 2**127), got {master}")
    return int(master)


def label(text: str) -> int:
    """The path element standing for a text label: its CRC-32."""
    return zlib.crc32(text.encode())


def stream(master: int, *path: int) -> np.random.Generator:
    """The generator at ``path`` under ``master``; equal arguments give
    equal streams in every process."""
    for x in path:
        if not 0 <= x < _ELEMENT_LIMIT:
            raise ValueError(f"path element {x} outside [0, 2**32)")
    key = np.random.SeedSequence(zigzag(check_master(master)), spawn_key=path)
    return np.random.Generator(np.random.PCG64(key))

"""Deterministic random draws from a fixed, language-independent recipe.

Streams must be reproducible by any conforming implementation, in any
language, from a 64-bit seed alone.  The recipe therefore avoids every
library RNG and pins three rules (all integer arithmetic is modulo 2**64):

1. State update, splitmix64 with the standard constants.  Starting from
   ``state = seed``, each draw does::

       state = state + 0x9E3779B97F4A7C15
       z = state
       z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
       z = (z ^ (z >> 27)) * 0x94D049BB133111EB
       output = z ^ (z >> 31)

2. Unit draw in the half-open interval (0, 1]::

       u = ((output >> 11) + 1) * 2.0**-53

   The +1 keeps ``u`` strictly positive so its logarithm is always finite.

3. Normal draws via the trigonometric Box-Muller transform, produced in
   pairs.  With two consecutive unit draws ``u1`` then ``u2``::

       r  = sqrt(-2 * ln(u1))
       z0 = r * cos(2 * pi * u2)
       z1 = r * sin(2 * pi * u2)

   The generator yields ``z0`` first, then ``z1``, then draws a fresh pair.
   A stream of normals with mean ``m`` and standard deviation ``s`` is
   ``m + s * z_k``.

The first ten normal draws for a handful of seeds are frozen in the test
suite as golden vectors.  Exactness across machines is limited only by the
platform's ``log``/``cos``/``sin``; on IEEE-754 doubles with a faithful libm
the streams agree to at least twelve significant digits.

Two implementations of the recipe exist.  :func:`normal_blocks` is the
production path: synthetic sources draw through it.  ``SplitMix64``,
importable only from :mod:`mistsim.reference`, steps one draw at a time and
is its reference; the tests require the two to agree float for float.  The
block kernel rests on a property of splitmix64: the state before draw ``k``
(counting from 0) is ``seed + k * 0x9E3779B97F4A7C15`` modulo 2**64, so any
run of draws can be computed at once without stepping through the ones
before it.  It packs up to ``_BLOCK`` states into the 128-bit lanes of one
Python int and runs rule 1 as a handful of whole-int operations.  Lanes are
128 bits wide because a 64-bit lane times a 64-bit constant is below 2**128:
the multiplications never carry into the next lane, and masking every lane
to its low 64 bits afterwards is exactly the reduction modulo 2**64.  The
shifts do pull the neighbouring lane's low bits into a lane's upper half;
those bits are masked off before they can reach the low 64.

Rules 2 and 3 and the ``m + s * z_k`` step run per element, in one Python
loop per Box-Muller pair: ``math.log`` of ``u1``, ``math.sqrt`` of ``-2``
times that, then ``math.cos`` and ``math.sin`` of ``2 * pi * u2``, each
times ``r``, scaled and shifted.  These are the reference's calls on the
same operands, with each product and sum rounded in the same order, so the
two give the same float for every draw.  The one difference in form,
``2 * pi * 2**-53`` folded into one constant, changes no value: scaling by
a power of two is exact.
"""

from __future__ import annotations

import math
import struct
from array import array
from functools import cache
from typing import Iterator

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO_NEG53 = 2.0 ** -53
_TWO_PI = 2.0 * math.pi
# 2*pi * ((z >> 11) + 1) * 2**-53 rounds once either way: scaling by a power
# of two is exact, so the block kernel folds the two factors into one.
_TWO_PI_NEG53 = _TWO_PI * _TWO_NEG53
# Draws per block of the kernel; even, so Box-Muller pairs never straddle two.
_BLOCK = 2048


def derive_seed(seed_base: int, index: int) -> int:
    """Per-stream seed: ``seed_base + index``, reduced modulo 2**64."""
    return (seed_base + index) & _MASK64


@cache
def _lanes() -> tuple[int, int, int, int]:
    """The kernel's lane constants, one 128-bit lane per draw of a full block.

    ``(k * GAMMA mod 2**64 for k = 1 .. _BLOCK, ones, 64-bit masks, 53-bit
    masks)``.  Built on first use, not at import.
    """
    lane = struct.Struct("<QQ")
    steps = b"".join(lane.pack((k * _GAMMA) & _MASK64, 0) for k in range(1, _BLOCK + 1))
    return (
        int.from_bytes(steps, "little"),
        int.from_bytes(lane.pack(1, 0) * _BLOCK, "little"),
        int.from_bytes(lane.pack(_MASK64, 0) * _BLOCK, "little"),
        int.from_bytes(lane.pack((1 << 53) - 1, 0) * _BLOCK, "little"),
    )


def normal_blocks(seed: int, count: int, mean: float, stddev: float) -> Iterator[array]:
    """``mean + stddev * z_k`` for the first ``count`` normals ``z_k`` of
    ``SplitMix64(seed)``, in arrays of at most ``_BLOCK``.

    ``z_k`` is equal float for float to the ``k``-th value that
    ``SplitMix64(seed).next_normal()`` returns, cosine value first, then sine.
    """
    steps, ones, mask64, mask53 = _lanes()
    log, sqrt, cos, sin = math.log, math.sqrt, math.cos, math.sin
    state = seed & _MASK64  # the state before the block's first draw
    while count > 0:
        n = min(count, _BLOCK)
        draws = n + (n & 1)  # an odd tail still draws its last pair whole
        if draws < _BLOCK:
            low = (1 << (128 * draws)) - 1
            block_steps, block_ones = steps & low, ones & low
        else:
            block_steps, block_ones = steps, ones
        z = (block_steps + block_ones * state) & mask64
        z = ((z ^ (z >> 30)) & mask64) * _MIX1 & mask64
        z = ((z ^ (z >> 27)) & mask64) * _MIX2 & mask64
        z ^= z >> 31
        z = ((z >> 11) & mask53) + block_ones  # ((output >> 11) + 1) per lane
        # Each lane is two little-endian words, the value and a zero; the
        # Box-Muller pair j takes lanes 2j and 2j+1, so words 4j and 4j+2.
        words = struct.unpack(f"<{2 * draws}Q", z.to_bytes(16 * draws, "little"))
        block = array("d")
        append = block.append
        for w1, w2 in zip(words[0::4], words[2::4]):
            r = sqrt(-2.0 * log(w1 * _TWO_NEG53))
            theta = _TWO_PI_NEG53 * w2
            append(mean + stddev * (r * cos(theta)))
            append(mean + stddev * (r * sin(theta)))
        if n < draws:
            del block[n:]
        yield block
        state = (state + draws * _GAMMA) & _MASK64
        count -= n

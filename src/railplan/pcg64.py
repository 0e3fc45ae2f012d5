"""numpy's `default_rng(seed)` stream for the draws the design search makes,
in pure Python and bit for bit.

That stream is a `Generator` over a PCG64 bit generator (O'Neill 2014,
XSL-RR output) seeded through a `SeedSequence`.  Importing numpy's random
package loads five bit generators and `secrets`, hence `hashlib` and
OpenSSL: about 5.4 MB and 9 ms per process, for the few thousand values one
GA run draws.  This module follows the same chain with Python ints:

- `SeedSequence(seed)` hashes the seed's little-endian 32-bit words into a
  pool of four, mixes every word into every other, and `generate_state`
  hashes the pool out to eight words, paired into four 64-bit values v0-v3;
- PCG64 sets its increment to (v2:v3) << 1 | 1, steps from state 0, adds
  (v0:v1) and steps again; each 64-bit draw steps the 128-bit LCG and
  returns hi ^ lo rotated right by the top six bits;
- a 32-bit draw is the low half of a fresh 64-bit draw, whose high half is
  kept for the next 32-bit draw (64-bit draws leave it alone);
- `integers` maps 32-bit draws by Lemire's (2019) multiply-and-reject,
  `random` is the top 53 bits of a 64-bit draw times 2**-53, and `uniform`
  is low + (high - low) * random.

Only the call shapes the GA makes are implemented, returning Python values:
`integers(high)`, `integers(low, high, size)` with high - low at most
2**32 - 1, `random()`, `random(size)` and `uniform(low, high, size)`.  Any
other span raises rather than diverging from numpy's stream.  numpy keeps no
stream promise for `Generator` methods across versions (NEP 19); this one
fixes each seed's designs as numpy 2.4 draws them.
"""

from __future__ import annotations

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's 128-bit LCG multiplier
_UNIT = 2.0**-53


def _mix(x: int, y: int) -> int:
    v = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return v ^ v >> 16


def seed_words(seed: int) -> list[int]:
    """numpy's `SeedSequence(seed).generate_state(8, np.uint32)`."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        words.append(seed & _M32)
    h = 0x43B0D7E5

    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * 0x931E8875 & _M32
        v = v * h & _M32
        return v ^ v >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for s in range(4):
        for d in range(4):
            if d != s:
                pool[d] = _mix(pool[d], hashmix(pool[s]))
    for w in words[4:]:
        for d in range(4):
            pool[d] = _mix(pool[d], hashmix(w))
    out = []
    h = 0x8B51F9DD
    for i in range(8):
        v = pool[i % 4] ^ h
        h = h * 0x58F38DED & _M32
        v = v * h & _M32
        out.append(v ^ v >> 16)
    return out


class Generator:
    """The draws of numpy's `default_rng(seed)` (module docstring)."""

    def __init__(self, seed: int) -> None:
        w = seed_words(seed)
        v0, v1, v2, v3 = (w[i + 1] << 32 | w[i] for i in range(0, 8, 2))
        self.inc = ((v2 << 64 | v3) << 1 | 1) & _M128
        s = (self.inc + (v0 << 64 | v1)) & _M128  # the step from 0 gives inc
        self.state = (s * _MULT + self.inc) & _M128
        self._half: int | None = None  # the high half kept by a 32-bit draw

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        s = self.state = (self.state * _MULT + self.inc) & _M128
        hi = s >> 64
        x = (hi ^ s) & _M64
        r = hi >> 58
        x = (x >> r | x << (64 - r)) & _M64
        self._half = x >> 32
        return x & _M32

    def random(self, size: int | None = None) -> float | list[float]:
        """Uniform floats on [0, 1)."""
        if size is None:
            return self.random(1)[0]
        s, inc = self.state, self.inc
        out = []
        for _ in range(size):
            s = (s * _MULT + inc) & _M128
            hi = s >> 64
            x = (hi ^ s) & _M64
            r = hi >> 58
            out.append((((x >> r | x << (64 - r)) & _M64) >> 11) * _UNIT)
        self.state = s
        return out

    def uniform(self, low: float, high: float, size: int) -> list[float]:
        """Uniform floats on [low, high)."""
        span = high - low
        return [low + span * u for u in self.random(size)]

    def integers(self, low: int, high: int | None = None, size: int | None = None) -> int | list[int]:
        """Uniform ints on [low, high), or on [0, low) without `high`."""
        if high is None:
            low, high = 0, low
        span = high - low
        if span <= 0:
            raise ValueError(f"low >= high: {low} >= {high}")
        if span > _M32:
            raise NotImplementedError(f"a span of {span} values is wider than this stream implements")
        if size is None:
            return self.integers(low, high, 1)[0]
        if span == 1:  # numpy draws nothing
            return [low] * size
        threshold = (-span & _M32) % span  # (2**32 - span) % span
        out = []
        for _ in range(size):
            m = self._next32() * span
            while m & _M32 < threshold:
                m = self._next32() * span
            out.append(low + (m >> 32))
        return out

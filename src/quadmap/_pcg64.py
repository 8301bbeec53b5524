"""numpy's ``default_rng`` streams in pure Python: PCG64, the 128-bit LCG with
XSL-RR output (M. O'Neill, HMC-CS-2014-0905), seeded through the 32-bit
hashmix pool of numpy's ``SeedSequence``."""

from .core import QuadrangleError

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(entropy):
    """An int, or a sequence of them, as SeedSequence's little-endian 32-bit words."""
    if isinstance(entropy, (tuple, list)):
        return [w for x in entropy for w in _words(x)]
    if type(entropy) is not int or entropy < 0:
        raise QuadrangleError(f"seed word {entropy!r} must be a non-negative integer")
    return [entropy >> k & _M32 for k in range(0, max(entropy.bit_length(), 1), 32)]


def _hashmix(const, mult):
    def hashmix(v):
        nonlocal const
        v ^= const
        const = const * mult & _M32
        v = v * const & _M32
        return v ^ v >> 16
    return hashmix


def _mix(x, y):
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


class PCG64:
    """A seeded stream equal to ``numpy.random.default_rng(entropy)`` in the methods it has."""

    def __init__(self, entropy):
        words, h = _words(entropy), _hashmix(0x43B0D7E5, 0x931E8875)
        pool = [h(w) for w in (words + [0] * 4)[:4]]
        for src, dst in ((s, d) for s in range(4) for d in range(4) if s != d):
            pool[dst] = _mix(pool[dst], h(pool[src]))
        for w, dst in ((w, d) for w in words[4:] for d in range(4)):
            pool[dst] = _mix(pool[dst], h(w))
        h = _hashmix(0x8B51F9DD, 0x58F38DED)
        out = [h(pool[i % 4]) for i in range(8)]
        s0, s1, i0, i1 = (out[k] | out[k + 1] << 32 for k in range(0, 8, 2))
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self._state = ((self._inc + (s0 << 64 | s1)) * _MULT + self._inc) & _M128
        self._half = None   # the upper 32 bits of a draw, kept for the next integers()

    def _next64(self):
        self._state = s = (self._state * _MULT + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def uniform(self, lo, hi, size=None):
        """One double in [lo, hi), or a list of ``size``, as numpy draws them; _next64 inline."""
        if size is None:
            self._state = s = (self._state * _MULT + self._inc) & _M128
            x, rot = (s >> 64 ^ s) & _M64, s >> 122
            return lo + (hi - lo) * ((((x >> rot | x << (64 - rot)) & _M64) >> 11) * 2.0 ** -53)
        s, inc, span, out = self._state, self._inc, hi - lo, []
        for _ in range(size):
            s = (s * _MULT + inc) & _M128
            x, rot = (s >> 64 ^ s) & _M64, s >> 122
            out.append(lo + span * ((((x >> rot | x << (64 - rot)) & _M64) >> 11) * 2.0 ** -53))
        self._state = s
        return out

    def integers(self, n):
        """An int in [0, n) for 1 < n < 2**32: Lemire's bound on buffered 32-bit halves."""
        if not 1 < n <= _M32:
            raise QuadrangleError(f"integers bound {n} must lie in (1, 2**32)")
        while True:
            if self._half is None:
                self._half, x = divmod(self._next64(), 1 << 32)
            else:
                x, self._half = self._half, None
            if x * n & _M32 >= (1 << 32) % n:
                return x * n >> 32

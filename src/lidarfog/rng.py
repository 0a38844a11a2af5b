"""Counter-based deterministic random draws.

Noise draws are a pure hash of (seed, counter), so any point or file gets
the same draw no matter how the work is ordered or split across workers.
The mixer is splitmix64; floats take the top 53 bits of the hash.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_TO_UNIT = 2.0 ** -53


def uniform01(seed: int, index):
    """Uniform draw(s) in [0, 1) keyed by (seed, index).

    `index` may be a scalar (giving a numpy float64) or an integer array;
    vectorized evaluation is bit-identical to element-wise evaluation.
    """
    # the splitmix64 steps run in place on one new uint64 array (0-d for a
    # scalar); addition and multiplication wrap modulo 2**64
    z = np.array(index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z += np.uint64(1)
        z *= np.uint64(_GOLDEN_GAMMA)
        z += np.uint64(seed & _MASK64)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX_1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX_2)
        z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
    # widened first: a uint64-by-float multiply would stage the cast in a buffer
    u = z.astype(np.float64)
    u *= _TO_UNIT
    return u[()]  # a numpy float64 for a scalar index


def stable_key64(name: str) -> int:
    """Stable 64-bit key for a string, for keying per-file draws: the
    little-endian 8-byte blake2b digest of its UTF-8 bytes.  A file name
    that is not valid UTF-8 (surrogate escapes from `os.listdir`) is keyed
    by its bytes.  `blake2b` comes from `_blake2`, the module `hashlib`
    takes it from (`hashlib.blake2b is _blake2.blake2b`): importing
    `hashlib` would also map OpenSSL, about 3.4 MB that no command needs."""
    from _blake2 import blake2b

    digest = blake2b(name.encode("utf-8", "surrogateescape"), digest_size=8).digest()
    return int.from_bytes(digest, "little")

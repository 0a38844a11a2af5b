"""Counter-based deterministic random draws.

Noise draws are a pure hash of (seed, counter), so any point or file gets
the same draw no matter how the work is ordered or split across workers.
The mixer is splitmix64; floats take the top 53 bits of the hash.
"""

import hashlib

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
    idx = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & _MASK64) + (idx + np.uint64(1)) * np.uint64(_GOLDEN_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_2)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)) * _TO_UNIT


def stable_key64(name: str) -> int:
    """Stable 64-bit key for a string, for keying per-file draws.  A file
    name that is not valid UTF-8 (surrogate escapes from `os.listdir`) is
    keyed by its bytes."""
    digest = hashlib.blake2b(name.encode("utf-8", "surrogateescape"), digest_size=8).digest()
    return int.from_bytes(digest, "little")

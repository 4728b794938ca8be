"""Deterministic, label-addressed random streams.

Streams are counter-based Philox generators keyed by a hash of
(master seed, labels).  A given (seed, labels) pair always maps to the same
stream regardless of creation order, so adding sweep points or trials never
perturbs existing ones.
"""

import hashlib

import numpy as np


def rng_stream(master_seed: int, *labels) -> np.random.Generator:
    digest = hashlib.sha256()
    digest.update(str(int(master_seed)).encode())
    for label in labels:
        digest.update(b"\x1f")
        digest.update(str(label).encode())
    key = int.from_bytes(digest.digest()[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))

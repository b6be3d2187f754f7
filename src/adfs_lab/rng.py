"""Deterministic random-number plumbing.

All randomness in the library flows through counter-based Philox generators
keyed by explicit integer/string tuples, so that any (config, seed) pair maps
to a reproducible stream and distinct consumers (block draws, per-node sample
picks, data generation) own disjoint substreams.
"""

import hashlib

import numpy as np

__all__ = ["stable_key", "generator", "chunked", "BlockStream"]

# Draws per refill of a chunked stream.  Philox's random(k), random((k, n))
# and integers(N, size=k) return exactly the values of k single calls, in the
# same order, so the chunk size changes no value, only the per-call overhead.
CHUNK = 256


def stable_key(token) -> int:
    """Map a string/int token to a stable 64-bit integer (no hash salting)."""
    if isinstance(token, (int, np.integer)):
        return int(token) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.sha256(str(token).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def generator(*tokens) -> np.random.Generator:
    """Philox generator keyed by a tuple of tokens."""
    seq = np.random.SeedSequence([stable_key(t) for t in tokens])
    return np.random.Generator(np.random.Philox(seq))


def chunked(draw):
    """Endless iterator over the items of draw(CHUNK), draw(CHUNK), ..."""
    while True:
        yield from draw(CHUNK)


class BlockStream:
    """Pair of substreams drawing the sampling blocks of one scheme.

    `kind` decides communication vs computation; `pick` selects one virtual
    edge per node.  Keeping them disjoint lets two solver implementations
    replay exactly the same block sequence from the same seed.  Both are
    drawn in chunks (`kinds` and `picks`), with the values of per-call
    draws.  A pick is the global virtual-node index of each node's sample:
    node i's uniform u maps to vstart[i] plus the count of entries of
    cumsum(p_virtual[i]) below u, capped at m_i - 1.
    """

    def __init__(self, scheme, *tokens):
        self.scheme = scheme
        self.kind_rng, self.pick_rng = generator(*tokens).spawn(2)
        # uniforms deciding the kind of each block; none is drawn before use
        self.kinds = chunked(lambda k: self.kind_rng.random(k).tolist())
        # per node, its cumsum without the last entry (the cap) and its first index
        cums = [np.cumsum(pv)[:-1] for pv in scheme.p_virtual]
        first = np.cumsum([0] + [len(pv) for pv in scheme.p_virtual[:-1]])

        def picks(k):  # one searchsorted per node over a column of k uniforms
            u = self.pick_rng.random((k, len(cums)))
            out = np.empty(u.shape, dtype=np.intp)
            for i, cum in enumerate(cums):
                out[:, i] = np.searchsorted(cum, u[:, i], side="left")
            out += first
            return out

        self.picks = chunked(picks)

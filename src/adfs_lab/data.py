"""The data layer: LibSVM text, synthetic pools and per-node datasets.

An instance holds one copy of its samples: one read-only (V, d) buffer in
node order, of which every node's dataset is a row view (see
`assign_node_datasets` and `stack_rows`).
"""

import re

import numpy as np

from .rng import generator

__all__ = ["LibsvmParseError", "parse_libsvm", "write_libsvm", "synth_pool",
           "assign_node_datasets", "synth_dataset", "stack_rows"]


class LibsvmParseError(ValueError):
    pass


def parse_libsvm(path):
    """Parse `label idx:val ...` lines (1-based, strictly increasing indices).

    Returns (samples, dim) where samples is a list of (label, pairs) with
    0-based pairs.  Blank lines and `#` comments are skipped.  Malformed
    tokens raise with the line and column of the offending token.
    """
    samples = []
    dim = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0]
            tokens = line.split()
            if not tokens:
                continue
            try:
                label = float(tokens[0])
            except ValueError:
                raise _token_error(line, lineno, 0, f"bad label {tokens[0]!r}") from None
            pairs = []
            prev_idx = 0
            for tok in tokens[1:]:  # a bad token is token len(pairs) + 1
                idx_s, colon, val_s = tok.partition(":")
                if not colon:
                    raise _token_error(line, lineno, len(pairs) + 1,
                                       f"expected idx:value, got {tok!r}")
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise _token_error(line, lineno, len(pairs) + 1,
                                       f"bad feature token {tok!r}") from None
                if idx < 1:
                    raise _token_error(line, lineno, len(pairs) + 1,
                                       f"index {idx} must be >= 1")
                if idx <= prev_idx:
                    raise _token_error(line, lineno, len(pairs) + 1,
                                       f"index {idx} not increasing")
                pairs.append((idx - 1, val))
                prev_idx = idx
            dim = max(dim, prev_idx)
            samples.append((label, pairs))
    return samples, dim


def _token_error(line, lineno, pos, message):
    # str.split and the regex \S+ split on the same (Unicode) whitespace, so
    # token pos of the one is match pos of the other
    col = [m.start() + 1 for m in re.finditer(r"\S+", line)][pos]
    return LibsvmParseError(f"line {lineno}, column {col}: {message}")


def write_libsvm(path, samples):
    """Inverse of parse_libsvm; floats are written with repr so values
    round-trip bit-exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for label, pairs in samples:
            toks = [repr(float(label))]
            toks += [f"{int(i) + 1}:{repr(float(v))}" for i, v in pairs]
            fh.write(" ".join(toks) + "\n")


def _dense_from_pairs(samples, dim):
    feats = np.zeros((len(samples), dim))
    labels = np.empty(len(samples))
    for r, (label, pairs) in enumerate(samples):
        labels[r] = label
        for i, v in pairs:
            feats[r, i] = v
    return feats, labels


def synth_pool(n_samples, d, seed, correlation, loss="logistic", noise=0.1,
               feature_scale=1.0):
    """Feature pool with tunable covariance plus planted-model labels.

    Covariance (1 - c) I + c d w w^T: correlation c near 0 gives isotropic
    features (trace-dominated spectrum), c near 1 concentrates the spectrum
    on one direction, which tunes the stochastic/batch condition ratio.
    """
    if not 0.0 <= correlation < 1.0:
        raise ValueError("correlation must lie in [0, 1)")
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = generator("synth", seed)
    w = rng.normal(size=d)
    w /= np.linalg.norm(w)
    feats = rng.normal(size=(n_samples, d))
    spike = rng.normal(size=(n_samples, 1))
    # sqrt(1 - c) base + (sqrt(c d) spike) w, term by term in place
    feats *= np.sqrt(1.0 - correlation)
    spike *= np.sqrt(correlation * d)
    feats += spike * w
    feats *= feature_scale
    theta = rng.normal(size=d) / np.sqrt(d)
    margins = feats @ theta + noise * rng.normal(size=n_samples)
    if loss == "logistic":
        labels = np.where(margins >= 0.0, 1.0, -1.0)
    else:
        labels = margins
    return feats, labels


def assign_node_datasets(feats, labels, n, m, seed):
    """Draw m samples per node at random from the pool; nodes may overlap.
    All n * m rows are gathered at once into one read-only buffer, of which
    node i's (features, labels) are the row views i*m .. (i+1)*m - 1."""
    if m > feats.shape[0]:
        raise ValueError(f"m={m} exceeds the pool size {feats.shape[0]}")
    rng = generator("assign", seed)
    idx = np.concatenate([rng.choice(feats.shape[0], size=m, replace=False) for _ in range(n)])
    feats, labels = feats[idx], labels[idx]
    feats.flags.writeable = labels.flags.writeable = False
    return [(feats[i * m:(i + 1) * m], labels[i * m:(i + 1) * m]) for i in range(n)]


def synth_dataset(n, m, d, seed, correlation, loss="logistic", noise=0.1,
                  pool=None, feature_scale=1.0):
    """Per-node synthetic datasets drawn (with overlap) from one pool."""
    size = pool if pool is not None else n * m
    feats, labels = synth_pool(size, d, seed, correlation, loss, noise, feature_scale)
    return assign_node_datasets(feats, labels, n, m, seed)


def stack_rows(parts):
    """The read-only row stack of `parts`: the read-only buffer that they
    tile in order when there is one, as assign_node_datasets' views do, else
    their concatenation."""
    base = parts[0].base
    if isinstance(base, np.ndarray) and base.flags.c_contiguous and not base.flags.writeable:
        ends = np.cumsum([len(p) for p in parts])  # each part must be exactly its rows' view
        if ends[-1] == len(base) and all(
                p.base is base and p.__array_interface__ == base[hi - len(p):hi].__array_interface__
                for p, hi in zip(parts, ends)):
            return base
    out = np.concatenate(parts)
    out.flags.writeable = False
    return out

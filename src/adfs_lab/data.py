"""The data layer: LibSVM text, synthetic pools and per-node datasets.

A LibSVM file is read into one CSR record (`LibsvmData`).  An instance holds
one copy of the samples it uses: one read-only (V, d) buffer in node order,
of which every node's dataset is a row view (see `assign_node_datasets` and
`stack_rows`).  Only the V sampled rows of a pool are ever made dense: a
record's are scattered from its nonzeros, and a synthetic pool's are drawn
a chunk of rows at a time (`synth_dataset`), so that set-up holds the
buffer plus one chunk, never the pool.
"""

import math
import re
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .rng import CHUNK, generator

__all__ = ["RANGE_LO", "RANGE_HI", "in_range", "LibsvmParseError", "LibsvmData", "parse_libsvm",
           "write_libsvm", "unit_signs", "synth_pool", "assign_node_datasets", "synth_dataset",
           "stack_rows"]

# The numeric domain of the inputs.  Every positive scale of a config (each
# sigma_i, feature_scale, each edge weight, and tau, p_comm and noise when not
# 0), every nonzero feature-row norm ||X_k|| and every nonzero |label| lies in
# [RANGE_LO, RANGE_HI].  Then every constant the builds derive is a normal
# float, for d <= 32 768 and any instance within DENSE_MAX (README, Numerical
# conventions, gives the worst cases).
RANGE_LO, RANGE_HI = 1e-30, 1e30


def in_range(x, hi=RANGE_HI):
    """RANGE_LO <= x <= hi, elementwise for arrays; False for nan."""
    return (RANGE_LO <= x) & (x <= hi)


# the size hint, in characters, of each `readlines` call of parse_libsvm: only
# one block's token strings are alive at a time
BLOCK_CHARS = 1 << 16
INDEX_MAX = np.iinfo(np.int64).max
# the most entries of a dense (rows, d) feature buffer.  2^30 float64 is 8 GiB:
# past what a workstation holds, where numpy's memory error would name no
# input.  A synthetic instance is held to max(pool, n m) rows, since it draws
# the normals of every pool row even though it keeps only the drawn ones.
# The committed configs and benchmark workloads stay below 10^6.
DENSE_MAX = 1 << 30


class LibsvmParseError(ValueError):
    pass


class LibsvmData(NamedTuple):
    """Samples in CSR form.  Sample r has the label labels[r] and the values
    values[indptr[r]:indptr[r + 1]] at the strictly increasing 0-based
    columns indices[indptr[r]:indptr[r + 1]]; dim is the largest 1-based
    index of the file (0 when it has none)."""
    labels: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    dim: int


def parse_libsvm(path):
    """Read `label idx:val ...` lines (1-based, strictly increasing indices)
    into a LibsvmData record.

    Blank lines and `#` comments are skipped.  Labels and values are read by
    `float` and indices by `int`.  Malformed tokens, and labels and values
    that are not finite (nan, inf, or past the float range like 1e400),
    raise LibsvmParseError with the line and column of the file's first
    offending token, whichever rows a node later draws.  The file is read
    and converted BLOCK_CHARS characters at a time.
    """
    parts = ([np.zeros(0)], [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)])
    lineno = 0
    with open(path, "r", encoding="utf-8") as fh:
        # readlines splits lines as file iteration does, on \n, \r and \r\n
        # only (str.splitlines would also split on \x0b, \x0c, \x85, ...)
        while lines := fh.readlines(BLOCK_CHARS):
            block = _read_block(lines)
            if block is None:
                raise _first_error(lines, lineno)
            for out, part in zip(parts, block):
                out.append(part)
            lineno += len(lines)
    labels, counts, indices, values = map(np.concatenate, parts)
    dim = int(indices.max()) + 1 if len(indices) else 0
    return LibsvmData(labels, np.concatenate(([0], np.cumsum(counts))), indices, values, dim)


def _read_block(lines):
    """(labels, nonzeros per row, 0-based indices, values) of a block of
    lines, or None when a token breaks a rule."""
    rows = list(filter(None, [line.partition("#")[0].split() for line in lines]))
    counts = np.fromiter(map(len, rows), np.int64, len(rows)) - 1
    n_pairs = int(counts.sum())
    pairs = " ".join(chain.from_iterable(map(itemgetter(slice(1, None)), rows)))
    # each feature token holds one colon when the separators of the joined
    # tokens read ": : ... :"; then splitting at both gives index, value,
    # index, ... (an empty side reads "", which int and float reject)
    raw = np.frombuffer(pairs.encode(), np.uint8)
    if raw[(raw == ord(" ")) | (raw == ord(":"))].tobytes() != b" ".join([b":"] * n_pairs):
        return None
    pieces = pairs.replace(":", " ").split(" ")
    try:
        labels = np.fromiter(map(float, map(itemgetter(0), rows)), float, len(rows))
        idx = np.fromiter(map(int, pieces[::2]), np.int64, n_pairs)
        values = np.fromiter(map(float, pieces[1::2]), float, n_pairs)
    except (ValueError, OverflowError):
        return None
    if not (np.isfinite(labels).all() and np.isfinite(values).all()):
        return None
    # each index is >= 1 and above its predecessor, unless it opens a row
    opens = np.zeros(len(idx), bool)
    opens[(np.cumsum(counts) - counts)[counts > 0]] = True
    if len(idx) and (idx.min() < 1 or not np.all((idx[1:] > idx[:-1]) | opens[1:])):
        return None
    return labels, counts, idx - 1, values


def _first_error(lines, lineno):
    """The LibsvmParseError of the first bad token of a block that
    _read_block rejected, found token by token; lineno is the number of
    lines before the block."""
    for lineno, raw in enumerate(lines, start=lineno + 1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        try:
            label = float(tokens[0])
        except ValueError:
            return _token_error(line, lineno, 0, f"bad label {tokens[0]!r}")
        if not math.isfinite(label):
            return _token_error(line, lineno, 0, f"non-finite label {tokens[0]!r}")
        prev_idx = 0
        for pos, tok in enumerate(tokens[1:], start=1):
            idx_s, colon, val_s = tok.partition(":")
            if not colon:
                return _token_error(line, lineno, pos, f"expected idx:value, got {tok!r}")
            try:
                idx = int(idx_s)
                value = float(val_s)
            except ValueError:
                return _token_error(line, lineno, pos, f"bad feature token {tok!r}")
            if not math.isfinite(value):
                return _token_error(line, lineno, pos, f"non-finite value {tok!r}")
            if idx < 1:
                return _token_error(line, lineno, pos, f"index {idx} must be >= 1")
            if idx <= prev_idx:
                return _token_error(line, lineno, pos, f"index {idx} not increasing")
            if idx > INDEX_MAX:
                return _token_error(line, lineno, pos, f"index {idx} must be <= {INDEX_MAX}")
            prev_idx = idx
    raise AssertionError("_read_block rejected a block without a bad token")


def _token_error(line, lineno, pos, message):
    # str.split and the regex \S+ split on the same (Unicode) whitespace, so
    # token pos of the one is match pos of the other
    col = [m.start() + 1 for m in re.finditer(r"\S+", line)][pos]
    return LibsvmParseError(f"line {lineno}, column {col}: {message}")


def write_libsvm(path, data):
    """Write a LibsvmData record; the inverse of parse_libsvm.  Floats are
    written with repr, so values round-trip bit-exactly."""
    labels, indptr, indices, values, _ = data
    cols, vals = (np.asarray(indices) + 1).tolist(), np.asarray(values, float).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for r, label in enumerate(np.asarray(labels, float).tolist()):
            toks = [repr(label)]
            toks += [f"{i}:{v!r}" for i, v in zip(cols[indptr[r]:indptr[r + 1]],
                                                 vals[indptr[r]:indptr[r + 1]])]
            fh.write(" ".join(toks) + "\n")


def unit_signs(labels):
    """The unit labels of real ones: +1 where a label is > 0, else -1 (0 and -0.0 too)."""
    return np.where(labels > 0.0, 1.0, -1.0)


def synth_pool(n_samples, d, seed, correlation, noise=0.1, feature_scale=1.0, *,
               unit_labels=True):
    """Feature pool with tunable covariance plus planted-model labels: the
    noisy margins or, with `unit_labels` (a loss's field), their `unit_signs`.

    Covariance (1 - c) I + c d w w^T: correlation c near 0 gives isotropic
    features (trace-dominated spectrum), c near 1 concentrates the spectrum
    on one direction, which tunes the stochastic/batch condition ratio.
    """
    return _synth_rows(np.arange(n_samples), n_samples, d, seed, correlation, noise,
                       feature_scale, unit_labels)


def _synth_rows(rows, n_samples, d, seed, correlation, noise, feature_scale, unit_labels):
    """(features, labels) of the given rows (in any order, repeats allowed)
    of the synthetic pool of n_samples rows, bit for bit as the pool made
    at once holds them, making only these rows dense.

    The "synth" stream is read in the pool's order (w, the (n_samples, d)
    normals, the spike, theta, the noise), CHUNK rows at a time (the last
    chunk also takes the remainder), and only the drawn rows are kept.  A
    chunk's margins are one matrix-vector product over the chunk, with the
    drawn rows at their places and zeros elsewhere: BLAS rounds a row of it
    by the row's place in a CHUNK-aligned slice, not by the other rows, so
    it equals the pool's product on those rows (a one-row remainder would be
    a dot product, which rounds otherwise).  At some sizes the pool's own
    product rounds by the BLAS thread count; with one thread both agree.
    """
    if not 0.0 <= correlation < 1.0:
        raise ValueError("correlation must lie in [0, 1)")
    if d < 1:
        raise ValueError("d must be >= 1")
    # per chunk of the pool: its row count, and where each of its drawn rows
    # goes in the output and sits in the chunk
    order = np.argsort(rows)  # repeats of a row may come in any order: they are equal
    ranked = rows[order]
    bounds = [b * CHUNK for b in range(max(1, n_samples // CHUNK))] + [n_samples]
    cuts = np.searchsorted(ranked, bounds)
    chunks = [(hi - lo, order[a:b], ranked[a:b] - lo)
              for lo, hi, a, b in zip(bounds, bounds[1:], cuts, cuts[1:])]
    rng = generator("synth", seed)
    w = rng.normal(size=d)
    w /= np.linalg.norm(w)
    feats = np.empty((len(rows), d))
    spike, margins = np.empty(len(rows)), np.empty(len(rows))
    for size, at, offset in chunks:
        feats[at] = rng.normal(size=(size, d))[offset]
    for size, at, offset in chunks:
        spike[at] = rng.normal(size=size)[offset]
    # sqrt(1 - c) base + (sqrt(c d) spike) w, term by term in place
    feats *= np.sqrt(1.0 - correlation)
    spike *= np.sqrt(correlation * d)
    for lo in range(0, len(rows), CHUNK):
        feats[lo:lo + CHUNK] += spike[lo:lo + CHUNK, None] * w
    feats *= feature_scale
    theta = rng.normal(size=d) / np.sqrt(d)
    for size, at, offset in chunks:
        block = np.zeros((size, d))
        block[offset] = feats[at]
        margins[at] = (block @ theta)[offset]
    for size, at, offset in chunks:
        margins[at] += noise * rng.normal(size=size)[offset]
    return feats, (unit_signs(margins) if unit_labels else margins)


def assign_node_datasets(feats, labels, n, m, seed):
    """Draw m samples per node at random from the pool; nodes may overlap.
    The pool's features are a dense (N, d) array or a LibsvmData record.
    All n * m rows are gathered at once into one read-only buffer, of which
    node i's (features, labels) are the row views i*m .. (i+1)*m - 1; of a
    record, only those rows' nonzeros are scattered into it."""
    idx = _draw_rows(len(labels), n, m, seed)
    feats = feats[idx] if isinstance(feats, np.ndarray) else _dense_rows(feats, idx)
    return _node_views(feats, labels[idx], n, m)


def _draw_rows(pool, n, m, seed):
    """The pool rows of the n nodes' datasets, node after node: m distinct
    rows per node from the "assign" stream."""
    if m > pool:
        raise ValueError(f"m={m} exceeds the pool size {pool}")
    rng = generator("assign", seed)
    return np.concatenate([rng.choice(pool, size=m, replace=False) for _ in range(n)])


def _node_views(feats, labels, n, m):
    """Node i's (features, labels): rows i*m .. (i+1)*m - 1 of the drawn
    rows, made read-only."""
    feats.flags.writeable = labels.flags.writeable = False
    return [(feats[i * m:(i + 1) * m], labels[i * m:(i + 1) * m]) for i in range(n)]


def _dense_rows(data, rows):
    """The dense (len(rows), dim) features of the given samples of a record."""
    starts = data.indptr[rows]
    counts = data.indptr[rows + 1] - starts
    # nonzero j of output row k sits at starts[k] + j in the record
    src = np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    out = np.zeros((len(rows), data.dim))
    out[np.repeat(np.arange(len(rows)), counts), data.indices[src]] = data.values[src]
    return out


def synth_dataset(n, m, d, seed, correlation, noise=0.1, pool=None, feature_scale=1.0, *,
                  unit_labels=True):
    """Per-node synthetic datasets drawn (with overlap) from one pool:
    assign_node_datasets(*synth_pool(...), n, m, seed) bit for bit, with
    only the drawn rows of the pool made."""
    size = pool if pool is not None else n * m
    rows = _draw_rows(size, n, m, seed)
    return _node_views(*_synth_rows(rows, size, d, seed, correlation, noise, feature_scale,
                                    unit_labels), n, m)


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

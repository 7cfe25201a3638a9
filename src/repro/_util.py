"""Small shared utilities used across the repro framework."""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator, Sequence
from typing import TypeVar

T = TypeVar("T")


def chunked(items: Sequence[T], num_chunks: int) -> list[Sequence[T]]:
    """Split ``items`` into ``num_chunks`` contiguous, near-equal chunks.

    Earlier chunks receive the remainder, so sizes differ by at most one.
    Empty chunks are produced when ``num_chunks`` exceeds ``len(items)``.
    """
    if num_chunks <= 0:
        raise ValueError(f"num_chunks must be positive, got {num_chunks}")
    base, extra = divmod(len(items), num_chunks)
    chunks: list[Sequence[T]] = []
    start = 0
    for index in range(num_chunks):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


def batched(iterable: Iterable[T], batch_size: int) -> Iterator[list[T]]:
    """Yield successive lists of at most ``batch_size`` items.

    >>> list(batched([1, 2, 3, 4, 5], 2))
    [[1, 2], [3, 4], [5]]
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    batch: list[T] = []
    for item in iterable:
        batch.append(item)
        if len(batch) == batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


#: From this many characters up one numpy dot product beats the loop
#: (measured, loop vs dot product: 5 vs 4 us at 32 characters, 46 vs 7
#: at 342; the dot product costs 3 us however short the string).
_VECTOR_HASH_FROM = 32
#: Characters per dot product, i.e. the length of the power table.
_HASH_BLOCK = 512


def stable_hash(text: str, multiplier: int) -> int:
    """The polynomial string hash ``h = (h * multiplier + ord(c)) mod 2**31``.

    Reproducible across processes and machines, which ``hash(str)`` is
    not; the MapReduce partitioner (x31) and the NoSQL store (x131)
    place keys with it.  Reduction mod 2**31 is a ring homomorphism, so
    the Horner recurrence equals ``sum(ord(c_i) * multiplier**(n-1-i))``;
    long strings take that sum as a ``uint64`` dot product, whose
    wrap-around mod 2**64 is harmless because 2**31 divides 2**64.
    """
    if len(text) < _VECTOR_HASH_FROM:
        digest = 0
        for char in text:
            digest = (digest * multiplier + ord(char)) & 0x7FFFFFFF
        return digest
    import numpy as np

    powers = _hash_powers(multiplier)
    # UTF-32 is one code point per unit; lone surrogates pass as ord() sees them.
    codes = np.frombuffer(
        text.encode("utf-32-le", "surrogatepass"), dtype="<u4"
    ).astype(np.uint64)
    digest = 0
    for start in range(0, len(codes), _HASH_BLOCK):
        block = codes[start : start + _HASH_BLOCK]
        block_hash = int(block.dot(powers[_HASH_BLOCK - len(block) :]))
        if digest:  # the blocks before this one, shifted past it
            block_hash += digest * pow(multiplier, len(block), 1 << 31)
        digest = block_hash & 0x7FFFFFFF
    return digest


#: From this many strings up one matrix product beats hashing them one
#: by one (measured, 16 strings: 12 vs 12 us at 4 characters, 17 vs 41
#: at 16; the product costs 9 us however few the strings).
_VECTOR_BATCH_FROM = 16


def stable_hashes(texts: Sequence[str], multiplier: int) -> list[int]:
    """``[stable_hash(text, multiplier) for text in texts]``, a batch at a time.

    The strings are right-aligned in a matrix of code points, padded on
    the left with zeros (a leading zero leaves the Horner recurrence at
    zero), and hashed by one ``uint64`` product with the power table.  A
    short batch, or one holding a string longer than the table, is
    hashed string by string.
    """
    width = max(map(len, texts), default=0)
    if len(texts) < _VECTOR_BATCH_FROM or width > _HASH_BLOCK:
        return [stable_hash(text, multiplier) for text in texts]
    import numpy as np

    aligned = "".join(text.rjust(width, "\0") for text in texts)
    codes = np.frombuffer(
        aligned.encode("utf-32-le", "surrogatepass"), dtype="<u4"
    ).reshape(len(texts), width)
    digests = codes.astype(np.uint64) @ _hash_powers(multiplier)[
        _HASH_BLOCK - width :
    ]
    return (digests & np.uint64(0x7FFFFFFF)).tolist()


@functools.lru_cache(maxsize=None)
def _hash_powers(multiplier: int):
    """``multiplier**k mod 2**64`` for k = _HASH_BLOCK-1 .. 0, read-only.

    Built at first use (numpy stays off the import path) and never
    grown, so threads can only ever race to build the same table.
    """
    import numpy as np

    powers = np.array(
        [pow(multiplier, k, 1 << 64) for k in range(_HASH_BLOCK - 1, -1, -1)],
        dtype=np.uint64,
    )
    powers.flags.writeable = False
    return powers


def percentile(sorted_samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of an already-sorted sample list.

    ``fraction`` is in [0, 1]; e.g. 0.99 for p99.
    """
    if not sorted_samples:
        raise ValueError("cannot take a percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if len(sorted_samples) == 1:
        return float(sorted_samples[0])
    position = fraction * (len(sorted_samples) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return float(sorted_samples[lower])
    weight = position - lower
    return float(sorted_samples[lower] * (1 - weight) + sorted_samples[upper] * weight)

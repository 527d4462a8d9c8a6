"""Reproducible random number streams.

Streams are built on a counter-based bit generator (Philox) keyed by
``(master_seed, stream_id)``.  Two streams with the same key produce
identical draws regardless of creation order or thread, and distinct
``stream_id`` values give statistically independent streams, so one
``stream_id`` per Monte Carlo replication makes results independent of how
replications are scheduled.

``substream(index)`` derives a stream positioned at a counter block that is
a pure function of (master_seed, stream_id, index): substreams never overlap
each other or the parent's own draws, and drawing from one does not disturb
another.  Scenario generators use one substream per variable so that vector
draws are prefix stable in the sample size and an edit to one variable's law
never shifts the draws of any other variable.

``StreamStack`` draws the streams of many ids side by side: row r of each
draw is exactly what the stream ``(master_seed, ids[r])`` draws, so a stack
of replications can be generated at once without changing one bit.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError

__all__ = ["RngStream", "StreamStack", "make_stream"]


_WORD = (1 << 64) - 1


def _counter(jump: int) -> np.ndarray:
    """The Philox counter that ``Philox(key).jumped(jump)`` starts from:
    ``jump * 2**128`` modulo ``2**256``, so jumps wrap modulo ``2**128``."""
    jump &= (1 << 128) - 1
    return np.array([0, 0, jump & _WORD, jump >> 64], dtype=np.uint64)


def _key(master_seed: int, stream_id: int) -> np.ndarray:
    """The Philox key of stream ``(master_seed, stream_id)``.

    An explicit uint64 array: from a plain list numpy would convert entries
    of 2**63 and more through float64, so that nearby seeds shared a key.
    """
    if not (0 <= master_seed <= _WORD and 0 <= stream_id <= _WORD):
        raise InvalidParameterError("master_seed and stream_id must be >= 0 and < 2**64")
    return np.array([master_seed, stream_id], dtype=np.uint64)


class _Draws:
    """Draw methods shared by single and stacked streams; ``_draw(method,
    size)`` returns raw draws of one ``numpy.random.Generator`` method."""

    def uniform(self, size=None):
        """Uniform(0, 1) draws."""
        return self._draw("random", size)

    def normal(self, size=None, loc=0.0, scale=1.0):
        """Normal draws with mean ``loc`` and standard deviation ``scale``."""
        draws = self._draw("standard_normal", size)
        return loc + scale * draws

    def bernoulli(self, p, size=None):
        """Bernoulli 0/1 draws with success probability ``p``.

        ``p`` may be a scalar or an array broadcasting against the draws.
        Each draw consumes exactly one uniform, so the k-th draw depends
        only on the k-th uniform and the k-th probability.
        """
        p = np.asarray(p, dtype=float)
        if np.any(p < 0.0) or np.any(p > 1.0) or not np.all(np.isfinite(p)):
            raise InvalidParameterError("bernoulli probabilities must lie in [0, 1]")
        u = self._draw("random", size)
        out = (u < p).astype(np.int64)
        return out if np.ndim(out) else int(out)


class RngStream(_Draws):
    """A named, reproducible stream of random draws.

    Parameters
    ----------
    master_seed : int
        Non-negative seed shared by a whole run.
    stream_id : int
        Non-negative identifier of this stream within the run.
    """

    def __init__(self, master_seed: int, stream_id: int, _jump: int = 0):
        self.master_seed = int(master_seed)
        self.stream_id = int(stream_id)
        self._jump = int(_jump)
        key = _key(self.master_seed, self.stream_id)
        self._gen = np.random.Generator(np.random.Philox(key=key, counter=_counter(self._jump)))

    def __repr__(self) -> str:
        return (
            f"RngStream(master_seed={self.master_seed}, "
            f"stream_id={self.stream_id}, jump={self._jump})"
        )

    def substream(self, index: int) -> "RngStream":
        """Derived stream at counter block ``index``, disjoint from this one.

        The result depends only on (master_seed, stream_id, index), never on
        how much has been drawn so far.  Indices of nested substreams share
        one flat space with their ancestors, so callers keep disjointness by
        using small indices at a single level of derivation.
        """
        if index < 0:
            raise InvalidParameterError("substream index must be >= 0")
        return RngStream(self.master_seed, self.stream_id, _jump=self._jump + index + 1)

    def _draw(self, method: str, size):
        return getattr(self._gen, method)(size)


class StreamStack(_Draws):
    """The streams ``(master_seed, id)`` for a block of ids, drawn side by side.

    A draw of ``size`` values returns an array of shape ``(len(ids), size)``
    whose row r is exactly what ``RngStream(master_seed, ids[r])`` (or the
    same substream of it) draws.  One Philox generator is reused: before each
    row its state is set to the stream's key and counter.
    """

    def __init__(self, master_seed: int, stream_ids, _jump: int = 0, _gen=None):
        self.master_seed = int(master_seed)
        self.stream_ids = [int(i) for i in stream_ids]
        self._jump = int(_jump)
        self._gen = _gen if _gen is not None else np.random.Generator(np.random.Philox(key=0))
        self._counter = _counter(self._jump)
        self._keys = [_key(self.master_seed, i) for i in self.stream_ids]

    def substream(self, index: int) -> "StreamStack":
        """The same substream of every stream, as ``RngStream.substream``."""
        if index < 0:
            raise InvalidParameterError("substream index must be >= 0")
        return StreamStack(self.master_seed, self.stream_ids, self._jump + index + 1, self._gen)

    def _draw(self, method: str, size):
        out = np.empty((len(self._keys), size))
        bitgen = self._gen.bit_generator
        fill = getattr(self._gen, method)
        for row, key in zip(out, self._keys):
            bitgen.state = {
                "bit_generator": "Philox",
                "state": {"counter": self._counter, "key": key},
                "buffer": np.zeros(4, dtype=np.uint64),
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
            fill(out=row)
        return out


def make_stream(master_seed: int, stream_id: int) -> RngStream:
    """Create the stream identified by ``(master_seed, stream_id)``."""
    return RngStream(master_seed, stream_id)

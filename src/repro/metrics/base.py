"""The :class:`Metric` declaration: one statistic, three execution engines.

A metric is declared **once** -- its name, the value it finalizes to,
the mergeable streaming state that computes it, the cross-chunk carry
state that state needs -- and every way of executing it derives from
that single definition:

* **sharded**: ``metric.init()`` (deferred float state) per shard,
  ``metric.update(state, chunk)`` in stream order within each shard,
  ``metric.merge(left, right)`` across adjacent shards in any tree
  shape, ``metric.finalize(state)`` at the root.  This is how the
  parallel experiment runner keeps ``--jobs N`` bit-identical.
* **out-of-core**: ``metric.fold(chunks)`` -- ``init(collapse=True)``
  plus a sequential ``update`` per memory-mapped chunk, O(1) float
  state.  This is ``repro-trace store stats``.
* **batch**: ``metric.batch(columns)`` is the one-chunk fold over an
  in-memory :class:`~repro.trace.TraceColumns` view.

A state class is the only place a statistic's arithmetic lives.  It is
built as ``state(collapse=...)`` and has ``update(chunk)``,
``merge(other)`` (absorb the stream segment that immediately follows)
and ``finalize(name="")``.

The exactness contract, enforced for every registered metric against a
scalar request-loop oracle by ``tests/metrics/``: ``finalize(fold(chunks))``
is the same value with ``==`` on floats -- the same bits, not
approximately equal -- for *any* chunking and any contiguous shard
split.  Integer state splits trivially; float folds go through
:class:`~repro.metrics.reductions.OrderedSum`; everything the stream
order feeds across a chunk boundary (previous arrival, previous
``end_lba``, the distinct-LBA set) is named in ``carry_fields`` and
carried explicitly by the state object.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Tuple

from repro.trace import TraceColumns

#: The execution engines every metric definition supports.
ENGINES: Tuple[str, ...] = ("batch", "sharded", "out-of-core")


class Metric:
    """One statistic, declared by its mergeable streaming state.

    ``state(collapse=False)`` builds a fresh state; ``update`` and
    ``merge`` delegate to it, ``finalize`` asks it for the value, and
    ``fold``/``batch`` are loops over those.
    """

    #: Execution engines the definition supports (all of them).
    engines: Tuple[str, ...] = ENGINES

    def __init__(
        self,
        name: str,
        value_doc: str,
        state: Callable[..., Any],
        carry_fields: Tuple[str, ...] = (),
    ) -> None:
        #: Registry key, e.g. ``"size_stats"``.
        self.name = name
        #: One-line description of the finalized value.
        self.value_doc = value_doc
        #: ``state(collapse=...)`` builds a fresh streaming state.
        self.state = state
        #: Names of the cross-chunk carry state (empty: order-insensitive
        #: integer state that needs no boundary handling).
        self.carry_fields = tuple(carry_fields)

    def init(self, collapse: bool = False) -> Any:
        """A fresh streaming state.

        ``collapse=True`` keeps float folds O(1) for sequential
        out-of-core consumption; the default deferred form is mergeable
        across contiguous shard splits (see
        :class:`~repro.metrics.reductions.OrderedSum`).
        """
        return self.state(collapse=collapse)

    def update(self, state: Any, chunk: TraceColumns) -> Any:
        """Fold the next chunk (in stream order) into ``state``."""
        state.update(chunk)
        return state

    def merge(self, left: Any, right: Any) -> Any:
        """Absorb ``right`` -- the summary of the stream segment that
        immediately follows ``left`` -- into ``left``."""
        left.merge(right)
        return left

    def finalize(self, state: Any, name: str = "") -> Any:
        """The metric's value for the folded stream."""
        return state.finalize(name)

    def fold(
        self,
        chunks: Iterable[TraceColumns],
        name: str = "",
        collapse: bool = True,
    ) -> Any:
        """Fold an in-order chunk iterable and finalize in one call."""
        state = self.init(collapse=collapse)
        for chunk in chunks:
            self.update(state, chunk)
        return self.finalize(state, name)

    def batch(self, columns: TraceColumns, name: str = "") -> Any:
        """The value over one in-memory column set: a one-chunk fold."""
        return self.fold((columns,), name)

    def __reduce__(self):
        """Definitions are registry singletons: a pickled or deep-copied
        state (shard workers clone and ship them freely) refers back to
        the registered definition, so its states still merge."""
        from .registry import get_metric

        return get_metric, (self.name,)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Metric {self.name!r}>"

"""Event history and the monotonic timed state sequence.

Events carry one of six kinds, following the usual agent-language postfix
conventions (``E`` external, ``I`` internal, ``N`` present, ``P`` past,
``A`` action, ``G`` goal).  The history keeps, per ``(kind, functor,
arity)`` key, the most recent entry in ``P`` and every superseded version
in the ``PNV`` archive, plus the full ordered log.  Time is an
engine-local non-negative integer tick; arrival order breaks timestamp
ties, which keeps replays deterministic.

A ``P``-kind filter (as written ``push_P`` in patterns and literals) is
answered from everything the agent remembers having happened: past,
external and internal events as well as performed actions.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple

from .terms import Term, functor_of, is_ground, render_term


class EventKind(Enum):
    EXTERNAL = "E"
    INTERNAL = "I"
    PRESENT = "N"
    PAST = "P"
    ACTION = "A"
    GOAL = "G"


# Kinds a past-filter sees: anything recorded is remembered as "past".
PAST_LIKE = (EventKind.PAST, EventKind.EXTERNAL, EventKind.INTERNAL, EventKind.ACTION)

KIND_BY_LETTER = {k.value: k for k in EventKind}


class TimestampRegression(Exception):
    """An event arrived with a timestamp older than the log's newest."""


@dataclass(frozen=True)
class Event:
    kind: EventKind
    payload: Term
    timestamp: int

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError("timestamp must be non-negative")
        if not is_ground(self.payload):
            raise ValueError(f"event payload not ground: {render_term(self.payload)}")
        if functor_of(self.payload) is None:
            raise ValueError("event payload must be a predicate atom")


Key = Tuple[EventKind, str, int]


_timestamp = attrgetter("timestamp")


def _key(e: Event) -> Key:
    functor, arity = functor_of(e.payload)
    return (e.kind, functor, arity)


class History:
    """Ordered log plus current (P) and archived (PNV) versions per key."""

    def __init__(
        self,
        retention: Optional[Dict[str, int]] = None,
        default_limit: Optional[int] = None,
    ) -> None:
        self.log: List[Event] = []
        self._p: Dict[Key, Tuple[Event, int]] = {}
        self._pnv: Dict[Key, List[Event]] = {}
        self._dropped = 0
        self._retention = dict(retention or {})
        self._default_limit = default_limit

    def record(self, e: Event) -> None:
        if self.log and e.timestamp < self.log[-1].timestamp:
            raise TimestampRegression(
                f"timestamp {e.timestamp} < last logged {self.log[-1].timestamp}"
            )
        key = _key(e)
        previous = self._p.get(key)
        if previous is not None:
            archive = self._pnv.setdefault(key, [])
            archive.append(previous[0])
            limit = self._retention.get(key[1], self._default_limit)
            if limit is not None and len(archive) > limit:
                dropped = len(archive) - limit
                del archive[:dropped]
                self._dropped += dropped
        self._p[key] = (e, len(self.log))
        self.log.append(e)

    def latest(self, kind: EventKind, functor: str, arity: int) -> Optional[Event]:
        entry = self._p.get((kind, functor, arity))
        return entry[0] if entry else None

    def latest_for_filter(self, kind: EventKind, functor: str, arity: int) -> Optional[Event]:
        """Newest entry matching a kind filter; PAST covers everything remembered."""
        if kind is not EventKind.PAST:
            return self.latest(kind, functor, arity)
        best: Optional[Tuple[Event, int]] = None
        for k in PAST_LIKE:
            entry = self._p.get((k, functor, arity))
            if entry is None:
                continue
            if best is None or (entry[0].timestamp, entry[1]) > (best[0].timestamp, best[1]):
                best = entry
        return best[0] if best else None

    def archived(self, kind: EventKind, functor: str, arity: int) -> List[Event]:
        return list(self._pnv.get((kind, functor, arity), ()))

    def since(self, ts: int, start: int = 0) -> Iterator[Tuple[int, Event]]:
        """Logged events with timestamp >= ``ts`` and their log index.

        ``start`` is a consumer's cursor: the log index it has read up to.
        The first index is found by bisection, so a consumer that reads
        only what was logged since its last read pays for the new events.
        """
        log = self.log
        i = bisect_left(log, ts, start, key=_timestamp)
        while i < len(log):
            yield i, log[i]
            i += 1

    @property
    def p_size(self) -> int:
        return len(self._p)

    @property
    def pnv_size(self) -> int:
        return sum(len(v) for v in self._pnv.values()) + self._dropped

    def __len__(self) -> int:
        return len(self.log)


# The fact base only needs read access; History itself is the view.
HistoryView = History


@dataclass(frozen=True)
class TimedState:
    index: int
    time: int
    snapshot: Tuple[int, int]  # (events recorded, fact-base version)


class StateSequence:
    """Monotonic timed state sequence: a new state only when something changed."""

    def __init__(self, start_time: int = 0, snapshot: Tuple[int, int] = (0, 0)) -> None:
        self.states: List[TimedState] = [TimedState(0, start_time, snapshot)]

    @property
    def current(self) -> TimedState:
        return self.states[-1]

    def advance(self, now: int, dirty: bool, snapshot: Optional[Tuple[int, int]] = None) -> bool:
        """Append state i+1 at time ``now`` iff the snapshot changed."""
        if now < self.current.time:
            raise TimestampRegression(f"state time {now} < current {self.current.time}")
        if not dirty:
            return False
        if snapshot is None:
            snapshot = self.current.snapshot
        self.states.append(TimedState(self.current.index + 1, now, snapshot))
        return True

"""Core domain types: alphabets, timestamped event data, and episodes.

Timestamps are integers throughout.  An event dataset may hold several
sequences; occurrences never cross sequence boundaries.  All types are
immutable after construction and safe for concurrent reads.  In an
episode string, symbols and arrows alternate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter, lt
from typing import IO, Iterable, NamedTuple


class EpisodeSyntaxError(ValueError):
    """Raised when an episode string does not match the grammar."""


class DataValidationError(ValueError):
    """Raised when event data or episodes violate an invariant."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct symbol names with a name<->id bijection."""

    symbols: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if any(not s for s in self.symbols):
            raise DataValidationError("alphabet symbols must be non-empty")
        index = {s: i for i, s in enumerate(self.symbols)}
        if len(index) != len(self.symbols):
            raise DataValidationError("alphabet symbols must be unique")
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "Alphabet":
        """Alphabet over the distinct names, in sorted order."""
        return cls(tuple(sorted(set(names))))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"symbol {name!r} not in alphabet") from None

    def name(self, event_type: int) -> str:
        return self.symbols[event_type]


class Event(NamedTuple):
    """One event: a symbol id plus its integer time of occurrence."""

    event_type: int
    time: int


new_event = partial(tuple.__new__, Event)  # skips the namedtuple's Python-level __new__
_first, _second = itemgetter(0), itemgetter(1)


@dataclass(frozen=True, eq=False)
class EventDataset:
    """One or more event sequences over a shared alphabet.

    Construction canonicalizes each sequence: events are sorted by
    (time, symbol name), so ties in time have a deterministic order.
    Two datasets compare equal when they hold the same (time, symbol)
    sequences, whatever their alphabets' id assignment.
    """

    sequences: tuple[tuple[Event, ...], ...]
    alphabet: Alphabet

    def __post_init__(self) -> None:
        m = self.alphabet.size
        canonical = []
        for seq in self.sequences:
            low, high = min(map(_first, seq), default=0), max(map(_first, seq), default=-1)
            if low < 0 or high >= m:
                raise DataValidationError(
                    f"event type id {low if low < 0 else high} outside alphabet of size {m}"
                )
            # Strictly increasing times leave no tie for the names to break.
            times = list(map(_second, seq))
            if not all(map(lt, times, times[1:])):
                seq = sorted(seq, key=lambda e: (e.time, self.alphabet.name(e.event_type)))
            canonical.append(tuple(seq))
        object.__setattr__(self, "sequences", tuple(canonical))

    @classmethod
    def from_tuples(
        cls,
        sequences: Iterable[Iterable[tuple[int, str]]],
        alphabet: Alphabet | None = None,
    ) -> "EventDataset":
        """Build from (time, symbol-name) pairs, one iterable per sequence.

        When no alphabet is given, one is created from the names seen,
        in sorted order.
        """
        raw = [list(seq) for seq in sequences]
        if alphabet is None:
            alphabet = Alphabet.from_names(name for seq in raw for _, name in seq)
        seqs = tuple(
            tuple(map(new_event, [(alphabet.index(name), int(t)) for t, name in seq]))
            for seq in raw
        )
        return cls(seqs, alphabet)

    @property
    def n_sequences(self) -> int:
        return len(self.sequences)

    @property
    def n_events(self) -> int:
        return sum(len(seq) for seq in self.sequences)

    def event_name(self, ev: Event) -> str:
        return self.alphabet.name(ev.event_type)

    def named_sequences(self) -> tuple[tuple[tuple[int, str], ...], ...]:
        """Sequences as (time, symbol name) pairs, the basis of equality."""
        return tuple(
            tuple((ev.time, self.alphabet.name(ev.event_type)) for ev in seq)
            for seq in self.sequences
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventDataset):
            return NotImplemented
        return self.named_sequences() == other.named_sequences()

    def __hash__(self) -> int:
        return hash(self.named_sequences())


@dataclass(frozen=True)
class _Episode:
    """The nodes of a serial episode: at least one, with distinct symbols."""

    event_types: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.event_types) < 1:
            raise DataValidationError("episode needs at least one node")
        if len(set(self.event_types)) != len(self.event_types):
            raise DataValidationError("episode event types must be distinct")

    @property
    def length(self) -> int:
        return len(self.event_types)


@dataclass(frozen=True)
class SerialEpisode(_Episode):
    """Ordered list of distinct event types, no inter-event gaps."""

    def __str__(self) -> str:
        return " -> ".join(self.event_types)


@dataclass(frozen=True)
class FixedIntervalEpisode(_Episode):
    """Serial episode with a prescribed integer gap between consecutive nodes.

    An occurrence is fully determined by the time of its first event: node i
    must occur exactly sum(gaps[:i]) time units after the start.
    """

    gaps: tuple[int, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        n = len(self.event_types)
        if len(self.gaps) != n - 1:
            raise DataValidationError(
                f"{n}-node episode needs {n - 1} gaps, got {len(self.gaps)}"
            )
        if any(g < 1 for g in self.gaps):
            raise DataValidationError("inter-event gaps must be >= 1")

    def offsets(self) -> tuple[int, ...]:
        """Time offset of each node relative to the start event."""
        acc = [0]
        for g in self.gaps:
            acc.append(acc[-1] + g)
        return tuple(acc)

    def __str__(self) -> str:
        return format_episode(self)


def span(episode: FixedIntervalEpisode) -> int:
    """Total duration of one occurrence: the sum of the inter-event gaps."""
    return sum(episode.gaps)


def format_episode(episode: FixedIntervalEpisode) -> str:
    """Canonical episode string, e.g. ``A -2-> B -1-> C``."""
    parts = [episode.event_types[0]]
    for gap, sym in zip(episode.gaps, episode.event_types[1:]):
        parts.append(f"-{gap}->")
        parts.append(sym)
    return " ".join(parts)


def _split_episode(text: str, alphabet: Alphabet | None) -> tuple[list[str], list[str]]:
    """The symbols and the arrows of an episode string, which alternate and
    begin and end with a symbol; a symbol outside ``alphabet`` raises KeyError."""
    tokens = text.split()
    if not tokens:
        raise EpisodeSyntaxError("empty episode string")
    if len(tokens) % 2 == 0:
        raise EpisodeSyntaxError(f"malformed episode string: {text!r}")
    for sym in tokens[0::2] if alphabet is not None else ():
        if sym not in alphabet:
            raise KeyError(f"unknown symbol {sym!r} in episode {text!r}")
    return tokens[0::2], tokens[1::2]


def parse_episode(
    text: str, alphabet: Alphabet | None = None
) -> FixedIntervalEpisode:
    """Parse an episode string of the form ``SYM (-<int>-> SYM)*``.

    Rejects duplicate symbols and gaps that are not positive integers
    spelled as ``str`` writes them (``-01->`` and ``-+1->`` are refused).
    When an alphabet is supplied, symbols outside it are rejected as well.
    """
    symbols, arrows = _split_episode(text, alphabet)
    for arrow in arrows:
        if re.fullmatch(r"-[1-9][0-9]*->", arrow) is None:
            raise EpisodeSyntaxError(f"gap {arrow!r} is not -<n>-> with n >= 1 in plain decimal")
    return FixedIntervalEpisode(tuple(symbols), tuple(int(arrow[1:-2]) for arrow in arrows))


def parse_serial_episode(
    text: str, alphabet: Alphabet | None = None
) -> SerialEpisode:
    """Parse a gap-free serial episode string like ``A -> B -> C``."""
    symbols, arrows = _split_episode(text, alphabet)
    if "->" in symbols or any(arrow != "->" for arrow in arrows):
        raise EpisodeSyntaxError(f"malformed serial episode string: {text!r}")
    return SerialEpisode(tuple(symbols))


def load_events(handle: IO[str]) -> EventDataset:
    """Read a dataset from event-file text.

    Format: one event per line as ``<time>\\t<event_type>``; a blank line
    separates sequences.  The alphabet is the sorted set of names seen.
    """
    sequences: list[list[tuple[int, str]]] = [[]]
    for lineno, line in enumerate(handle, start=1):
        stripped = line.strip()
        if not stripped:
            if sequences[-1]:
                sequences.append([])
            continue
        fields = stripped.split("\t")
        if len(fields) != 2:
            raise DataValidationError(
                f"line {lineno}: expected '<time>\\t<event_type>', got {line!r}"
            )
        try:
            t = int(fields[0])
        except ValueError:
            raise DataValidationError(f"line {lineno}: bad timestamp {fields[0]!r}")
        sequences[-1].append((t, fields[1]))
    if sequences and not sequences[-1]:
        sequences.pop()
    return EventDataset.from_tuples(sequences)


def dump_events(data: EventDataset, handle: IO[str]) -> None:
    """Write a dataset in the event-file format (canonical event order).

    Raises :class:`DataValidationError`, before writing anything, when a
    sequence is empty or a symbol that an event uses has leading or trailing
    whitespace or holds a tab or line break: :func:`load_events` would read
    such a file back as another dataset.
    """
    if not all(data.sequences):
        raise DataValidationError("an event file cannot hold an empty sequence")
    used = {ev.event_type for seq in data.sequences for ev in seq}
    for sym in map(data.alphabet.name, sorted(used)):
        if sym != sym.strip() or any(c in sym for c in "\t\n\r"):
            raise DataValidationError(
                f"symbol {sym!r} cannot be written to an event file"
            )
    names = data.alphabet.symbols
    for i, seq in enumerate(data.sequences):
        handle.write("\n" * (i > 0) + "".join([f"{t}\t{names[x]}\n" for x, t in seq]))

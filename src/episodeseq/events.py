"""Core domain types: alphabets, timestamped event data, and episodes.

Timestamps are integers throughout.  An event dataset may hold several
sequences; occurrences never cross sequence boundaries.  It is held in
CSR form: per-sequence offsets into flat symbol-id and time arrays.  Times
are int64 when all lie within ±2**61, else Python ints in an object array,
so every time is exact; whatever is not an integer is refused.  All types
are immutable after construction and safe for concurrent reads.  In an
episode string, symbols and arrows alternate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import repeat
from typing import IO, Iterable

import numpy as np


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


def _exact_ints(values, what: str = "event time") -> np.ndarray:
    """Integers as int64 when all lie within ±2**61, where differences and
    axis steps cannot overflow, else as Python ints in an object array.
    Anything else, a float say, raises :class:`DataValidationError`."""
    if not (isinstance(values, np.ndarray) and values.dtype == np.int64 and values.ndim == 1):
        values = values.tolist() if isinstance(values, np.ndarray) else values
        if not all(map(isinstance, values, repeat((int, np.integer)))):
            raise DataValidationError(f"{what}s must be integers")
    try:
        out = np.asarray(values, np.int64).view()  # so freezing it spares the caller's array
        if not len(out) or (-(2**61) < out.min() and out.max() < 2**61):
            return out
    except OverflowError:
        pass
    return np.array(values, object)


def _name_rank(alphabet: "Alphabet") -> np.ndarray:
    """Per symbol id, the symbol's position in name order."""
    return np.argsort(sorted(range(alphabet.size), key=alphabet.symbols.__getitem__))


class EventDataset:
    """One or more event sequences over a shared alphabet, held as arrays.

    Sequence ``s`` is events ``offsets[s]`` to ``offsets[s + 1] - 1`` of the
    flat, read-only ``types`` (int64 symbol ids) and ``times`` arrays, the
    times kept exact by :func:`_exact_ints`.  The constructor checks the
    arrays (:class:`DataValidationError`) and sorts each sequence by (time,
    symbol name), so ties in time have a deterministic order.  Two datasets
    compare equal when they hold the same (time, symbol) sequences,
    whatever their alphabets' id assignment.
    """

    def __init__(self, offsets, types, times, alphabet: Alphabet):
        offsets, m = _exact_ints(offsets, "offset"), alphabet.size
        types, times = _exact_ints(types, "event type id"), _exact_ints(times)
        if len(times) != len(types):
            raise DataValidationError(f"{len(types)} event type ids but {len(times)} times")
        n = len(types)
        if not len(offsets) or offsets[0] != 0 or offsets[-1] != n or (np.diff(offsets) < 0).any():
            raise DataValidationError(f"offsets must rise from 0 to the event count, {n}")
        bad = np.flatnonzero((types < 0) | (types >= m))  # a huge id is an object array here
        if len(bad):
            raise DataValidationError(f"event type id {types[bad[0]]} outside alphabet of size {m}")
        opens = np.zeros(n + 1, bool)
        opens[offsets] = True  # opens[i]: event i is the first of its sequence
        step, rank = np.diff(times), _name_rank(alphabet)
        if not ((step > 0) | (step == 0) & (np.diff(rank[types]) >= 0) | opens[1:-1]).all():
            seq = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
            order = np.lexsort((rank[types], times, seq))
            types, times = types[order], times[order]
        for array in (offsets, types, times):
            array.flags.writeable = False
        self.__dict__.update(alphabet=alphabet, offsets=offsets, types=types, times=times)

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
        raw = [[(t, name) for t, name in seq] for seq in sequences]
        times, names = ([pair[k] for seq in raw for pair in seq] for k in (0, 1))
        if alphabet is None:
            alphabet = Alphabet.from_names(names)
        return cls(np.cumsum([0, *map(len, raw)]), [*map(alphabet.index, names)], times, alphabet)

    @property
    def n_sequences(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_events(self) -> int:
        return len(self.types)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventDataset):
            return NotImplemented
        names = [np.array(d.alphabet.symbols, object)[d.types] for d in (self, other)]
        same = np.array_equal(self.offsets, other.offsets) and np.array_equal(self.times, other.times)
        return same and np.array_equal(*names)

    def __hash__(self) -> int:  # equal datasets may number their symbols apart
        return hash((*self.offsets.tolist(), *self.times.tolist()))

    def __repr__(self) -> str:
        arrays = (self.offsets.tolist(), self.types.tolist(), self.times.tolist())
        return f"EventDataset({', '.join(map(repr, arrays))}, {self.alphabet!r})"

    def __reduce__(self):  # through the constructor, so copies are read-only too
        return EventDataset, (self.offsets, self.types, self.times, self.alphabet)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"EventDataset is immutable; cannot set {name!r}")


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

    Format: one event per line as ``<time>\\t<event_type>``, where the time
    is any text ``int`` reads; a blank line separates sequences.  The
    alphabet is the sorted set of names seen.
    """
    lines = list(handle)
    stripped = list(map(str.strip, lines))
    filled = np.flatnonzero(np.fromiter(map(len, stripped), np.int64, len(stripped)))
    kept = [stripped[i] for i in filled.tolist()]
    del stripped
    one_tab = set(map(str.count, kept, repeat("\t"))) <= {1}
    fields = "\t".join(kept)
    del kept  # so that the split fields never live beside the kept lines
    fields = fields.split("\t") if fields else []
    try:  # every kept line holds exactly one tab, and int reads each time
        if not one_tab:
            raise ValueError
        times = _exact_ints(list(map(int, fields[0::2])))
    except ValueError:  # raise the error of the first bad line, counting from 1
        for lineno, line in enumerate(lines, start=1):
            fields = line.strip().split("\t")
            if fields == [""]:
                continue
            if len(fields) != 2:
                raise DataValidationError(
                    f"line {lineno}: expected '<time>\\t<event_type>', got {line!r}"
                ) from None
            try:
                int(fields[0])
            except ValueError:
                raise DataValidationError(f"line {lineno}: bad timestamp {fields[0]!r}") from None
    names = fields[1::2]
    del lines, fields
    alphabet = Alphabet.from_names(names)
    types = np.fromiter(map(alphabet._index.__getitem__, names), np.int64, len(names))
    # A sequence starts at each filled line that follows a blank one.
    heads = np.flatnonzero(np.diff(filled, prepend=-2) > 1)
    return EventDataset(np.append(heads, len(names)), types, times, alphabet)


def dump_events(data: EventDataset, handle: IO[str]) -> None:
    """Write a dataset in the event-file format (canonical event order).

    Raises :class:`DataValidationError`, before writing anything, when a
    sequence is empty or a symbol that an event uses has leading or trailing
    whitespace or holds a tab or line break: :func:`load_events` would read
    such a file back as another dataset.
    """
    if (np.diff(data.offsets) == 0).any():
        raise DataValidationError("an event file cannot hold an empty sequence")
    used = np.flatnonzero(np.bincount(data.types, minlength=data.alphabet.size))
    for sym in map(data.alphabet.name, used.tolist()):
        if sym != sym.strip() or any(c in sym for c in "\t\n\r"):
            raise DataValidationError(
                f"symbol {sym!r} cannot be written to an event file"
            )
    names, ends = data.alphabet.symbols, data.offsets.tolist()
    lines = [f"{t}\t{names[x]}\n" for t, x in zip(data.times.tolist(), data.types.tolist())]
    handle.write("\n".join("".join(lines[a:z]) for a, z in zip(ends, ends[1:])))

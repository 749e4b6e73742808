"""Walk through episodes, occurrences, and the non-overlapped filter.

Run:  python demos/01_episode_basics.py
"""

from episodeseq import (
    count_no_general,
    find_distinct_starts,
    find_no_occurrences,
    parse_episode,
    parse_serial_episode,
    span,
)
from episodeseq.datasets import sample_dataset

data = sample_dataset()
print("The bundled sample sequence (time, event):")
names = map(data.alphabet.name, data.types.tolist())
print("  ", list(zip(data.times.tolist(), names)))
print()

# A fixed-interval episode prescribes the exact gap between its events, so
# one start time pins down the whole occurrence.
episode = parse_episode("A -2-> B -1-> C")
print(f"Episode {episode} spans {span(episode)} time units.")

# Starts are a sequence-index array and a time array; the sample holds one sequence.
occ = find_distinct_starts(data, episode)
times = tuple(occ.starts.times.tolist())
print(f"Distinct occurrence starts: {times}  (frequency {occ.total})")

# Non-overlapped occurrences: each kept start must clear the previous
# occurrence's end.  The greedy filter below is provably maximal.
kept = find_no_occurrences(occ)
times = tuple(kept.starts.times.tolist())
print(f"Non-overlapped starts:      {times}  (frequency {kept.total})")
print()

# Episodes without fixed gaps are counted with a single left-to-right scan.
serial = parse_serial_episode("A -> B -> C")
print(f"Non-overlapped count of {serial}: {count_no_general(data, serial)}")

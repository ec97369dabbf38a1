"""Link-level helpers shared by the simulator and the classifier.

All times are integer virtual microseconds. Sequence numbers are byte
offsets from the start of each direction's payload stream; the handshake
consumes no sequence space in this model.

A segment on the link is a ``traceio.TraceEvent``, built once by the
endpoint that sends it: the server stamps its own ``rx`` records with their
arrival time, the prober its ``tx`` records with the time it sends them,
and the prober's trace holds those same objects. ``Segment`` is a second
name for that one record type.
"""

from .traceio import TraceEvent

US_PER_MS = 1000

Segment = TraceEvent


def first_index(seq: int, mss: int) -> int:
    """1-based packet number of the byte at offset ``seq``."""
    return seq // mss + 1


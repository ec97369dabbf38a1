"""Wire-level segment model shared by the sender, simulator and prober.

All times are integer virtual microseconds. Sequence numbers are byte
offsets from the start of each direction's payload stream; the handshake
consumes no sequence space in this model.

A ``Segment`` is a slotted dataclass: cheap to build, compared by value,
not hashable. It checks itself in its own ``__init__``, so building one
costs a single call. Nothing in the package alters a segment after
building it, and callers should treat it as read-only too.
"""

from dataclasses import dataclass

US_PER_MS = 1000


class Flag:
    """TCP control bits; a segment's ``flags`` is an int of these ORed."""

    SYN = 1
    ACK = 2
    FIN = 4
    RST = 8


@dataclass(slots=True, init=False)
class Segment:
    seq: int
    len: int
    ack: int
    flags: int
    ip_id: int
    mss_option: int | None = None

    def __init__(self, seq, len, ack, flags, ip_id, mss_option=None):
        if len < 0:
            raise ValueError("negative payload length")
        if flags & Flag.SYN and flags & Flag.RST:
            raise ValueError("SYN and RST are mutually exclusive")
        if mss_option is not None:
            if not flags & Flag.SYN:
                raise ValueError("mss_option is only valid on SYN segments")
            if mss_option < 1:
                raise ValueError("mss_option must be at least 1")
        self.seq = seq
        self.len = len
        self.ack = ack
        self.flags = flags
        self.ip_id = ip_id
        self.mss_option = mss_option

    @property
    def end(self) -> int:
        return self.seq + self.len


def first_index(seq: int, mss: int) -> int:
    """1-based packet number of the byte at offset ``seq``."""
    return seq // mss + 1


def covered_indices(seq: int, length: int, mss: int) -> range:
    """1-based packet numbers a payload [seq, seq+length) touches."""
    if length <= 0:
        return range(0)
    return range(seq // mss + 1, (seq + length - 1) // mss + 2)

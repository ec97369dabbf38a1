"""Wire-level segment model shared by the sender, simulator and prober.

All times are integer virtual microseconds. Sequence numbers are byte
offsets from the start of each direction's payload stream; the handshake
consumes no sequence space in this model.

A ``Segment`` is a slotted dataclass: cheap to build, compared by value,
not hashable. Nothing in the package alters a segment after building it,
and callers should treat it as read-only too.
"""

from dataclasses import dataclass

US_PER_MS = 1000


class Flag:
    """TCP control bits; a segment's ``flags`` is an int of these ORed."""

    SYN = 1
    ACK = 2
    FIN = 4
    RST = 8


@dataclass(slots=True)
class Segment:
    seq: int
    len: int
    ack: int
    flags: int
    ip_id: int
    mss_option: int | None = None

    def __post_init__(self):
        if self.len < 0:
            raise ValueError("negative payload length")
        if self.flags & Flag.SYN and self.flags & Flag.RST:
            raise ValueError("SYN and RST are mutually exclusive")
        if self.mss_option is not None and not self.flags & Flag.SYN:
            raise ValueError("mss_option is only valid on SYN segments")

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

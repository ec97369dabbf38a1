"""Wire-level segment model shared by the sender, simulator and prober.

All times are integer virtual microseconds. Sequence numbers are byte
offsets from the start of each direction's payload stream; the handshake
consumes no sequence space in this model.
"""

import enum
from dataclasses import dataclass

SERVER = "server"
PROBER = "prober"

US_PER_MS = 1000


class Flag(enum.Flag):
    SYN = enum.auto()
    ACK = enum.auto()
    FIN = enum.auto()
    RST = enum.auto()


@dataclass(frozen=True)
class Segment:
    src_role: str
    seq: int
    len: int
    ack: int
    flags: Flag
    ip_id: int
    sent_at: int
    mss_option: int | None = None

    def __post_init__(self):
        if self.len < 0:
            raise ValueError("negative payload length")
        if Flag.SYN in self.flags and Flag.RST in self.flags:
            raise ValueError("SYN and RST are mutually exclusive")
        if self.mss_option is not None and Flag.SYN not in self.flags:
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

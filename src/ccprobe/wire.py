"""The segment on the simulated link, by a second name.

A segment is a ``traceio.TraceEvent``, built once by the endpoint that
sends it: the server stamps its ``rx`` records with their arrival time,
the prober its ``tx`` records with their send time, and the prober's
trace holds those same objects. Its ``seq`` is a byte offset from the
start of its direction's payload stream; the handshake takes no sequence
space. ``Segment`` names the record type for the benchmark's tracer,
which counts record builds through it.
"""

from .traceio import TraceEvent

Segment = TraceEvent

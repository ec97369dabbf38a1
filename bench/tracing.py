"""Spans and counts at the boundaries of ccprobe's modules.

``Tracer.install(lib)`` replaces the public entry points of each module
with wrappers that record a span (name, start, end, parent span, item
id) and count work at the same boundary; ``uninstall`` puts the
originals back. Nothing under ``src/ccprobe`` knows about this. Spans
are kept in flat arrays and turned into per-layer metrics, and
optionally a CSV, when the run ends.

A span's layer is the first component of its name. Self time is a
span's duration minus the durations of its direct child spans, so a
caller is not charged for a wrapped callee; the wrappers' own cost lands
in the caller's self time.
"""

from array import array
from collections import Counter
from time import perf_counter

ITEM = "item"  # the benchmark's own span around one timed item
LAYERS = ("netsim", "sender", "prober", "classifier", "traceio")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.item = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.item_id = -1  # id stamped on new spans; -1 outside timed items
        self.counts = Counter()
        self._undo = []
        self._high_water = {}  # id(sender) -> highest byte sent this run

    # -- recording ------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result)`` counts."""
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        names, parents, items = self.name, self.parent, self.item
        starts, ends, stack = self.start, self.end, self.stack

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner, attr, name, after=None):
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, original, after))
        self._undo.append((owner, attr, original))

    def install(self, lib):
        netsim, sender, prober = lib.netsim, lib.sender.Sender, lib.prober.ProbeSession
        endpoint = netsim.HttpServerEndpoint
        self._patch(netsim, "sim_init", "netsim.sim_init")
        self._patch(netsim, "run_to_completion", "netsim.run_to_completion", self._after_run)
        self._patch(endpoint, "handle_segment", "netsim.endpoint.handle_segment")
        self._patch(endpoint, "on_timer", "netsim.endpoint.on_timer", self._after_timer)
        for method in ("on_ack", "pump_transmissions", "on_rto"):
            self._patch(sender, method, f"sender.{method}", self._after_sender)
        for method in ("start", "handle_segment"):
            self._patch(prober, method, f"prober.{method}", self._after_prober)
        for func in ("classify_trace", "extract_features", "detect_retransmissions", "detect_reordering"):
            after = self._after_classify if func == "classify_trace" else None
            self._patch(lib.classifier, func, f"classifier.{func}", after)
        self._patch(lib.traceio, "write_trace", "traceio.write_trace", self._after_write)
        self._patch(lib.traceio, "read_trace", "traceio.read_trace", self._after_read)
        self._patch(lib.traceio, "emit_plot_points", "traceio.emit_plot_points", self._after_plot)

        # Segment construction, including dataclasses.replace copies, is
        # counted but not timed: it sits inside every other layer's spans.
        segment = lib.wire.Segment
        construct = segment.__dict__["__init__"]
        counts = self.counts

        def counted_init(seg, *args, **kwargs):
            counts["wire.segments_built"] += 1
            construct(seg, *args, **kwargs)

        segment.__init__ = counted_init
        self._undo.append((segment, "__init__", construct))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- counts at the boundaries ----------------------------------------

    def _after_run(self, args, result):
        world, (trace, _reason) = args[0], result
        self.counts["sim.runs"] += 1
        self.counts["sim.events"] += len(trace)
        self.counts["sim.dupacks"] += world.prober.dupacks_sent
        self.counts["sim.acks_sent"] += sum(ev.dir == "tx" and ev.kind == "ack" for ev in trace)
        self._high_water.clear()

    def _after_timer(self, args, result):
        self.counts["sim.timers"] += 1

    def _after_sender(self, args, segments):
        if self.stack and self.names[self.name[self.stack[-1]]].startswith("sender."):
            return  # nested call: its segments are in the caller's result
        sender = args[0]
        high = self._high_water.get(id(sender), 0)
        for seg in segments:
            self.counts["sender.segments"] += 1
            self.counts["sender.bytes"] += seg.len
            self.counts["sender.full"] += seg.len == sender.mss
            self.counts["sender.fresh_bytes"] += max(0, seg.seq + seg.len - max(seg.seq, high))
            high = max(high, seg.seq + seg.len)
        self._high_water[id(sender)] = high

    def _after_prober(self, args, segments):
        self.counts["prober.segments"] += len(segments)

    def _after_classify(self, args, report):
        self.counts["classifier.events"] += len(args[0])

    def _after_write(self, args, result):
        self.counts["traceio.write_events"] += len(args[0])
        self.counts["traceio.bytes"] += args[1].tell()  # the trace is ASCII

    def _after_read(self, args, events):
        self.counts["traceio.read_events"] += len(events)

    def _after_plot(self, args, points):
        self.counts["traceio.plot_events"] += len(args[0])

    # -- analysis -------------------------------------------------------

    def _durations(self):
        dur = [e - s for s, e in zip(self.start, self.end)]
        children = [0.0] * len(dur)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent] += dur[index]
        return dur, [d - c for d, c in zip(dur, children)]

    def _by_name(self, keep=lambda item: True):
        """{span name: (calls, total seconds, self seconds)} over kept items."""
        dur, own = self._durations()
        calls, total, alone = Counter(), Counter(), Counter()
        for name_id, item, d, s in zip(self.name, self.item, dur, own):
            if keep(item):
                calls[name_id] += 1
                total[name_id] += d
                alone[name_id] += s
        return {self.names[k]: (calls[k], total[k], alone[k]) for k in calls}

    def layer_metrics(self) -> dict:
        """{metric: (value, unit)} over every span and count recorded."""
        spans = self._by_name()
        c = self.counts

        def calls(*names):
            return sum(spans.get(n, (0, 0, 0))[0] for n in names)

        def total_us(name):
            return 1e6 * spans.get(name, (0, 0, 0))[1]

        def self_us(prefix):
            return 1e6 * sum(v[2] for n, v in spans.items() if n.startswith(prefix))

        runs, events, classified = c["sim.runs"], c["sim.events"], c["classifier.events"]
        us, count, ratio = "us", "count", "ratio"
        return {
            "netsim.setup_us_per_item": (_ratio(total_us("netsim.sim_init"), calls("netsim.sim_init")), us),
            "netsim.loop_self_us_per_event": (_ratio(self_us("netsim.run_to_completion"), events), us),
            "netsim.endpoint_self_us_per_event": (_ratio(self_us("netsim.endpoint."), events), us),
            "netsim.events_per_item": (_ratio(events, runs), count),
            "netsim.timers_fired_per_item": (_ratio(c["sim.timers"], runs), count),
            "sender.self_us_per_event": (_ratio(self_us("sender."), events), us),
            "sender.calls_per_item": (_ratio(calls("sender.on_ack", "sender.pump_transmissions", "sender.on_rto"), runs), count),
            "sender.segments_per_item": (_ratio(c["sender.segments"], runs), count),
            "sender.fresh_byte_share": (_ratio(c["sender.fresh_bytes"], c["sender.bytes"]), ratio),
            "sender.full_segment_share": (_ratio(c["sender.full"], c["sender.segments"]), ratio),
            "prober.self_us_per_event": (_ratio(self_us("prober."), events), us),
            "prober.segments_per_item": (_ratio(c["prober.segments"], runs), count),
            "prober.dupack_share": (_ratio(c["sim.dupacks"], c["sim.acks_sent"]), ratio),
            "wire.segments_built_per_event": (_ratio(c["wire.segments_built"], events), count),
            "classifier.us_per_event": (_ratio(total_us("classifier.classify_trace"), classified), us),
            "classifier.retx_scan_us_per_event": (_ratio(total_us("classifier.detect_retransmissions"), classified), us),
            "classifier.reorder_scan_us_per_event": (_ratio(total_us("classifier.detect_reordering"), classified), us),
            "classifier.features_self_us_per_event": (_ratio(self_us("classifier.extract_features"), classified), us),
            "traceio.write_us_per_event": (_ratio(total_us("traceio.write_trace"), c["traceio.write_events"]), us),
            "traceio.read_us_per_event": (_ratio(total_us("traceio.read_trace"), c["traceio.read_events"]), us),
            "traceio.plot_us_per_event": (_ratio(total_us("traceio.emit_plot_points"), c["traceio.plot_events"]), us),
            "traceio.bytes_per_event": (_ratio(c["traceio.bytes"], c["traceio.write_events"]), "B"),
        }

    def item_shares(self) -> dict:
        """Each layer's self time as a share of timed item time."""
        spans = self._by_name(keep=lambda item: item >= 0)
        item_time = spans.get(ITEM, (0, 0.0, 0.0))[1]
        shares = {}
        for layer in LAYERS + (ITEM,):
            own = sum(v[2] for n, v in spans.items() if n.split(".")[0] == layer)
            shares[layer] = _ratio(own, item_time)
        return shares

    def write_csv(self, path) -> None:
        """One line per span; times in microseconds from the first span."""
        origin = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("span,parent,item,name,start_us,end_us\n")
            for index, (name_id, parent, item, start, end) in enumerate(
                zip(self.name, self.parent, self.item, self.start, self.end)
            ):
                out.write(
                    f"{index},{parent},{item},{self.names[name_id]},"
                    f"{(start - origin) * 1e6:.3f},{(end - origin) * 1e6:.3f}\n"
                )


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0

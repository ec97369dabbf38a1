"""Golden traces: the JSONL of 30 fixed scenarios is pinned byte for byte.

A refactor or speed-up of the simulator, the sender, the prober or the
trace writer must leave every digest here unchanged. A change that is
meant to alter behaviour updates the table and says why.
"""

import hashlib

from ccprobe import ProbeScript, Variant

from conftest import run_scenario, trace_text

GOLDEN_RTTS_MS = (100, 10, 50, 200, 500)

# SHA-256 of each run's write_trace output, keyed by (rtt_ms, variant name).
GOLDEN = {
    (100, "TAHOE"): "02559cfe2c9861511b08f01fc76744ce089e44a5fb43670bc281dffe41e7d068",
    (100, "RENO"): "23a487549072bab0240b18a619124533b8057b626ed1be4ce4d799e88e157bf7",
    (100, "NEWRENO"): "e4109d7fce3a3060aa2f4b989f63d9f51666233a808efecdbc8377ed09f4db49",
    (100, "NO_FAST_RETRANSMIT"): "47fdfdccb8489df139487c52cd501c583b4ab01e8fee873a6a8f8902b518ae7d",
    (100, "RENO_PLUS"): "6e21c1e8781bc13a32422c509d5c7cd9ab721eb00710772aa7877a9fce675d90",
    (10, "TAHOE"): "67864a91a285614cf32aba9fb161b3407cdfdbb2743058e605c41176d056c3de",
    (10, "RENO"): "480ad7be11db4e9e74f08aeca75ca9b5d39334517120c9691130de03d6b5f62a",
    (10, "NEWRENO"): "1c2c0f29bcc7d1f867975da232b00acaebce2240715648c8dc6e86ab0e8b8b7e",
    (10, "NO_FAST_RETRANSMIT"): "578b4224b5ac5650738eea2eb036f90f5c51fe502a54a560c76836c60de8a821",
    (10, "RENO_PLUS"): "45549627ce65931bdc1750e3ef4abc2165e20d5458baf61cf3dc10b86aa6c121",
    (50, "TAHOE"): "30b451aaa9cfbe67c01e02e0c651127b7b7914e3b335250a63b2571d330723c6",
    (50, "RENO"): "412692e7db3c012e5b7854ff0533c3a5f4c9640d2de543b9fc0fa45ba0359b50",
    (50, "NEWRENO"): "033b680938525a2c6988cae2bb3680f06a7ea783ac722834031ca53c8ab9cbb1",
    (50, "NO_FAST_RETRANSMIT"): "0143195b4c3f1256f8063ba83dc0af589e70d5e00a84477ff8194280d36b6dfc",
    (50, "RENO_PLUS"): "73a9da6dd8f46dfb7da4f81fc2f8ce0dcb771217bd41ba2f2dbcbb56b202997b",
    (200, "TAHOE"): "a1ef8737322eddbe3ce3b8712987e1a35bee929ca7bfa1f1e44b3598ad180706",
    (200, "RENO"): "c34d3f680a572364effc3831fa535c9ff6182efd319cb85aa28fb96861e27109",
    (200, "NEWRENO"): "a170930e2654fd5bee0b448eec22adda692c63a650bf0226b8785868e3ef2b7c",
    (200, "NO_FAST_RETRANSMIT"): "f4889ce078e38f6488064d82994141cc7f69913325a9f62248eb51022fee3e4f",
    (200, "RENO_PLUS"): "856c17e77a4d9900144eb13c6e42810fbe9431f680d69108b52c1732fb9e864f",
    (500, "TAHOE"): "af3d6314ea6f17a066acb567aa5628b97a49b318c019517555e2bd2496784094",
    (500, "RENO"): "e6f594e3609b37c086460af933b628ae9a4ac885c18a5dc27b590187d422dce2",
    (500, "NEWRENO"): "796088906cf77c46d9a4612bc20d3cc964efdffa2c3ed5fd93bf8e003c632b49",
    (500, "NO_FAST_RETRANSMIT"): "342499cbb031d521df0bb9e9a831236d3b9599c890754e2e5d40e984d660046c",
    (500, "RENO_PLUS"): "0fdac67feedf839a4a1a6e49234e6149a2557219c3a0e139363dae01b63ae90a",
}

# One digest over all 25 texts, RTT outer in GOLDEN_RTTS_MS order, variants
# in enum order: a single number to compare against an outside record.
GOLDEN_ALL = "a4226f2415aa4dbc1be49b2ded4e36aed196fb56b7521bcb3ce59ea87d059002"


def test_golden_trace_digests():
    combined = hashlib.sha256()
    digests = {}
    for rtt_ms in GOLDEN_RTTS_MS:
        for variant in Variant:
            text = trace_text(run_scenario(variant, rtt_ms=rtt_ms).trace).encode()
            combined.update(text)
            digests[(rtt_ms, variant.name)] = hashlib.sha256(text).hexdigest()
    assert digests == GOLDEN
    assert combined.hexdigest() == GOLDEN_ALL


# A 300-packet page acked to packet 250 at RTT 50 ms: 1,230-1,439 events,
# each run closed by the prober. Congestion avoidance makes most data
# arrivals runts, so this fences the long-window paths of the sender, the
# event loop and the prober that the 3,000-byte pages above never reach.
LONG_PAGE = dict(rtt_ms=50, page_bytes=30_000, probe_script=ProbeScript(ack_limit_packet=250))

GOLDEN_LONG = {
    "TAHOE": "3c0f4d093bc57f3ec3679fbd05b458354c71b1fa00d93c132c427b07da5aca67",
    "RENO": "e50f4f25286e6be46ab44f2b3a1169e1891448deedefcdf9f0b6d474a8ab7e7f",
    "NEWRENO": "5039525a84f018450503a9b4dad578fb3cad0657bb5ae8779b1d7b6ff659f1e1",
    "NO_FAST_RETRANSMIT": "628e627ceb4cc959be84682279635f62b10ab836e33a1fa413d9e9c55f72ab87",
    "RENO_PLUS": "fbad06b1b9cc0d94e8aec1925b638a22d16771e2bf77b415804cf70a9319fa66",
}


def test_long_page_trace_digests():
    digests = {
        variant.name: hashlib.sha256(
            trace_text(run_scenario(variant, **LONG_PAGE).trace).encode()
        ).hexdigest()
        for variant in Variant
    }
    assert digests == GOLDEN_LONG

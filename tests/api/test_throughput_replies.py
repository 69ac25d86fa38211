"""Pinned ``/v1/throughput`` and ``/v1/compare`` replies.

``REQUESTS`` is replayed in order against a fresh service and every
reply must equal ``data/throughput_replies.json`` key for key and value
for value; only timings and request ids are dropped.  The list covers
the default solver, ``highs-colgen``, ``highs-paths:k=4``, ``"warm":
false``, a failure scenario, a fraction repeated within one request, and
repeats that hit the result memo and the warm backend.  The pinned file
was recorded when ``/v1/throughput`` still drove colgen contexts of its
own, so it also pins that routing every solve through
``SolverBackend.solve_many`` left the replies unchanged.

Regenerate (only for an intended change of reply content) with::

    PYTHONPATH=src python -m tests.api.test_throughput_replies \
        > tests/api/data/throughput_replies.json
"""

import json
import os
import sys

from repro.api import ApiService, InProcessClient
from repro.perf import clear_shared_caches

JELLYFISH = "jellyfish:switches=12,degree=4,servers=2"
XPANDER = "xpander:degree=4,lift=3,servers=2"
FAILURES = "links:fraction=0.1,seed=1"

PINNED = os.path.join(
    os.path.dirname(__file__), "data", "throughput_replies.json"
)

REQUESTS = [
    ("/v1/throughput", {"topology": JELLYFISH, "fractions": [0.5, 1.0]}),
    ("/v1/throughput", {"topology": JELLYFISH, "fractions": [0.5, 1.0]}),
    ("/v1/throughput", {"topology": JELLYFISH, "fraction": 0.8}),
    ("/v1/throughput",
     {"topology": JELLYFISH, "fraction": 0.8, "solver": "highs-colgen"}),
    ("/v1/throughput",
     {"topology": JELLYFISH, "fraction": 0.8, "per_server_demand": 0.5}),
    ("/v1/throughput",
     {"topology": JELLYFISH, "fractions": [0.5, 1.0],
      "solver": "highs-paths:k=4"}),
    ("/v1/throughput",
     {"topology": JELLYFISH, "fractions": [0.5, 1.0],
      "solver": "highs-paths:k=4"}),
    ("/v1/throughput",
     {"topology": JELLYFISH, "fractions": [0.5, 0.7], "warm": False}),
    ("/v1/throughput",
     {"topology": JELLYFISH, "fraction": 1.0, "failures": FAILURES}),
    ("/v1/throughput",
     {"topology": JELLYFISH, "fraction": 1.0, "failures": FAILURES}),
    ("/v1/throughput", {"topology": XPANDER, "fractions": [0.6, 0.4, 0.6]}),
    ("/v1/compare",
     {"topologies": [JELLYFISH, XPANDER], "fractions": [0.5, 0.9]}),
    ("/v1/compare",
     {"topologies": [JELLYFISH, XPANDER], "fractions": [0.5, 0.9]}),
    ("/v1/compare",
     {"topologies": [JELLYFISH, XPANDER], "fraction": 1.0,
      "solver": "highs-paths:k=4", "warm": False}),
]

_VOLATILE = ("wall_time_s", "solve_time_s", "request_id")


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k not in _VOLATILE}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def replay():
    """``[(status, reply)]`` of ``REQUESTS`` on a fresh service."""
    clear_shared_caches()
    client = InProcessClient(ApiService())
    replies = []
    for path, body in REQUESTS:
        resp = client.post(path, dict(body))
        replies.append([resp.status, _strip(resp.json)])
    clear_shared_caches()
    return replies


def test_replies_match_the_pinned_replies():
    with open(PINNED) as f:
        pinned = json.load(f)
    # JSON round trip: tuples and floats compare as they were written.
    assert json.loads(json.dumps(replay())) == pinned


if __name__ == "__main__":
    json.dump(replay(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")

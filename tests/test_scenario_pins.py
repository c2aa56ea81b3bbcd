"""Pinned digests of the canonical replay scenarios.

Each value is the full SHA-256 of one scenario's output on the current
tree: the chaos run digest, the fleet smoke digest under each router
policy, the ``repro slo --out`` JSON report and the
``repro report --slo-gate`` markdown.  A refactor of the digest code or
of the scenario plumbing must leave every value unchanged; a change that
moves a simulated number moves its pin on purpose.
"""

from __future__ import annotations

import hashlib

import pytest

CHAOS = "6a07e58cd5f30c6f8a95f0cd21cee85255265a312824402dc2aeab2a022a26b1"
FLEET = {
    "round_robin":
        "affd8f0e892bc83f31b37e59dc5afb12c374f89ce8220a1b681d21419dcae69d",
    "least_kv":
        "bd4bf82b276ce4257588e2a29a2758023679d735c9600596e0fa4fdf5fe1e6c7",
    "prefix_affinity":
        "d0d1d4658ff941b35c4b1253e163f14881a5674377fe6ec73e8f6a97d2a9729c",
}
SLO = "bcf70e1014c78b22cdba743405b06804af42af43bf64041b82ac79c0523b67a5"
SLO_REPORT = "f74bc64c365aac792beaeb8705d858aa2b0f9f4543aa342850973774619244fc"


def _pinned(outcome, pin: str) -> bool:
    """The digest matches its pin and is the SHA-256 of the rows."""
    digest, rows = outcome
    return digest == pin == \
        hashlib.sha256("".join(rows).encode()).hexdigest()


def test_chaos_digest_pinned():
    from repro.scenarios import chaos

    assert _pinned(chaos(), CHAOS)


@pytest.mark.parametrize("policy", sorted(FLEET))
def test_fleet_digest_pinned(policy):
    from repro.scenarios import fleet

    assert _pinned(fleet(policy), FLEET[policy])


def test_slo_report_json_pinned():
    from repro.scenarios import slo

    assert _pinned(slo(), SLO)


def test_slo_gate_markdown_pinned():
    from repro.scenarios import slo_report

    assert _pinned(slo_report(), SLO_REPORT)

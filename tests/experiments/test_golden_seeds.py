"""Golden-seed determinism snapshots for the headline scenarios.

The fuzz suite proves the data plane agrees with the naive reference in
``tests/oracle``; these tests pin the absolute output.  Each digest is the SHA-256
of the canonical JSON (``sort_keys=True``) of a quick-config scenario's
``to_dict()`` for a fixed seed.  Any behavioural change to the traffic
generators, rule compilation or delivery accounting shows up here as a
digest mismatch — if the change is intentional, re-run the helper below
and update the table in the same commit:

    PYTHONPATH=src python -c "
    from tests.experiments.test_golden_seeds import compute_digest
    print(compute_digest('fine_grained', 3))"

(or simply read the new digest off the pytest failure message).
"""

import hashlib
import json

import pytest

from repro.experiments import get_experiment

GOLDEN = {
    ("fine_grained", 3): "36f1e8eb666f3d777a7ffc7763446a19cd4a2cfa1256c6259a747263ff3270b2",
    ("fine_grained", 11): "01c22e0b38b233eeb6ca3b57a44831670f7d8c504b993767436e9f6becd13c46",
    ("paper_scale", 3): "b0629411f0faf0dd437255817b06f89713068677a649e6efb485ba6b4266b43f",
    ("paper_scale", 11): "7659c90cbc4faeeefc07baa45b5af201401d4189f1873ca282c5b06d51c0dd1f",
    ("rule_churn", 3): "c77116be69c903587f44cbbd352a64f3cb90431001b8a2d582717ae69ce76353",
    ("rule_churn", 11): "f8a5558be271028af2f34bc71e69e27656ac36ef6ba21b3b228086c17a099a3b",
}


def compute_digest(name: str, seed: int) -> str:
    result = get_experiment(name).run(quick=True, seed=seed)
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_quick_scenario_digest_is_pinned(name, seed):
    assert compute_digest(name, seed) == GOLDEN[(name, seed)], (
        f"{name} quick run with seed {seed} diverged from its golden "
        f"snapshot; if intentional, update GOLDEN with the new digest"
    )


@pytest.mark.parametrize("name", ["fine_grained", "paper_scale", "rule_churn"])
def test_distinct_seeds_produce_distinct_output(name):
    """Guards against the digest accidentally ignoring the seed."""
    assert GOLDEN[(name, 3)] != GOLDEN[(name, 11)]
    assert compute_digest(name, 3) != compute_digest(name, 11)

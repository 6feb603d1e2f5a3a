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
    ("rule_churn", 3): "e0d758891bc987766a2e0d175ed950714013d0fc70a02d447070c4f915d9757d",
    ("rule_churn", 11): "0944f8dc5aa496a1663db174604fbd1cdbcc06ed7eb1a7ca5da8ff76412fff7f",
    # The scenarios that drive the mitigation layer (baselines + fabric).
    ("table1", 3): "588f203380c5276ac1c77d22432286dec89fcda8f000f08368c43170551b16ad",
    ("table1", 11): "c39b121eededad6770f046ee247145137c7b9e63ad028e5316e267d96fec7093",
    ("fig2c", 3): "becea380f77b8fe0bea5b3e053bd57a652b235c592e91549ee6966d6c9ea51d9",
    ("fig2c", 11): "33373c626021d464634c9c662baad77397bb5186e86ad02804a9f37dda1bf7ac",
    ("fig3c", 3): "b4e2b31484077a760fbd6fb4e69db84c245e0b612f1cb891c9d4600c0b66ea55",
    ("fig3c", 11): "c656c9231d3f08114217a790189773c07edbccd91468779344495a5e4b72d273",
    ("pulse", 3): "1d7536aa492edf5fc3d34e9d9527a39aecf20a48e8802ff7926778e0b1c7f5cb",
    ("pulse", 11): "57b9e2a1ac544e0dae2ecb58aba9395e593140d877df54e56d5bb5f7b643666e",
    ("carpet", 3): "9c5bd6b7055290178e0e965ec8ad61dc5ed2fd656bf764c5b7809cbc54b1b03f",
    ("carpet", 11): "35f433b4e3f4995e03681086cf95215900f3a330ca37070ea3e8ecc136698f22",
    # The only scenarios whose output goes through scipy (Welch's t-test and
    # confidence intervals; the OLS fit).
    ("fig3a", 3): "d37d71337ed35d9ac37b0375e7ddbec333ff8589bc3d456c819addf1b231a431",
    ("fig3a", 11): "41b5d791f45042b96523b4041e688ab3a2bb755e894830e8fcdbfeb5245b7cde",
    ("fig10a", 3): "fbc13b918cb3b254877a1a281d8219be4e6c4dd04263857b8b06811da202afcc",
    ("fig10a", 11): "f41fb708262a4d45d632aace512c188a090368b399c09945428342d514f70e05",
    # The scenarios that drive Stellar's management layer: the controller's
    # token-bucket change queue and the network manager's admission check.
    ("fig10c", 3): "04b389935f7aad69d576734c9ee4da0b01cb7cf18db497c3b4147f9fd2d32828",
    ("fig10c", 11): "fc9dd2d25fa0f19cdd96958ab0e8620156f7718a23a05971e6673ec626dd8b3e",
    ("multivector", 3): "876a778e79534706e88b79cbd910d912cf2b35985725bdb63f21c11710ae426f",
    ("multivector", 11): "8f55c72dc9c0d20af899f90a342c4bebe4d957c6e203b3189ed9ed8f3b95d748",
    ("functionality", 3): "992fd11c3ef9afbae4298c90ea4de179e067170eb1cef434ca9af1c225687a66",
    ("functionality", 11): "809c4079d1390a798e04a5deb440b4cf9deaa5e777ff1e3dcfac9ad27b71d9d7",
    # The Fig. 10(b) FIFO replay of the change-arrival trace.
    ("fig10b", 3): "07330524afe8afc6f82790722e305db68f8834f6a34699c85072b7d27696d352",
    ("fig10b", 11): "d4cebd3c16327a6b07b3c378cfd86c19f3ed5a0b27cde8833a28db002878d6a5",
    # The sharded city: covers the per-port utilisation scan
    # (peak_port_utilisation, oversubscribed_port_intervals), which the
    # city report digest does not hash.
    ("city_scale", 3): "ff8bd08d2d332c6f6a62b390a9e4e8d96e3749c9a3f0d6b8db7e77115ec1f885",
    ("city_scale", 11): "542fe0a9612d3fa461c014b1e9c6a392ef3748cf01c06f16f3b6bd4e58a078c2",
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


@pytest.mark.parametrize("name", sorted({name for name, _ in GOLDEN}))
def test_distinct_seeds_produce_distinct_output(name):
    """Guards against the digest accidentally ignoring the seed."""
    assert GOLDEN[(name, 3)] != GOLDEN[(name, 11)]
    assert compute_digest(name, 3) != compute_digest(name, 11)

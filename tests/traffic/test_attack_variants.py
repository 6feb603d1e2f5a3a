"""Determinism and behaviour of the pulse / carpet / multi-vector generators."""

import numpy as np
import pytest

from oracle.records import from_records, to_records
from repro.bgp.prefix import parse_prefix
from repro.traffic import (
    CarpetBombingAttack,
    FlowTable,
    MultiVectorAttack,
    PulseAttack,
    get_vector,
)

PEERS = [65000 + i for i in range(20)]


def tables_equal(a: FlowTable, b: FlowTable) -> bool:
    from repro.traffic.flowtable import COLUMNS

    return len(a) == len(b) and all(
        np.array_equal(getattr(a, name), getattr(b, name)) for name in COLUMNS
    )


def make_pulse(seed=3, **overrides):
    params = dict(
        victim_ip="100.10.10.10",
        victim_member_asn=64500,
        ingress_member_asns=PEERS,
        peak_rate_bps=1e9,
        start=100.0,
        duration=600.0,
        period_seconds=60.0,
        duty_cycle=0.5,
        seed=seed,
    )
    params.update(overrides)
    return PulseAttack(**params)


def make_carpet(seed=3, **overrides):
    params = dict(
        victim_prefix="100.10.10.0/24",
        victim_member_asn=64500,
        ingress_member_asns=PEERS,
        peak_rate_bps=1e9,
        start=100.0,
        duration=600.0,
        seed=seed,
    )
    params.update(overrides)
    return CarpetBombingAttack(**params)


def make_multivector(seed=3, **overrides):
    params = dict(
        victim_ip="100.10.10.10",
        victim_member_asn=64500,
        ingress_member_asns=PEERS,
        peak_rate_bps=1.5e9,
        start=100.0,
        duration=600.0,
        vectors=("ntp", "memcached", "chargen"),
        seed=seed,
    )
    params.update(overrides)
    return MultiVectorAttack(**params)


WINDOWS = [(t, 10.0) for t in (90.0, 100.0, 130.0, 200.0, 460.0, 700.0)]


@pytest.mark.parametrize("factory", [make_pulse, make_carpet, make_multivector])
class TestDeterminism:
    def test_same_seed_identical_tables(self, factory):
        a, b = factory(seed=11), factory(seed=11)
        for start, interval in WINDOWS:
            assert tables_equal(
                a.flow_table(start, interval), b.flow_table(start, interval)
            )

    def test_different_seed_differs(self, factory):
        a, b = factory(seed=11), factory(seed=12)
        different = any(
            not tables_equal(a.flow_table(start, interval), b.flow_table(start, interval))
            for start, interval in WINDOWS
        )
        assert different

    def test_record_view_matches_table(self, factory):
        a, b = factory(seed=11), factory(seed=11)
        table = a.flow_table(130.0, 10.0)
        records = to_records(b.flow_table(130.0, 10.0))
        assert tables_equal(table, from_records(records))

    def test_silent_outside_attack_window(self, factory):
        attack = factory(seed=11)
        assert len(attack.flow_table(0.0, 10.0)) == 0
        assert len(attack.flow_table(1000.0, 10.0)) == 0


class TestPulseEnvelope:
    def test_rate_alternates_with_duty_cycle(self):
        attack = make_pulse(period_seconds=60.0, duty_cycle=0.5)
        assert attack.on_seconds(110.0, 111.0) == 1.0  # burst
        assert attack.on_seconds(150.0, 151.0) == 0.0  # gap
        assert attack.on_seconds(170.0, 171.0) == 1.0  # next burst

    def test_gap_windows_are_empty(self):
        attack = make_pulse(period_seconds=60.0, duty_cycle=0.5)
        # [130, 160) sits fully in the silent half of the first period.
        assert attack.on_seconds(130.0, 160.0) == 0.0
        assert len(attack.flow_table(130.0, 10.0)) == 0

    def test_burst_windows_carry_full_rate(self):
        attack = make_pulse(period_seconds=60.0, duty_cycle=0.5)
        table = attack.flow_table(110.0, 10.0)
        rate = table.total_bits / 10.0
        assert rate == pytest.approx(attack.peak_rate_bps, rel=0.05)

    def test_partial_window_scales_by_on_fraction(self):
        attack = make_pulse(period_seconds=60.0, duty_cycle=0.5)
        # [125, 135): 5 burst seconds, 5 silent seconds.
        table = attack.flow_table(125.0, 10.0)
        rate = table.total_bits / 10.0
        assert rate == pytest.approx(attack.peak_rate_bps / 2, rel=0.05)

    def test_duty_cycle_validation(self):
        with pytest.raises(ValueError):
            make_pulse(duty_cycle=0.0)
        with pytest.raises(ValueError):
            make_pulse(period_seconds=-1.0)


class TestCarpetSpread:
    def test_destinations_spread_inside_prefix(self):
        attack = make_carpet()
        prefix = parse_prefix("100.10.10.0/24")
        low, high = prefix.int_bounds
        tables = [attack.flow_table(t, 10.0) for t in (200.0, 210.0, 220.0)]
        dsts = np.concatenate([table.dst_ip for table in tables])
        assert dsts.min() >= low and dsts.max() <= high
        # Carpet bombing hits many hosts, not one.
        assert len(np.unique(dsts)) > 50

    def test_volume_matches_plain_amplification(self):
        attack = make_carpet()
        table = attack.flow_table(300.0, 10.0)
        assert table.total_bits / 10.0 == pytest.approx(1e9, rel=0.05)

    def test_rejects_non_ipv4_prefix(self):
        with pytest.raises(ValueError):
            make_carpet(victim_prefix="2001:db8::/64")


class TestMultiVector:
    def test_every_vector_present(self):
        attack = make_multivector()
        table = attack.flow_table(300.0, 10.0)
        ports = set(np.unique(table.src_port).tolist())
        expected = tuple(
            get_vector(name).source_port for name in ("ntp", "memcached", "chargen")
        )
        assert set(expected) <= ports
        assert attack.vector_source_ports() == expected

    def test_comma_string_vector_spec(self):
        attack = make_multivector(vectors="ntp, dns")
        assert attack.vectors == ("ntp", "dns")
        assert len(attack.vector_source_ports()) == 2

    def test_shares_split_the_peak_rate(self):
        attack = make_multivector(vector_shares=(2.0, 1.0, 1.0), ramp_seconds=0.0)
        table = attack.flow_table(300.0, 10.0)
        ntp_port = get_vector("ntp").source_port
        ntp_bits = int(table.bits[table.src_port == ntp_port].sum())
        assert ntp_bits / table.total_bits == pytest.approx(0.5, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_multivector(vectors=())
        with pytest.raises(ValueError):
            make_multivector(vector_shares=(1.0,))
        with pytest.raises(ValueError):
            make_multivector(vector_shares=(1.0, -1.0, 1.0))

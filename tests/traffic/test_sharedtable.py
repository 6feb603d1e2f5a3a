"""Shared-memory FlowTable transport: round-trip, zero-copy, lifecycle.

These tests exercise :class:`SharedFlowTable` inside one process — the
attach path is identical cross-process (the handle pickles to metadata
and the consumer maps the named block), which the end-to-end pipeline
tests cover; here the contract itself is pinned down.
"""

import pickle

import numpy as np
import pytest

from repro.traffic import FlowTable, IxpTraceGenerator, SharedFlowTable
from repro.traffic.flowtable import COLUMNS


def make_table(rows=500, seed=3):
    generator = IxpTraceGenerator(
        member_asns=[65001, 65002, 65003, 65004],
        duration=10.0,
        interval=10.0,
        regular_rate_bps=4e9,
        flows_per_interval=rows,
        seed=seed,
    )
    return generator.generate().table


def tables_equal(a: FlowTable, b: FlowTable) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(getattr(a, name), getattr(b, name)) for name in COLUMNS
    )


class TestRoundTrip:
    def test_columns_and_dtypes_survive(self):
        table = make_table()
        handle = SharedFlowTable.from_table(table)
        try:
            restored = handle.table()
            assert tables_equal(table, restored)
            for name in COLUMNS:
                assert getattr(restored, name).dtype == getattr(table, name).dtype
        finally:
            handle.release()

    def test_pickle_round_trip_reattaches(self):
        table = make_table(rows=200)
        handle = SharedFlowTable.from_table(table)
        try:
            payload = pickle.dumps(handle)
            remote = pickle.loads(payload)
            assert tables_equal(table, remote.table())
            remote.close()
        finally:
            handle.release()

    def test_empty_table_needs_no_block(self):
        handle = SharedFlowTable.from_table(FlowTable.empty())
        assert handle.shm_name is None
        assert len(handle.table()) == 0
        handle.release()


class TestZeroCopy:
    def test_view_aliases_the_shared_block(self):
        table = make_table()
        handle = SharedFlowTable.from_table(table)
        try:
            view = handle.table()
            # Columns are views into the mapping, not owned copies, and
            # repeated calls return the same cached view.
            assert not view.bytes.flags.owndata
            assert handle.table() is view
        finally:
            handle.release()

    def test_pickle_payload_is_metadata_sized(self):
        small = SharedFlowTable.from_table(make_table(rows=10))
        large = SharedFlowTable.from_table(make_table(rows=5000))
        try:
            small_payload = len(pickle.dumps(small))
            large_payload = len(pickle.dumps(large))
            assert large_payload == pytest.approx(small_payload, abs=64)
            assert large_payload < 2048
        finally:
            small.release()
            large.release()


class TestLifecycle:
    def test_unlink_destroys_the_block(self):
        handle = SharedFlowTable.from_table(make_table(rows=50))
        name = handle.shm_name
        handle.release()
        assert handle.shm_name is None
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_release_is_idempotent(self):
        handle = SharedFlowTable.from_table(make_table(rows=50))
        handle.release()
        handle.release()

    def test_transfer_still_readable_by_consumer(self):
        table = make_table(rows=80)
        handle = SharedFlowTable.from_table(table, transfer=True)
        try:
            consumer = pickle.loads(pickle.dumps(handle))
            assert tables_equal(table, consumer.table())
            consumer.release()
        finally:
            handle.close()


class TestSharedMemberTable:
    def make_members(self, count=40, pop_count=4, seed=9):
        from repro.ixp import make_member_population

        return make_member_population(count, pop_count=pop_count, seed=seed)

    def test_roundtrip_is_attribute_exact(self):
        from repro.traffic import SharedMemberTable

        members = self.make_members()
        handle = SharedMemberTable.from_members(members)
        try:
            restored = handle.population()
            assert list(restored) == list(members)
            assert restored.base_asn == members.base_asn
            assert handle.asn_array().tolist() == members.asns.tolist()
            assert not handle.asn_array().flags.owndata  # view into the block
        finally:
            handle.release()

    def test_members_for_preserves_request_order(self):
        from repro.traffic import SharedMemberTable

        members = self.make_members(count=20)
        handle = SharedMemberTable.from_members(members)
        try:
            wanted = [members[7].asn, members[2].asn, members[19].asn]
            subset = handle.members_for(wanted)
            assert subset.asns.tolist() == wanted
            assert list(subset) == [members[7], members[2], members[19]]
            assert len(handle.members_for([])) == 0
        finally:
            handle.release()

    def test_members_for_unknown_asn_raises(self):
        from repro.traffic import SharedMemberTable

        handle = SharedMemberTable.from_members(self.make_members(count=10))
        try:
            with pytest.raises(KeyError, match="not in the shared member table"):
                handle.members_for([99999])
        finally:
            handle.release()

    def test_pickle_round_trip_reattaches(self):
        from repro.traffic import SharedMemberTable

        members = self.make_members(count=15)
        handle = SharedMemberTable.from_members(members)
        try:
            remote = pickle.loads(pickle.dumps(handle))
            assert len(pickle.dumps(handle)) < 512  # metadata only
            assert list(remote.population()) == list(members)
            remote.close()  # consumer drops its mapping, block survives
            assert list(handle.population()) == list(members)
        finally:
            handle.release()

    def test_rejects_non_generated_population(self):
        from repro.ixp import IxpMember, MemberPopulation
        from repro.traffic import SharedMemberTable

        custom = IxpMember(
            asn=64500,
            name="experimental-as",
            port_capacity_bps=100e9,
            prefixes=["100.10.10.0/24"],
        )
        with pytest.raises(ValueError, match="population conventions"):
            SharedMemberTable.from_members(MemberPopulation.from_members([custom]))
        descending = self.make_members(count=5)[::-1]
        with pytest.raises(ValueError, match="population conventions"):
            SharedMemberTable.from_members(descending)

    def test_empty_population_needs_no_block(self):
        from repro.ixp import MemberPopulation
        from repro.traffic import SharedMemberTable

        handle = SharedMemberTable.from_members(MemberPopulation.from_members([]))
        assert handle.shm_name is None
        assert len(handle.population()) == 0
        handle.release()

    def test_release_destroys_the_block(self):
        from multiprocessing import shared_memory

        from repro.traffic import SharedMemberTable

        handle = SharedMemberTable.from_members(self.make_members(count=5))
        name = handle.shm_name
        handle.release()
        assert handle.shm_name is None
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        handle.release()  # idempotent

"""The pluggable coding-scheme layer: registry, exhaustive erasure
round-trips, scheme semantics, XOR transparency, multi-shard layouts,
and the tolerance-aware scrubber.

The decode-identity tests enumerate *every* erasure pattern up to each
scheme's tolerance — for RS that is the full MDS claim over k ≤ 8,
m ≤ 3, so a single non-invertible survivor submatrix or off-by-one in
the padding convention cannot slip through.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.cluster import ClusterSpec, VirtualCluster
from repro.cluster.checksum import block_checksum
from repro.cluster.xorsum import xor_reduce_padded
from repro.coding import (
    CodingScheme,
    RDPScheme,
    ReedSolomonScheme,
    ReplicationScheme,
    XorScheme,
    available_schemes,
    get_scheme,
    parse_scheme,
    register_scheme,
    shard_key,
)
from repro.coding import schemes as schemes_mod
from repro.core import dvdc
from repro.core.groups import build_orthogonal_layout, layout_dvdc
from repro.coding import ParityCodeError
from repro.core.placement import validate_layout
from repro.resilience import Scrubber
from repro.sim import Simulator

from conftest import run_process


def _members(seed: int, lengths) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, n, dtype=np.uint8) for n in lengths]


def _assert_round_trip(scheme: CodingScheme, members, shards, pattern):
    """Erase ``pattern`` (indices over the k+m member∥shard slots),
    reconstruct, and demand bit-identity on every member."""
    k = len(members)
    length = max(m.shape[0] for m in members)
    mem = [None if i in pattern else members[i] for i in range(k)]
    shd = [None if k + j in pattern else shards[j] for j in range(len(shards))]
    rebuilt = scheme.reconstruct(mem, shd, nbytes=length)
    assert len(rebuilt) == k
    for i, original in enumerate(members):
        got = rebuilt[i]
        assert got.shape[0] >= original.shape[0]
        assert np.array_equal(got[: original.shape[0]], original), (
            f"{scheme.name}: member {i} wrong after erasing {pattern}"
        )
        # zero-pad convention: nothing but padding past the logical size
        assert not got[original.shape[0] :].any()


class TestRegistry:
    def test_builtin_names_resolve(self):
        assert isinstance(parse_scheme("xor"), XorScheme)
        assert isinstance(parse_scheme("rdp"), RDPScheme)
        rs = parse_scheme("rs-8-2")
        assert isinstance(rs, ReedSolomonScheme)
        assert rs.n_shards == 2 and rs.tolerance == 2
        rep = parse_scheme("rep-3")
        assert isinstance(rep, ReplicationScheme)
        assert rep.copies == 3 and rep.n_shards == 2 and rep.tolerance == 2

    def test_parametric_specs(self):
        rs = parse_scheme("rs-5-3")
        assert rs.n_shards == 3 and rs.tolerance == 3
        rep = parse_scheme("rep-4")
        assert rep.copies == 4 and rep.tolerance == 3

    def test_unknown_specs_rejected(self):
        for bad in ("lrc-4", "rs-8", "rs-a-b", "rep-x", ""):
            with pytest.raises(ValueError, match="unknown coding scheme|known"):
                parse_scheme(bad)

    def test_get_scheme_coercions(self):
        assert isinstance(get_scheme(None), XorScheme)
        inst = ReedSolomonScheme(m=2, k_hint=4)
        assert get_scheme(inst) is inst
        assert isinstance(get_scheme("rep-3"), ReplicationScheme)

    def test_custom_registration(self):
        class Doubled(XorScheme):
            name = "xor-custom-test"

        register_scheme("xor-custom-test", Doubled)
        try:
            assert isinstance(get_scheme("xor-custom-test"), Doubled)
            assert "xor-custom-test" in available_schemes()
        finally:
            schemes_mod._REGISTRY.pop("xor-custom-test")

    def test_available_lists_builtins_and_families(self):
        names = available_schemes()
        for expected in ("xor", "rdp", "rs-8-2", "rep-3", "rs-<k>-<m>", "rep-<n>"):
            assert expected in names

    def test_shard_key_packing(self):
        assert shard_key(7, 0) == 7  # shard 0 keeps the legacy key
        seen = set()
        for gid in range(20):
            for j in range(16):
                key = shard_key(gid, j)
                assert key not in seen
                seen.add(key)
        with pytest.raises(ValueError):
            shard_key(0, 16)
        with pytest.raises(ValueError):
            shard_key(0, -1)

    def test_replication_needs_two_copies(self):
        with pytest.raises(ValueError):
            ReplicationScheme(1)


class TestExhaustiveErasures:
    """encode ∘ decode identity over *all* ≤ tolerance erasure patterns."""

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_reed_solomon_every_pattern(self, k, m):
        scheme = ReedSolomonScheme(m=m, k_hint=k)
        lengths = [97 + 13 * (i % 3) for i in range(k)]  # heterogeneous
        members = _members(1000 * k + m, lengths)
        shards = scheme.encode(members)
        assert len(shards) == m
        for r in range(1, m + 1):
            for pattern in combinations(range(k + m), r):
                _assert_round_trip(scheme, members, shards, set(pattern))

    def test_reed_solomon_beyond_tolerance_raises(self):
        scheme = ReedSolomonScheme(m=2, k_hint=4)
        members = _members(3, [64, 64, 64, 64])
        shards = scheme.encode(members)
        mem = [None, None, None, members[3]]
        with pytest.raises(ParityCodeError):
            scheme.reconstruct(mem, shards, nbytes=64)

    @pytest.mark.parametrize(
        "scheme", [XorScheme(), RDPScheme()], ids=["xor", "rdp"]
    )
    def test_legacy_schemes_every_pattern(self, scheme):
        k = 5
        members = _members(42, [80, 80, 61, 80, 33])
        shards = scheme.encode(members)
        assert len(shards) == scheme.n_shards
        for r in range(1, scheme.tolerance + 1):
            for pattern in combinations(range(k + scheme.n_shards), r):
                _assert_round_trip(scheme, members, shards, set(pattern))

    def test_replication_survives_everything_but_total_loss(self):
        scheme = ReplicationScheme(3)
        k = 4
        members = _members(9, [50, 70, 70, 70])
        shards = scheme.encode(members)
        # all members gone, one replica left: full rebuild
        _assert_round_trip(scheme, members, shards, {0, 1, 2, 3, k + 0})
        # every replica gone but members intact: nothing to do
        _assert_round_trip(scheme, members, shards, {k, k + 1})
        # a member *and* every replica gone: genuinely lost
        with pytest.raises(ParityCodeError):
            scheme.reconstruct(
                [None] + list(members[1:]), [None, None], nbytes=70
            )

    def test_intact_decode_returns_copies(self):
        scheme = ReedSolomonScheme(m=2, k_hint=3)
        members = _members(5, [32, 32, 32])
        out = scheme.reconstruct(list(members), scheme.encode(members))
        out[0][:] = 0
        assert members[0].any()  # caller mutation never reaches the input


class TestSchemeSemantics:
    def test_xor_encode_is_the_historical_kernel(self):
        members = _members(11, [100, 64, 100])
        (shard,) = XorScheme().encode(members)
        assert np.array_equal(shard, xor_reduce_padded(members))

    def test_cost_model_numbers(self):
        xor, rs, rep = XorScheme(), parse_scheme("rs-8-2"), parse_scheme("rep-3")
        assert xor.storage_overhead(8) == pytest.approx(1 / 8)
        assert xor.traffic_factor(8) == 1.0
        assert rs.storage_overhead(8) == pytest.approx(2 / 8)
        assert rs.traffic_factor(8) == 2.0
        assert rep.storage_overhead(8) == 2.0
        assert rep.traffic_factor(8) == 2.0
        rdp = RDPScheme()
        assert rdp.traffic_factor(8) == 2.0

    def test_replication_length_round_trip(self):
        rep = ReplicationScheme(3)
        assert rep.shard_length(128, 4) == 512
        assert rep.working_length(512, 4) == 128

    def test_rs_shard_lengths_track_longest_member(self):
        rs = ReedSolomonScheme(m=2, k_hint=3)
        shards = rs.encode(_members(2, [10, 99, 40]))
        assert all(s.shape[0] == 99 for s in shards)
        assert rs.working_length(99, 3) == 99


class TestXorTransparency:
    """The default path *is* the XOR scheme: identical clusters driven
    with ``scheme=None`` and ``scheme=XorScheme()`` commit bit-identical
    parity and checkpoints.  (The pinned ``tests/golden/scale64.json``
    digests extend the same claim to the 64-node scale scenario.)"""

    def _checkpointed(self, scheme):
        sim = Simulator()
        cluster = VirtualCluster(sim, ClusterSpec(n_nodes=4))
        vms = cluster.create_vms_balanced(
            12, 1e9, dirty_rate=1e6, image_pages=32, page_size=128
        )
        rng = np.random.default_rng(777)
        for vm in vms:
            vm.image.write(0, rng.integers(0, 256, 2048, dtype=np.uint8))
            vm.image.clear_dirty()
        ck = dvdc(cluster, scheme=scheme)

        def cycle():
            r = yield from ck.run_cycle()
            assert r.committed

        run_process(sim, cycle())
        return cluster, ck

    def test_default_equals_explicit_xor_bit_for_bit(self):
        ca, cka = self._checkpointed(None)
        cb, ckb = self._checkpointed(XorScheme())
        assert isinstance(cka.scheme, XorScheme)
        for ga, gb in zip(cka.layout.groups, ckb.layout.groups):
            assert ga.parity_nodes == gb.parity_nodes
            ba = ca.node(ga.parity_node).parity_store[ga.group_id]
            bb = cb.node(gb.parity_node).parity_store[gb.group_id]
            assert ba.checksum == bb.checksum
            assert np.array_equal(ba.data, bb.data)
            for v in ga.member_vm_ids:
                ia = ca.hypervisor(ca.vm(v).node_id).committed(v)
                ib = cb.hypervisor(cb.vm(v).node_id).committed(v)
                assert np.array_equal(ia.payload, ib.payload)


class TestMultiShardLayouts:
    def _cluster(self, n_nodes=8, vms=16):
        sim = Simulator()
        cluster = VirtualCluster(sim, ClusterSpec(n_nodes=n_nodes))
        cluster.create_vms_balanced(
            vms, 1e9, dirty_rate=1e6, image_pages=8, page_size=64
        )
        return cluster

    def test_orthogonal_layout_places_distinct_shard_homes(self):
        cluster = self._cluster()
        layout = build_orthogonal_layout(cluster, 6, n_parity=2)
        for g in layout.groups:
            assert len(g.parity_nodes) == 2
            assert len(set(g.parity_nodes)) == 2
            member_nodes = {cluster.vm(v).node_id for v in g.member_vm_ids}
            assert not member_nodes & set(g.parity_nodes)
        assert validate_layout(layout, cluster, tolerance=2).ok

    def test_layout_dvdc_reserves_one_node_per_shard(self):
        cluster = self._cluster()
        layout = layout_dvdc(cluster, n_parity=2)
        assert all(len(g.member_vm_ids) <= 6 for g in layout.groups)
        layout1 = layout_dvdc(cluster)
        assert any(len(g.member_vm_ids) == 7 for g in layout1.groups)


class TestSchemeAwareScrubber:
    """Regression for the scrubber's tolerance classification.

    The pre-scheme scrubber hard-coded tolerance 1 ("corruption beyond
    parity count"), so a corrupt shard plus a dead shard home — two
    erasures — was declared unrepairable even under RS(k, 2), which
    repairs it fine.  These tests pin the fixed behavior."""

    def _checkpointed(self, n_nodes, scheme):
        sim = Simulator()
        cluster = VirtualCluster(sim, ClusterSpec(n_nodes=n_nodes))
        vms = cluster.create_vms_balanced(
            2 * n_nodes, 1e9, dirty_rate=1e6, image_pages=16, page_size=128
        )
        rng = np.random.default_rng(4242)
        for vm in vms:
            vm.image.write(0, rng.integers(0, 256, 1024, dtype=np.uint8))
            vm.image.clear_dirty()
        ck = dvdc(cluster, scheme=scheme)

        def cycle():
            r = yield from ck.run_cycle()
            assert r.committed

        run_process(sim, cycle())
        return cluster, ck

    def test_rs82_survives_corrupt_shard_plus_dead_shard_home(self):
        cluster, ck = self._checkpointed(6, "rs-8-2")
        group = ck.layout.groups[0]
        home0, home1 = group.parity_nodes
        block = cluster.node(home0).parity_store[shard_key(group.group_id, 0)]
        block.data[5] ^= np.uint8(0x40)
        pristine = block.checksum
        cluster.kill_node(home1)  # second erasure, simultaneous

        report = Scrubber(cluster, ck.layout, scheme=ck.scheme).scrub_once()
        assert f"shard0 g{group.group_id}" in report.repaired
        assert report.unrepairable == []
        assert block_checksum(block.data) == pristine

    def test_rs82_corrupt_member_and_shard_both_repaired(self):
        cluster, ck = self._checkpointed(6, "rs-8-2")
        group = ck.layout.groups[0]
        vid = group.member_vm_ids[1]
        vm = cluster.vm(vid)
        img = cluster.hypervisor(vm.node_id).committed(vid)
        img.payload.reshape(-1).view(np.uint8)[3] ^= np.uint8(0x02)
        block = cluster.node(group.parity_nodes[1]).parity_store[
            shard_key(group.group_id, 1)
        ]
        block.data[0] ^= np.uint8(0x80)

        report = Scrubber(cluster, ck.layout, scheme=ck.scheme).scrub_once()
        assert f"image vm{vid}" in report.repaired
        assert f"shard1 g{group.group_id}" in report.repaired
        assert report.unrepairable == []

    def test_three_erasures_still_unrepairable_under_rs82(self):
        cluster, ck = self._checkpointed(6, "rs-8-2")
        group = ck.layout.groups[0]
        home0, home1 = group.parity_nodes
        block = cluster.node(home0).parity_store[shard_key(group.group_id, 0)]
        block.data[1] ^= np.uint8(0x01)
        cluster.kill_node(home1)
        vid = group.member_vm_ids[0]
        vm = cluster.vm(vid)
        img = cluster.hypervisor(vm.node_id).committed(vid)
        img.payload.reshape(-1).view(np.uint8)[0] ^= np.uint8(0x01)

        report = Scrubber(cluster, ck.layout, scheme=ck.scheme).scrub_once()
        assert report.unrepairable  # 3 erasures > tolerance 2
        assert report.repaired == []

    def test_replication_over_survives_via_intact_replica(self):
        cluster, ck = self._checkpointed(6, "rep-3")
        group = ck.layout.groups[0]
        # corrupt BOTH replicas' worth of members: kill one replica home,
        # corrupt two member images — 3 erasures > tolerance 2, yet the
        # surviving intact replica rebuilds everything
        cluster.kill_node(group.parity_nodes[1])
        for vid in group.member_vm_ids[:2]:
            vm = cluster.vm(vid)
            img = cluster.hypervisor(vm.node_id).committed(vid)
            img.payload.reshape(-1).view(np.uint8)[7] ^= np.uint8(0x10)

        report = Scrubber(cluster, ck.layout, scheme=ck.scheme).scrub_once()
        assert report.unrepairable == []
        for vid in group.member_vm_ids[:2]:
            assert f"image vm{vid}" in report.repaired

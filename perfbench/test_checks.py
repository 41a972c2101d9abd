"""Each correctness check passes on the program's real output and fails
on a deliberately corrupted copy of it.

    python3 -m pytest perfbench -q
"""

import dataclasses
import zlib

import numpy as np
import pytest

import checks
from repro.campaign.presets import run_validate_campaign
from run import Meter
from workloads import CampaignMc, RsRecover, ServeSla, XorScale


@pytest.fixture(scope="module")
def xor():
    w = XorScale(seed=3, n_nodes=8)
    w.setup()
    w.round(0, Meter())
    assert w.errors == []
    return w


@pytest.fixture(scope="module")
def rs():
    w = RsRecover(seed=3, n_nodes=12, image_pages=16, page_size=64)
    w.setup()
    w.round(0, Meter())
    assert w.errors == []
    return w


def _parity_block(w):
    group = w.ck.layout.groups[0]
    return w.cluster.node(group.parity_node).parity_store[group.group_id]


def test_flipped_parity_byte_fails_parity_and_crc(xor):
    block = _parity_block(xor)
    assert checks.xor_parity_errors(xor.ck) == []
    assert checks.crc_errors(xor.cluster) == []
    block.data[5] ^= 0x01
    try:
        assert checks.xor_parity_errors(xor.ck)
        assert checks.crc_errors(xor.cluster)
    finally:
        block.data[5] ^= 0x01


@pytest.mark.parametrize("name", ["xor", "rs"])
def test_flipped_checkpoint_byte_fails_crc(name, request):
    w = request.getfixturevalue(name)
    vm = w.cluster.all_vms[1]
    payload = w.cluster.hypervisor(vm.node_id).committed(vm.vm_id).payload_flat()
    payload[0] ^= 0x80
    try:
        assert checks.crc_errors(w.cluster)
    finally:
        payload[0] ^= 0x80
    assert checks.crc_errors(w.cluster) == []


@pytest.mark.parametrize("name", ["xor", "rs"])
def test_stale_committed_page_fails_image_check(name, request):
    """A dirty page the capture dropped: the committed checkpoint keeps
    the page's old bytes, and its CRC is computed over them."""
    w = request.getfixturevalue(name)
    assert checks.image_errors(w.cluster) == []
    vm = w.cluster.all_vms[3]
    image = w.cluster.hypervisor(vm.node_id).committed(vm.vm_id)
    payload, crc = image.payload_flat(), image.meta["checksum"]
    payload[:w.page_size] ^= 0xFF
    image.meta["checksum"] = payload.size << 32 | zlib.crc32(payload)
    try:
        assert checks.crc_errors(w.cluster) == []
        assert checks.image_errors(w.cluster)
    finally:
        payload[:w.page_size] ^= 0xFF
        image.meta["checksum"] = crc
    assert checks.crc_errors(w.cluster) == []


@pytest.mark.parametrize("name", ["xor", "rs"])
def test_stale_restored_page_fails_recovery(name, request):
    w = request.getfixturevalue(name)
    saved = checks.committed_bytes(w.cluster)
    assert checks.recovery_errors(w.cluster, saved) == []
    vm = w.cluster.all_vms[2]
    page = vm.image.pages[0].copy()
    vm.image.pages[0] ^= 0xFF  # the page as it was before its last write
    try:
        assert checks.recovery_errors(w.cluster, saved)
    finally:
        vm.image.pages[0] = page


def test_serving_check():
    demands = np.random.default_rng(0).exponential(0.02, 1000)
    good = {"offered": 1000, "completed": 1000, "lost": 0, "lost_unrouted": 0,
            "latency": {"p99": float(np.quantile(demands, 0.99)) * 1.5}}
    assert checks.serving_errors(good, demands) == []
    for bad in (
        {"completed": 999},
        {"lost": 1},
        {"lost_unrouted": 1},
        {"latency": {"p99": float(np.quantile(demands, 0.99)) * 0.9}},
    ):
        assert checks.serving_errors({**good, **bad}, demands)


def test_serving_workload_passes_its_checks():
    w = ServeSla(seed=3, n_requests=3000)
    w.setup()
    meter = Meter()
    w.round(0, meter)
    assert w.errors == [] and meter.attempted == 3000 and meter.failed == 0


def test_estimate_off_fails_mc_check():
    w = CampaignMc(seed=3, runs=4096, chunk_runs=1024, jobs=1)
    w.setup()
    meter = Meter()
    w.round(0, meter)
    assert w.errors == [] and meter.attempted == 4 * 4096
    rows, _ = run_validate_campaign(jobs=1, T=w.T, T_ov=w.T_ov, T_r=w.T_r,
                                    runs=w.runs, seed=3)
    assert checks.mc_errors(rows, w.T, w.T_ov, w.T_r, w.runs) == []
    off = [  # 1% high: about 10 standard errors at 4096 trials
        {**row, "estimate": dataclasses.replace(
            row["estimate"], mean=row["estimate"].mean * 1.01)}
        for row in rows
    ]
    assert len(checks.mc_errors(off, w.T, w.T_ov, w.T_r, w.runs)) == len(rows)

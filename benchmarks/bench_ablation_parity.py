"""ABL-PARITY — erasure-code ablation: XOR (the paper's choice) vs RDP
(the Section II-B2 extension for double failures).

Regenerates: encode/reconstruct throughput on real buffers plus the
space/tolerance trade-off table; and calibrates the raw in-memory XOR
bandwidth that the analytical model's ``memory_xor_bandwidth`` uses.
"""

import numpy as np
import pytest

from repro.analysis import format_bytes, render_table
from repro.cluster import measure_xor_bandwidth
from repro.coding import RDPCode, XorScheme

MEMBERS = 3
NBYTES = 1 << 20  # 1 MiB per member


@pytest.fixture(scope="module")
def members():
    rng = np.random.default_rng(0)
    return [rng.integers(0, 256, NBYTES, dtype=np.uint8) for _ in range(MEMBERS)]


def test_xor_encode_throughput(benchmark, members):
    code = XorScheme()
    [parity] = benchmark(code.encode, members)
    assert parity.shape[0] == NBYTES


def test_rdp_encode_throughput(benchmark, members):
    code = RDPCode(MEMBERS)
    rp, dp = benchmark(code.encode, members)
    assert rp.size >= NBYTES


def test_xor_reconstruct_throughput(benchmark, members):
    code = XorScheme()
    [parity] = code.encode(members)
    shards = [None, members[1], members[2]]
    out = benchmark(code.reconstruct, shards, [parity])
    assert np.array_equal(out[0], members[0])


def test_rdp_double_reconstruct_throughput(benchmark, members):
    code = RDPCode(MEMBERS)
    rp, dp = code.encode(members)
    shards = [None, None, members[2]]
    out = benchmark(code.reconstruct, shards, [rp, dp], NBYTES)
    assert np.array_equal(out[0], members[0])
    assert np.array_equal(out[1], members[1])


def test_parity_tradeoff_table(benchmark, report, members):
    """The space/tolerance trade-off the paper's design section weighs."""

    def build():
        xor_parity = XorScheme().encode(members)
        rdp_parity = RDPCode(MEMBERS).encode(members)
        return xor_parity, rdp_parity

    xor_parity, rdp_parity = benchmark(build)
    data_bytes = MEMBERS * NBYTES
    rows = [
        ["XOR (paper)", 1, "1 of k+1",
         format_bytes(sum(p.nbytes for p in xor_parity)),
         f"{sum(p.nbytes for p in xor_parity) / data_bytes * 100:.1f}%"],
        ["RDP (Wang et al.)", 2, "any 2",
         format_bytes(sum(p.nbytes for p in rdp_parity)),
         f"{sum(p.nbytes for p in rdp_parity) / data_bytes * 100:.1f}%"],
    ]
    report(render_table(
        ["code", "parity shards", "tolerates", "parity bytes (k=3, 1 MiB)",
         "space overhead"],
        rows,
        title="ABL-PARITY — code trade-off",
    ))


def test_raw_xor_bandwidth_calibration(benchmark, report):
    """Measures this host's streaming XOR rate — the quantity the paper
    calls 'orders-of-magnitude faster than a disk write'."""
    a = np.random.default_rng(1).integers(0, 256, 1 << 24, dtype=np.uint8)
    b = a.copy()

    def kernel():
        np.bitwise_xor(b, a, out=b)

    benchmark(kernel)
    bw = measure_xor_bandwidth(1 << 24, repeats=3)
    disk_bw = 120e6
    report(
        f"ABL-PARITY calibration: in-memory XOR ≈ {format_bytes(bw)}/s on "
        f"this host — {bw / disk_bw:.0f}x a 120 MB/s disk write "
        "(paper: 'orders-of-magnitude faster')"
    )
    assert bw > 10 * disk_bw


def test_rdp_protocol_double_failure(benchmark, report):
    """ABL-RDP: the double-parity protocol surviving a simultaneous
    2-node crash end to end (the scenario XOR cannot)."""
    from repro.core import dvdc

    from conftest import functional_cluster, run_to_completion

    def scenario():
        sim, cluster = functional_cluster(6, 2, seed=9)
        ck = dvdc(cluster, group_size=3, scheme="rdp")
        run_to_completion(sim, ck.run_cycle())
        committed = {
            vm.vm_id: cluster.hypervisor(vm.node_id)
            .committed(vm.vm_id).payload_flat().copy()
            for vm in cluster.all_vms
        }
        cluster.kill_node(0)
        cluster.kill_node(1)
        rep = run_to_completion(sim, ck.recover(0))
        ok = all(
            np.array_equal(cluster.vm(v).image.flat, committed[v])
            for v in committed
        )
        return rep, ok

    rep, ok = benchmark(scenario)
    report(
        f"ABL-RDP: simultaneous crash of 2 nodes; {len(rep.reconstructed)} "
        f"VMs rebuilt + {len(rep.reencoded_groups)} groups re-encoded in "
        f"{rep.recovery_time:.1f}s; bit-exact = {ok}"
    )
    assert ok

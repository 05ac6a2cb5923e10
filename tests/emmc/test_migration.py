"""Valid-slot migration: the one routine behind GC and bad-block remap.

Pins the op stream and the end state of one GC collection and one
bad-block retirement on the same crafted multi-slot victim, and checks
that every foreground GC -- including one a RAM-buffer flush triggers --
reaches ``DeviceStats``.
"""

from repro.emmc import EmmcDevice, Geometry, PageKind, small_hps
from repro.emmc.ftl import GreedyGC, PageAllocator, PageMapping, PhysicalLocation
from repro.emmc.ftl.badblocks import BadBlockManager
from repro.emmc.ftl.blocks import Plane
from repro.emmc.ops import FlashOpType
from repro.sim import Host
from repro.workloads import generate_trace

K8 = PageKind.K8

#: (page, slot) pairs invalidated in the victim, whose pages hold LPNs
#: (0, 1), (2, 3), (4, 5), (6, 7): page 0 keeps one valid slot, page 1
#: both, page 2 none, page 3 both.
STALE = [(0, 1), (2, 0), (2, 1)]


def _victim():
    geometry = Geometry(
        channels=1, dies_per_chip=1, planes_per_die=1,
        blocks_per_plane={K8: 4}, pages_per_block=4,
    )
    plane = Plane.create(0, geometry)
    allocator = PageAllocator(geometry, [plane])
    mapping = PageMapping()
    victim = plane.take_free_block(K8)
    for page in range(4):
        lpns = (2 * page, 2 * page + 1)
        victim.program(lpns)
        for slot, lpn in enumerate(lpns):
            mapping.update(lpn, PhysicalLocation(0, K8, victim.block_id, page, slot))
    for page, slot in STALE:
        victim.invalidate(page, slot)
    return plane, allocator, mapping, victim


def _assert_migrated(ops, plane, mapping, victim):
    reads = [op for op in ops if op.op_type is FlashOpType.READ]
    programs = [op for op in ops if op.op_type is FlashOpType.PROGRAM]
    # One READ per page still holding valid data, ascending, carrying
    # exactly that page's valid slots.
    assert [op.payload_bytes for op in reads] == [4096, 8192, 8192]
    # Five survivors re-packed two per 8 KB page.
    assert len(programs) == 3
    assert all(op.gc and op.payload_bytes == 8192 for op in programs)
    assert all(op.gc for op in reads)
    assert ops[: len(reads)] == reads
    destination = plane.active_block[K8]
    assert destination is not None and destination != victim.block_id
    expected = {0: (0, 0), 2: (0, 1), 3: (1, 0), 6: (1, 1), 7: (2, 0)}
    for lpn, (page, slot) in expected.items():
        assert mapping.lookup(lpn) == PhysicalLocation(0, K8, destination, page, slot)
    for lpn in (1, 4, 5):
        assert mapping.lookup(lpn).block_id == victim.block_id  # stale, untouched
    assert plane.block(K8, destination).slots == [(0, 2), (3, 6), (7, None)]
    assert victim.valid_count == 0


def test_gc_collection_migrates_multi_slot_pages():
    plane, allocator, mapping, victim = _victim()
    result = GreedyGC().collect_block(plane, K8, victim, allocator, mapping)
    assert result.migrated_slots == 5
    assert result.erased_block == victim.block_id
    assert result.ops[-1].op_type is FlashOpType.ERASE
    _assert_migrated(result.ops[:-1], plane, mapping, victim)
    assert victim.block_id in plane.free_blocks[K8]
    assert victim.erase_count == 1


def test_bad_block_retirement_migrates_multi_slot_pages():
    plane, allocator, mapping, victim = _victim()
    manager = BadBlockManager(spare_blocks_per_plane=1)
    ops = manager.retire(plane, K8, victim, allocator, mapping)
    assert manager.migrated_slots == 5
    _assert_migrated(ops, plane, mapping, victim)
    assert victim.is_bad
    assert victim.block_id not in plane.free_blocks[K8]
    assert victim.erase_count == 0


def test_buffer_flush_gc_reaches_device_stats():
    # Every write reaches flash through a buffer flush here, and the
    # trace is long enough to run the small device into GC.
    device = EmmcDevice(small_hps(ram_buffer_bytes=64 * 1024))
    Host(device).replay(generate_trace("Facebook", seed=1, num_requests=600))
    assert device.stats.gc_collections > 0
    assert device.stats.gc_migrated_slots > 0
    assert device.stats.gc_migrated_slots == device.ftl.gc_migrated_slots
    assert device.stats.gc_collections == device.ftl.gc_results_total

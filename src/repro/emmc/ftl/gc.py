"""Greedy garbage collection for the page-mapping FTL.

A plane needs GC for a page kind when its free-block pool for that kind
drops to the configured threshold.  The victim is the full block with the
most invalid slots (greedy policy, as in SSDsim); its valid slots are
migrated into the plane's active block of the same kind and the victim is
erased back into the free pool.

The paper's Implication 2 -- launch GC during the long idle gaps instead of
waiting for the free-block count to run low -- is implemented at the device
level (:class:`repro.emmc.device.EmmcDevice` calls :meth:`GreedyGC.collect`
during idle periods when ``idle_gc`` is enabled); the policy here is shared
by both the foreground and the idle path.
"""

from __future__ import annotations

import enum
import random
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..geometry import PageKind
from ..ops import FlashOp, FlashOpType
from .blocks import Block, OutOfSpaceError, Plane
from .mapping import PageMapping, PhysicalLocation


def migrate_valid_slots(
    plane: Plane,
    kind: PageKind,
    victim: Block,
    allocator,
    mapping: PageMapping,
) -> Tuple[List[FlashOp], int]:
    """Re-pack ``victim``'s valid slots into fresh ``kind`` pages of ``plane``.

    The one migration routine behind GC, static wear-leveling and
    bad-block remap.  It emits one READ per page that still holds valid
    data (ascending page order, payload = that page's valid slots), then
    one PROGRAM per re-packed page; every moved LPN is remapped and the
    victim's old slots are invalidated.  Returns the ops (all ``gc=True``)
    and the number of slots moved.
    """
    entries = victim.valid_entries()
    plane_id = plane.plane_id
    victim_id = victim.block_id
    slots = kind.slots
    page_bytes = kind.bytes
    slot_bytes = page_bytes // slots
    valid_per_page = Counter(page for page, _, _ in entries)
    ops = [
        FlashOp(FlashOpType.READ, plane_id, kind, count * slot_bytes, gc=True)
        for _, count in sorted(valid_per_page.items())
    ]
    lpns = [lpn for _, _, lpn in entries]
    for start in range(0, len(lpns), slots):
        chunk = lpns[start : start + slots]
        padded = tuple(chunk) + (None,) * (slots - len(chunk))
        block, _ = allocator.allocate(plane, kind)
        page_index = block.program(padded)
        for slot, lpn in enumerate(padded):
            if lpn is None:
                continue
            old = mapping.update(
                lpn, PhysicalLocation(plane_id, kind, block.block_id, page_index, slot)
            )
            if old is None or old.block_id != victim_id:
                raise RuntimeError("migrated an LPN that moved underneath it")
        ops.append(FlashOp(FlashOpType.PROGRAM, plane_id, kind, page_bytes, gc=True))
    for page, slot, _ in entries:
        victim.invalidate(page, slot)
    return ops, len(entries)


class VictimPolicy(enum.Enum):
    """How GC picks its victim among the full blocks.

    * GREEDY -- most invalid slots (SSDsim's default; fewest migrations).
    * FIFO -- lowest block id among reclaimable blocks (round-robin-ish,
      cheap to implement in firmware).
    * RANDOM -- uniformly random reclaimable block (the strawman).
    """

    GREEDY = "greedy"
    FIFO = "fifo"
    RANDOM = "random"


@dataclass(frozen=True)
class GcResult:
    """Outcome of collecting one victim block."""

    ops: List[FlashOp]
    migrated_slots: int
    erased_block: int


class GreedyGC:
    """Victim selection and migration policy."""

    def __init__(
        self,
        threshold_blocks: int = 2,
        policy: VictimPolicy = VictimPolicy.GREEDY,
        seed: int = 0,
    ) -> None:
        if threshold_blocks < 1:
            raise ValueError("GC threshold must keep at least one block in reserve")
        self.threshold_blocks = threshold_blocks
        self.policy = policy
        self._rng = random.Random(seed)
        #: Fault injection (wired by the FTL when a plan enables erase
        #: failures): a duck-typed :class:`repro.faults.plan.FaultInjector`
        #: and the FTL's :class:`~repro.emmc.ftl.badblocks.BadBlockManager`.
        self.faults = None
        self.bad_blocks = None
        self.erase_failures = 0

    def needs_gc(self, plane: Plane, kind: PageKind) -> bool:
        """Free pool at or below the threshold and something is reclaimable."""
        if plane.free_count(kind) > self.threshold_blocks:
            return False
        return self.select_victim(plane, kind) is not None

    def select_victim(self, plane: Plane, kind: PageKind) -> Optional[Block]:
        """Pick a reclaimable full block per the policy; ``None`` if none."""
        candidates = [
            block for block in plane.gc_candidates(kind) if block.invalid_count > 0
        ]
        if not candidates:
            return None
        if self.policy is VictimPolicy.GREEDY:
            return max(candidates, key=lambda block: block.invalid_count)
        if self.policy is VictimPolicy.FIFO:
            return min(candidates, key=lambda block: block.block_id)
        return self._rng.choice(candidates)

    def collect(
        self,
        plane: Plane,
        kind: PageKind,
        allocator,
        mapping: PageMapping,
    ) -> Optional[GcResult]:
        """Collect one victim in ``plane`` for ``kind``; ``None`` if no victim.

        Valid slots are re-packed into fresh pages of the same kind in the
        same plane (lone 4 KB residents of an 8 KB victim stay in 8 KB pages
        and are re-paired where possible).
        """
        victim = self.select_victim(plane, kind)
        if victim is None:
            return None
        return self.collect_block(plane, kind, victim, allocator, mapping)

    def collect_block(
        self,
        plane: Plane,
        kind: PageKind,
        victim: Block,
        allocator,
        mapping: PageMapping,
    ) -> GcResult:
        """Migrate ``victim``'s valid slots elsewhere and erase it.

        Used by normal GC (victim chosen by :meth:`select_victim`) and by
        static wear-leveling (victim chosen by coldness).
        """
        ops, migrated = migrate_valid_slots(plane, kind, victim, allocator, mapping)
        if (
            self.faults is not None
            and self.faults.erase_active
            and self.faults.erase_fails()
        ):
            # Erase failure: the block is retired (never rejoins the free
            # pool) and a spare is swapped in.  The ERASE op below is still
            # emitted -- the failed attempt consumed the die either way.
            self.erase_failures += 1
            ops.extend(
                self.bad_blocks.retire(plane, kind, victim, allocator, mapping)
            )
        else:
            victim.erase()
            plane.free_blocks[kind].append(victim.block_id)
        ops.append(FlashOp(FlashOpType.ERASE, plane.plane_id, kind, 0, gc=True))
        return GcResult(ops=ops, migrated_slots=migrated, erased_block=victim.block_id)

    def reclaim_until_safe(
        self,
        plane: Plane,
        kind: PageKind,
        allocator,
        mapping: PageMapping,
        max_rounds: int = 8,
    ) -> List[GcResult]:
        """Collect victims until the free pool is above the threshold."""
        results: List[GcResult] = []
        rounds = 0
        while plane.free_count(kind) <= self.threshold_blocks and rounds < max_rounds:
            result = self.collect(plane, kind, allocator, mapping)
            if result is None:
                if plane.free_count(kind) == 0:
                    raise OutOfSpaceError(
                        f"plane {plane.plane_id} exhausted {kind} blocks and "
                        "GC found nothing reclaimable"
                    )
                break
            results.append(result)
            rounds += 1
        return results

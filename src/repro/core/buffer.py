"""The IOMMU's buffer of pending page-table walk requests.

The buffer is what a scheduler scans: the paper calls its size the
scheduler's *lookahead* (Fig 14).  Entries are kept in arrival order.

Unlike the hardware's associative scan of buffer slots, this model keeps
*indexes* alongside the entries so the paper's scheduler queries are
sub-linear (the policy decisions are bit-identical to a linear scan —
see ``docs/PERFORMANCE.md`` and the differential tests):

* a global arrival deque and per-instruction arrival deques (lazily
  pruned) make ``oldest`` and ``oldest_for_instruction`` amortised O(1);
* per-VPN entries live in an insertion-ordered dict keyed by arrival
  sequence, so coalescing lookups and removals are O(1);
* a lazy min-heap over ``(score, oldest_seq, instruction)`` keys (see
  :class:`~repro.core.scoring.ScoreIndex`) answers the shortest-job-first
  query in amortised O(log n) instead of an O(n) rescan.  Mutations only
  note which instructions changed; :meth:`~PendingWalkBuffer.min_score_entry`
  pushes one fresh key for each of them before it reads the heap, so
  batching picks, which never ask, cost the heap nothing.

Only the arrival and per-instruction deques are kept from the start.
Each other index is built from the live entries by the first query that
needs it and maintained from then on, so a policy pays only for the
indexes it reads: FCFS builds none, SIMT the score heap, and pending-walk
coalescing the per-VPN dict.  There is no per-application index: the
fair-share policy answers its own tier with one pass over the buffer,
which measured no slower than maintaining one on every add and remove.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Set

from repro.core.request import TranslationRequest, WalkBufferEntry
from repro.core.scoring import ScoreIndex, ScoreKey, ScoreTable

#: Rebuild a lazy score index once it holds this many stale keys per
#: live one (keeps memory proportional to occupancy, amortised O(1)).
_INDEX_SLACK = 4
_INDEX_MIN = 64


class PendingWalkBuffer:
    """Holds pending walks, their coalescing state and instruction scores."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("buffer capacity must be positive")
        self.capacity = capacity
        self._entries: Dict[int, WalkBufferEntry] = {}
        self._scores = ScoreTable()
        self._arrival_seq = 0
        # Arrival-order indexes.  Deques are pruned lazily: an entry
        # removed from ``_entries`` is dropped when it surfaces at a
        # deque front, so each entry costs O(1) amortised per index.
        self._arrival: Deque[WalkBufferEntry] = deque()
        self._by_instruction: Dict[int, Deque[WalkBufferEntry]] = {}
        # Built on first query, None until then (see the module notes).
        # Duplicate-VPN entries are legal (the baseline IOMMU does not
        # merge same-page walks across instructions), so index per VPN
        # by arrival sequence; insertion order keeps the oldest first.
        self._by_vpn: Optional[Dict[int, Dict[int, WalkBufferEntry]]] = None
        self._score_index: Optional[ScoreIndex] = None
        #: Instructions whose ``(score, oldest_seq)`` may have changed
        #: since the score index last caught up; None until it exists.
        self._changed: Optional[Set[int]] = None
        self.peak_occupancy = 0
        self.total_coalesced = 0
        #: Occupancy flags, plain attributes that :meth:`add` and
        #: :meth:`remove` keep current: the IOMMU and the schedulers
        #: test them once or more per walk.
        self.is_empty = True
        self.is_full = False

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[WalkBufferEntry]:
        """Iterate entries in arrival order."""
        return iter(self._entries.values())

    # ------------------------------------------------------------------
    # Index plumbing
    # ------------------------------------------------------------------

    def _push_changed_keys(self, index: ScoreIndex) -> None:
        """Push the current key of every instruction changed since the
        last query (stale keys expire lazily), then bound the heap."""
        changed = self._changed
        if not changed:
            return
        score_of = self._scores.score_of
        for instruction_id in changed:
            entry = self.oldest_for_instruction(instruction_id)
            if entry is not None:
                index.push(score_of(instruction_id), entry.arrival_seq, instruction_id)
        changed.clear()
        size = len(index)
        if size > _INDEX_MIN and size > _INDEX_SLACK * len(self._by_instruction):
            index.rebuild(self._current_keys())

    def _current_keys(self) -> List[ScoreKey]:
        keys: List[ScoreKey] = []
        for instruction_id in list(self._by_instruction):
            entry = self.oldest_for_instruction(instruction_id)
            if entry is not None:
                keys.append(
                    (
                        self._scores.score_of(instruction_id),
                        entry.arrival_seq,
                        instruction_id,
                    )
                )
        return keys

    def _key_is_current(self, key: ScoreKey) -> bool:
        score, oldest_seq, instruction_id = key
        entry = self.oldest_for_instruction(instruction_id)
        return (
            entry is not None
            and entry.arrival_seq == oldest_seq
            and self._scores.score_of(instruction_id) == score
        )

    # ------------------------------------------------------------------
    # Building the optional indexes (first query only)
    # ------------------------------------------------------------------

    def _build_score_index(self) -> ScoreIndex:
        index = self._score_index = ScoreIndex()
        index.rebuild(self._current_keys())
        self._changed = set()
        return index

    def _build_vpn_index(self) -> Dict[int, Dict[int, WalkBufferEntry]]:
        by_vpn: Dict[int, Dict[int, WalkBufferEntry]] = {}
        for seq, entry in self._entries.items():
            by_vpn.setdefault(entry.vpn, {})[seq] = entry
        self._by_vpn = by_vpn
        return by_vpn

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def add(
        self,
        request: TranslationRequest,
        arrival_time: int,
        estimated_accesses: Optional[int] = None,
    ) -> WalkBufferEntry:
        """Insert a new pending walk for ``request``.

        ``estimated_accesses`` is the PWC-probe estimate (action 1-a);
        it is accumulated into the issuing instruction's score (1-b).
        The score persists until :meth:`complete_walk` is called for the
        instruction's last walk.  Without an estimate (a policy that
        reads no scores) the walk stays out of the score table, so no
        :meth:`complete_walk` is owed for it.  Raises
        :class:`OverflowError` when the buffer is full — callers must
        check :attr:`is_full` and apply back-pressure.
        """
        entries = self._entries
        size = len(entries) + 1
        if size > self.capacity:
            raise OverflowError("IOMMU buffer is full")
        seq = self._arrival_seq
        self._arrival_seq = seq + 1
        entry = WalkBufferEntry(
            request, seq, arrival_time, estimated_accesses or 0
        )
        entries[seq] = entry
        instruction_id = entry.instruction_id
        if estimated_accesses is not None:
            self._scores.add(instruction_id, estimated_accesses)
        self._arrival.append(entry)
        queue = self._by_instruction.get(instruction_id)
        if queue is None:
            self._by_instruction[instruction_id] = deque((entry,))
        else:
            queue.append(entry)
        if self._by_vpn is not None:
            self._by_vpn.setdefault(entry.vpn, {})[seq] = entry
        changed = self._changed
        if changed is not None:
            changed.add(instruction_id)
        self.is_empty = False
        self.is_full = size >= self.capacity
        if size > self.peak_occupancy:
            self.peak_occupancy = size
        return entry

    def attach(self, entry: WalkBufferEntry, request: TranslationRequest) -> None:
        """Coalesce a same-page request onto an existing pending walk.

        The new request contributes no extra walk work (the single walk
        serves both), so scores are unchanged.
        """
        entry.attach(request)
        self.total_coalesced += 1

    def remove(self, entry: WalkBufferEntry) -> None:
        """Remove a dispatched (or cancelled) entry.

        The instruction's score is intentionally NOT released here — the
        walk is merely moving from pending to in-flight.  Call
        :meth:`complete_walk` when the walk finishes.
        """
        seq = entry.arrival_seq
        if self._entries.get(seq) is not entry:
            raise KeyError(f"entry {entry!r} is not in the buffer")
        del self._entries[seq]
        self.is_empty = not self._entries
        self.is_full = False
        by_vpn = self._by_vpn
        if by_vpn is not None:
            same_vpn = by_vpn[entry.vpn]
            del same_vpn[seq]
            if not same_vpn:
                del by_vpn[entry.vpn]
        # The instruction's oldest pending entry may have changed.
        changed = self._changed
        if changed is not None:
            changed.add(entry.instruction_id)

    def account_direct_dispatch(
        self, instruction_id: int, estimated_accesses: int
    ) -> None:
        """Score a walk that bypassed the buffer (idle-walker fast path).

        Keeps the instruction's score complete even when some of its
        walks never queued.
        """
        self._scores.add(instruction_id, estimated_accesses)
        # The score changed while the instruction may have buffered
        # entries (possible when a scan is in progress).
        changed = self._changed
        if changed is not None:
            changed.add(instruction_id)

    def complete_walk(self, instruction_id: int) -> None:
        """Release one walk's score accounting (after the walk finishes)."""
        self._scores.complete(instruction_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def score_of(self, entry: WalkBufferEntry) -> int:
        """The aggregate score of the entry's issuing instruction."""
        return self._scores.score_of(entry.instruction_id)

    def find_by_vpn(self, vpn: int) -> Optional[WalkBufferEntry]:
        """The oldest pending entry for ``vpn``, if any (for coalescing)."""
        by_vpn = self._by_vpn
        if by_vpn is None:
            by_vpn = self._build_vpn_index()
        entries = by_vpn.get(vpn)
        if not entries:
            return None
        return next(iter(entries.values()))

    def oldest(self) -> Optional[WalkBufferEntry]:
        """The entry that arrived first (FCFS choice).  Amortised O(1).

        Pops stale heads: arrival sequences are never reused, so an
        entry is live exactly when its sequence is still a key of
        ``_entries``.
        """
        queue = self._arrival
        entries = self._entries
        while queue:
            entry = queue[0]
            if entry.arrival_seq in entries:
                return entry
            queue.popleft()
        return None

    def oldest_for_instruction(self, instruction_id: int) -> Optional[WalkBufferEntry]:
        """The oldest pending entry of ``instruction_id``.  Amortised O(1)."""
        queue = self._by_instruction.get(instruction_id)
        if queue is None:
            return None
        entries = self._entries
        while queue:
            entry = queue[0]
            if entry.arrival_seq in entries:
                return entry
            queue.popleft()
        del self._by_instruction[instruction_id]
        return None

    def min_score_entry(self) -> Optional[WalkBufferEntry]:
        """The pending entry minimising ``(score, arrival_seq)``.

        Bit-identical to ``min(buffer, key=lambda e: (score_of(e),
        e.arrival_seq))`` but amortised O(log n) via the lazy score
        index, which first catches up on the instructions changed since
        the last call: every live instruction then has its current key
        in the heap.
        """
        if not self._entries:
            return None
        index = self._score_index
        if index is None:
            index = self._build_score_index()
        else:
            self._push_changed_keys(index)
        key = index.peek_valid(self._key_is_current)
        if key is None:
            raise RuntimeError("score index out of sync with buffer")
        return self.oldest_for_instruction(key[2])

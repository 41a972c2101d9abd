"""Pluggable erasure-coding schemes for checkpoint parity groups.

:class:`CodingScheme` abstracts what ``core.dvdc`` historically
hard-coded: *one* XOR parity shard per RAID group.  A scheme maps the
``k`` member images of a group to ``m = n_shards`` parity shards placed
on ``m`` distinct non-member nodes, and can rebuild any erasure pattern
of at most :attr:`~CodingScheme.tolerance` lost elements (members and
shards alike).

Four schemes ship:

========== ========= ========== ================= =================
name       shards m  tolerance  storage overhead  exchange traffic
========== ========= ========== ================= =================
``xor``    1         1          1/k               1x
``rdp``    2         2          ~2/k              2x
``rs-k-m`` m         m          m/k               m×
``rep-n``  n−1       n−1        (n−1)·k/k         (n−1)×
========== ========= ========== ================= =================

Every scheme encodes many groups at once through
:meth:`CodingScheme.encode_groups`; a scheme whose
:attr:`~CodingScheme.folds_deltas` is set also folds an incremental
epoch's sparse page deltas into its previous shards
(:meth:`CodingScheme.fold_groups`) — XOR does, with stacked
whole-cluster kernels.  Schemes that cannot fold are handed full images.

Buffers may have heterogeneous lengths; ``encode`` zero-pads to the
longest member (the padded-XOR convention the stack already uses) and
``reconstruct`` returns members at the scheme's working length, which
the caller trims to each member's own logical size.

Register additional schemes with :func:`register_scheme`; resolve specs
like ``"rs-8-2"`` with :func:`get_scheme`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..cluster.bufpool import GLOBAL_POOL
from ..cluster.checksum import block_checksum, block_checksums_rows
from ..cluster.memory import PageDelta
from ..cluster.xorsum import (
    as_u8,
    reconstruct_missing_padded,
    xor_fold_groups,
    xor_reduce_groups,
    xor_reduce_padded,
)
from .gf256 import MUL_TABLE, cauchy_matrix, gf_matinv
from .rdp import ParityCodeError, RDPCode

__all__ = [
    "CodingScheme",
    "XorScheme",
    "RDPScheme",
    "ReedSolomonScheme",
    "ReplicationScheme",
    "get_scheme",
    "parse_scheme",
    "register_scheme",
    "available_schemes",
    "shard_key",
]

#: Upper bound on shards-per-group baked into the shard_key packing.
MAX_SHARDS = 16


def shard_key(group_id: int, shard_index: int) -> int:
    """Parity-store key for shard ``shard_index`` of group ``group_id``.

    Shard 0 keeps the plain group id, so single-parity (XOR) stores are
    keyed by group id alone.  Higher shards use negative keys packed so
    keys are unique across ``(group, shard)`` pairs.
    """
    if not 0 <= shard_index < MAX_SHARDS:
        raise ValueError(f"shard index {shard_index} out of range")
    if shard_index == 0:
        return group_id
    return -(group_id * MAX_SHARDS + shard_index)


def _pad_members(
    members: Sequence[np.ndarray | bytes], length: int | None = None
) -> tuple[list[np.ndarray], int]:
    """Zero-pad members to a common working length (the longest, or
    ``length`` when the caller pins it)."""
    bufs = [as_u8(m) for m in members]
    if not bufs:
        raise ParityCodeError("empty member list")
    n = max(b.shape[0] for b in bufs)
    if length is not None:
        if length < n:
            raise ParityCodeError(f"coding length {length} < longest member {n}")
        n = length
    out = []
    for b in bufs:
        if b.shape[0] == n:
            out.append(b)
        else:
            p = np.zeros(n, dtype=np.uint8)
            p[: b.shape[0]] = b
            out.append(p)
    return out, n


class CodingScheme:
    """Interface every coding scheme implements.

    Attributes
    ----------
    name:
        Registry spelling (``"xor"``, ``"rdp"``, ``"rs-8-2"``, ``"rep-3"``).
    n_shards:
        ``m`` — parity shards per group, each on a distinct non-member
        node.
    tolerance:
        Maximum simultaneous erasures (members + shards) the scheme
        repairs.
    folds_deltas:
        True when the scheme implements :meth:`fold_groups`: an
        incremental epoch then ships sparse ``old ⊕ new`` page deltas
        and folds them into the previous shards instead of re-encoding
        materialized full images.
    """

    name: str = "abstract"
    n_shards: int = 0
    tolerance: int = 0
    folds_deltas: bool = False

    def encode(self, members: Sequence[np.ndarray | bytes]) -> list[np.ndarray]:
        """Members (any lengths, zero-pad semantics) → ``m`` shards."""
        raise NotImplementedError

    def encode_groups(
        self, groups: Sequence[Sequence[np.ndarray]]
    ) -> list[tuple[list[np.ndarray], list[int]]]:
        """Encode many groups at once: per group (input order), its
        ``m`` shards and their :func:`~repro.cluster.checksum.block_checksum`.
        Schemes override this to batch the work across groups."""
        out = []
        for members in groups:
            shards = self.encode(members)
            out.append((shards, [block_checksum(s) for s in shards]))
        return out

    def fold_groups(
        self,
        prev: Sequence[Sequence[np.ndarray]],
        deltas: Sequence[Sequence[PageDelta]],
    ) -> list[tuple[list[np.ndarray], list[int]]]:
        """Fold incremental epochs into previous shards (only when
        :attr:`folds_deltas`): per group, ``prev`` holds its previous
        shard bytes and ``deltas`` each member's ``old ⊕ new`` dirty
        pages.  Returns new shards + checksums like :meth:`encode_groups`;
        the inputs are not mutated."""
        raise NotImplementedError(f"{self.name} does not fold page deltas")

    def reconstruct(
        self,
        members: Sequence[np.ndarray | None],
        shards: Sequence[np.ndarray | None],
        nbytes: int | None = None,
    ) -> list[np.ndarray]:
        """Rebuild missing members from survivors + surviving shards.

        ``members`` is the full ``k``-list with ``None`` marking losses;
        ``shards`` likewise (length ``m``).  Rebuilt members come back at
        the scheme's working length — callers trim to each member's own
        logical size.  ``nbytes`` pins the working length when no shard
        survives to infer it from.

        Raises :class:`ParityCodeError` when the erasure pattern exceeds
        :attr:`tolerance`.
        """
        raise NotImplementedError

    def storage_overhead(self, k: int) -> float:
        """Extra bytes stored per group data byte (shards / members)."""
        raise NotImplementedError

    def traffic_factor(self, k: int) -> float:
        """Exchange bytes shipped per checkpoint byte (m-way fan-out)."""
        return float(self.n_shards)

    def shard_length(self, member_length: int, k: int) -> int:
        """Working shard length for members padded to ``member_length``."""
        return member_length

    def working_length(self, shard_length: int, k: int) -> int:
        """Member working (padded) length implied by a shard's length."""
        return shard_length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} m={self.n_shards} t={self.tolerance}>"


def _missing_count(
    members: Sequence[np.ndarray | None], shards: Sequence[np.ndarray | None]
) -> tuple[list[int], int]:
    lost_members = [i for i, m in enumerate(members) if m is None]
    lost_shards = sum(1 for s in shards if s is None)
    return lost_members, lost_shards


class XorScheme(CodingScheme):
    """Single-parity XOR (the paper's RAID-4/5 analogue): the ``m = 1``
    case of the one protocol path.

    Runs on the :mod:`repro.cluster.xorsum` kernels (the golden
    ``scale64.json`` digests pin its bytes), batches the commit-time
    encode across groups, and is the scheme that folds incremental page
    deltas — the RAID small-write update.
    """

    name = "xor"
    n_shards = 1
    tolerance = 1
    folds_deltas = True

    def encode(self, members: Sequence[np.ndarray | bytes]) -> list[np.ndarray]:
        if not members:
            raise ParityCodeError("empty member list")
        return [xor_reduce_padded(members)]

    def encode_groups(
        self, groups: Sequence[Sequence[np.ndarray]]
    ) -> list[tuple[list[np.ndarray], list[int]]]:
        """Groups are partitioned by shape signature and each partition
        encoded by one stacked kernel (:func:`xor_reduce_groups`,
        :func:`block_checksums_rows`) — a handful of whole-cluster numpy
        calls instead of O(groups) small ones.  Groups with unequal
        member sizes take the padded scalar reduce."""
        out: list = [None] * len(groups)
        batches: dict[tuple[int, int], list[int]] = {}
        for i, flats in enumerate(groups):
            lengths = {f.shape[0] for f in flats}
            if len(lengths) == 1:
                batches.setdefault((len(flats), lengths.pop()), []).append(i)
            else:
                data = xor_reduce_padded(
                    flats, out=GLOBAL_POOL.acquire(max(f.shape[0] for f in flats))
                )
                out[i] = ([data], [block_checksum(data)])
        for idxs in batches.values():
            stacked = xor_reduce_groups([groups[i] for i in idxs])
            for row, (i, checksum) in enumerate(
                zip(idxs, block_checksums_rows(stacked))
            ):
                out[i] = ([stacked[row]], [checksum])
        return out

    def fold_groups(
        self,
        prev: Sequence[Sequence[np.ndarray]],
        deltas: Sequence[Sequence[PageDelta]],
    ) -> list[tuple[list[np.ndarray], list[int]]]:
        """The RAID small-write update, batched: groups are partitioned
        by page geometry and each partition folded by one
        :func:`xor_fold_groups` call."""
        out: list = [None] * len(prev)
        batches: dict[tuple[int, int], list[int]] = {}
        for i, group_deltas in enumerate(deltas):
            d0 = group_deltas[0]
            batches.setdefault((d0.n_pages_total, d0.page_size), []).append(i)
        for (n_pages_total, page_size), idxs in batches.items():
            stacked = xor_fold_groups(
                [prev[i][0] for i in idxs],
                [[(d.indices, d.pages) for d in deltas[i]] for i in idxs],
                n_pages_total,
                page_size,
            )
            for row, (i, checksum) in enumerate(
                zip(idxs, block_checksums_rows(stacked))
            ):
                out[i] = ([stacked[row]], [checksum])
        return out

    def reconstruct(
        self,
        members: Sequence[np.ndarray | None],
        shards: Sequence[np.ndarray | None],
        nbytes: int | None = None,
    ) -> list[np.ndarray]:
        lost, lost_shards = _missing_count(members, shards)
        if len(lost) + lost_shards > self.tolerance:
            raise ParityCodeError(
                f"xor tolerates 1 erasure, {len(lost) + lost_shards} lost"
            )
        if not lost:
            return [as_u8(m).copy() for m in members]  # type: ignore[arg-type]
        parity = shards[0]
        if parity is None:
            raise ParityCodeError("cannot rebuild a member without the parity shard")
        parity = as_u8(parity)
        survivors = [as_u8(m) for m in members if m is not None]
        rebuilt = reconstruct_missing_padded(survivors, parity, parity.shape[0])
        return [
            rebuilt if i == lost[0] else as_u8(m).copy()
            for i, m in enumerate(members)
        ]

    def storage_overhead(self, k: int) -> float:
        return 1.0 / k


class RDPScheme(CodingScheme):
    """Row-Diagonal Parity re-expressed on the scheme interface.

    Wraps :class:`repro.coding.rdp.RDPCode` (one cached codec per
    member count).
    """

    name = "rdp"
    n_shards = 2
    tolerance = 2

    def __init__(self) -> None:
        self._codes: dict[int, RDPCode] = {}

    def _code(self, k: int) -> RDPCode:
        code = self._codes.get(k)
        if code is None:
            code = self._codes[k] = RDPCode(k)
        return code

    def encode(self, members: Sequence[np.ndarray | bytes]) -> list[np.ndarray]:
        padded, _ = _pad_members(members)
        return self._code(len(padded)).encode(padded)

    def reconstruct(
        self,
        members: Sequence[np.ndarray | None],
        shards: Sequence[np.ndarray | None],
        nbytes: int | None = None,
    ) -> list[np.ndarray]:
        code = self._code(len(members))
        length = nbytes
        for s in shards:
            if s is not None:
                # Stripe length: members padded to it satisfy the same
                # row/diagonal equations as the encode-time columns.
                length = as_u8(s).shape[0]
                break
        survivors = [m for m in members if m is not None]
        if length is None and survivors:
            raw = max(as_u8(m).shape[0] for m in survivors)
            length = code._rowbytes(raw) * (code.p - 1)
        padded = [
            None if m is None else _pad_members([m], length)[0][0] for m in members
        ]
        return code.reconstruct(padded, list(shards), nbytes=length)

    def storage_overhead(self, k: int) -> float:
        return 2.0 / k

    def shard_length(self, member_length: int, k: int) -> int:
        code = self._code(k)
        return code._rowbytes(member_length) * (code.p - 1)


class ReedSolomonScheme(CodingScheme):
    """Systematic Reed–Solomon RS(k, m) over GF(256).

    Generator ``[I_k ; C]`` with ``C`` an ``m × k`` Cauchy block (any
    square submatrix invertible — the MDS property), so *any* ``m``
    erasures among the ``k + m`` elements are repairable.  Encode is
    vectorized: per coefficient, one ``MUL_TABLE`` gather over the whole
    member buffer plus an XOR accumulate.  Decode inverts the ``k × k``
    survivor submatrix by Gauss–Jordan over GF(256) and re-projects.

    ``k`` is bound per group at encode time (the spec's ``k`` — e.g. the
    8 in ``rs-8-2`` — is advisory, used for bench naming and overhead
    math); coefficient matrices are cached per member count.
    """

    def __init__(self, m: int = 2, k_hint: int = 8) -> None:
        if m < 1:
            raise ValueError(f"need m >= 1 parity shards, got {m}")
        self.n_shards = m
        self.tolerance = m
        self.k_hint = k_hint
        self.name = f"rs-{k_hint}-{m}"
        self._cauchy: dict[int, np.ndarray] = {}

    def _matrix(self, k: int) -> np.ndarray:
        mat = self._cauchy.get(k)
        if mat is None:
            mat = self._cauchy[k] = cauchy_matrix(k, self.n_shards)
        return mat

    def encode(self, members: Sequence[np.ndarray | bytes]) -> list[np.ndarray]:
        padded, length = _pad_members(members)
        cmat = self._matrix(len(padded))
        shards = []
        for i in range(self.n_shards):
            acc = np.zeros(length, dtype=np.uint8)
            for j, m in enumerate(padded):
                c = int(cmat[i, j])
                if c == 1:
                    acc ^= m
                elif c:
                    acc ^= MUL_TABLE[c][m]
            shards.append(acc)
        return shards

    def reconstruct(
        self,
        members: Sequence[np.ndarray | None],
        shards: Sequence[np.ndarray | None],
        nbytes: int | None = None,
    ) -> list[np.ndarray]:
        k = len(members)
        lost, lost_shards = _missing_count(members, shards)
        if len(lost) + lost_shards > self.tolerance:
            raise ParityCodeError(
                f"{self.name} tolerates {self.tolerance} erasures, "
                f"{len(lost) + lost_shards} lost"
            )
        if not lost:
            return [as_u8(m).copy() for m in members]  # type: ignore[arg-type]
        length = nbytes
        for s in shards:
            if s is not None:
                length = as_u8(s).shape[0]
                break
        if length is None:
            raise ParityCodeError("no surviving shard; pass nbytes")
        cmat = self._matrix(k)
        # Generator rows: identity for members, Cauchy rows for shards.
        # Pick k surviving rows, invert, solve for the data vector.
        rows: list[np.ndarray] = []
        rhs: list[np.ndarray] = []
        for j, m in enumerate(members):
            if m is not None:
                row = np.zeros(k, dtype=np.uint8)
                row[j] = 1
                rows.append(row)
                rhs.append(_pad_members([m], length)[0][0])
        for i, s in enumerate(shards):
            if s is not None and len(rows) < k:
                rows.append(cmat[i])
                rhs.append(as_u8(s))
        if len(rows) < k:
            raise ParityCodeError(
                f"{self.name}: only {len(rows)} survivors for {k} unknowns"
            )
        inv = gf_matinv(np.stack(rows[:k]))
        rhs_mat = rhs[:k]
        out = list(members)
        for j in lost:
            acc = np.zeros(length, dtype=np.uint8)
            for c_idx in range(k):
                c = int(inv[j, c_idx])
                if c == 1:
                    acc ^= rhs_mat[c_idx]
                elif c:
                    acc ^= MUL_TABLE[c][rhs_mat[c_idx]]
            out[j] = acc
        return [as_u8(m).copy() if i not in lost else out[i] for i, m in enumerate(out)]

    def storage_overhead(self, k: int) -> float:
        return self.n_shards / k


class ReplicationScheme(CodingScheme):
    """Replication-n: every shard is a full copy of the group's data.

    Each of the ``m = n − 1`` shards concatenates all ``k`` members
    (padded to the longest), so *one* surviving shard rebuilds the whole
    group: any erasure pattern that leaves a shard — or all members —
    alive is repairable, hence tolerance ``n − 1``.  Storage and traffic
    cost are what production VM stacks (Ceph-style 3-way replication)
    pay for the same property.
    """

    def __init__(self, n: int = 3) -> None:
        if n < 2:
            raise ValueError(f"replication needs n >= 2 copies, got {n}")
        self.copies = n
        self.n_shards = n - 1
        self.tolerance = n - 1
        self.name = f"rep-{n}"

    def encode(self, members: Sequence[np.ndarray | bytes]) -> list[np.ndarray]:
        padded, length = _pad_members(members)
        flat = np.concatenate(padded) if len(padded) > 1 else padded[0].copy()
        return [flat.copy() for _ in range(self.n_shards)]

    def reconstruct(
        self,
        members: Sequence[np.ndarray | None],
        shards: Sequence[np.ndarray | None],
        nbytes: int | None = None,
    ) -> list[np.ndarray]:
        k = len(members)
        lost, _ = _missing_count(members, shards)
        if not lost:
            return [as_u8(m).copy() for m in members]  # type: ignore[arg-type]
        source = next((s for s in shards if s is not None), None)
        if source is None:
            raise ParityCodeError(
                f"{self.name}: members lost and no replica shard survives"
            )
        flat = as_u8(source)
        if flat.shape[0] % k:
            raise ParityCodeError(
                f"{self.name}: replica length {flat.shape[0]} not divisible by k={k}"
            )
        length = flat.shape[0] // k
        return [
            as_u8(m).copy() if m is not None else flat[i * length : (i + 1) * length].copy()
            for i, m in enumerate(members)
        ]

    def storage_overhead(self, k: int) -> float:
        return float(self.n_shards)

    def shard_length(self, member_length: int, k: int) -> int:
        return member_length * k

    def working_length(self, shard_length: int, k: int) -> int:
        return shard_length // k


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
_REGISTRY: dict[str, Callable[[], CodingScheme]] = {}


def register_scheme(name: str, factory: Callable[[], CodingScheme]) -> None:
    """Register a custom scheme under ``name`` for :func:`get_scheme`.

    ``factory`` is a zero-argument callable returning a fresh scheme
    instance (schemes carry per-k codec caches, so instances should not
    be shared across unrelated checkpointers unless that is intended).
    """
    _REGISTRY[name] = factory


def available_schemes() -> list[str]:
    """Registered scheme names plus the parametric spec families."""
    return sorted(_REGISTRY) + ["rs-<k>-<m>", "rep-<n>"]


register_scheme("xor", XorScheme)
register_scheme("rdp", RDPScheme)
register_scheme("rs-8-2", lambda: ReedSolomonScheme(m=2, k_hint=8))
register_scheme("rep-3", lambda: ReplicationScheme(3))


def parse_scheme(spec: str) -> CodingScheme:
    """Resolve a scheme spec string: registry name, ``rs-<k>-<m>``, or
    ``rep-<n>``."""
    factory = _REGISTRY.get(spec)
    if factory is not None:
        return factory()
    parts = spec.split("-")
    try:
        if parts[0] == "rs" and len(parts) == 3:
            return ReedSolomonScheme(m=int(parts[2]), k_hint=int(parts[1]))
        if parts[0] == "rep" and len(parts) == 2:
            return ReplicationScheme(int(parts[1]))
    except ValueError:
        pass
    raise ValueError(
        f"unknown coding scheme {spec!r}; known: {', '.join(available_schemes())}"
    )


def get_scheme(spec: "str | CodingScheme | None") -> CodingScheme:
    """Coerce a spec (string, instance, or None → xor) to a scheme."""
    if spec is None:
        return XorScheme()
    if isinstance(spec, CodingScheme):
        return spec
    return parse_scheme(spec)

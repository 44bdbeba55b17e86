"""Sequence value assignment and index key construction.

Sequence values place policy-compatible users at nearby reals.  The
paper's rule processes users in descending order of how many others they
relate to; the first user reached is an anchor at ``SV0``, each later user
still unassigned when reached becomes an anchor one separation step
``DELTA`` above the previous anchor, and every not-yet-assigned user
related to the anchor lands at ``anchor + (1 - C)``, so higher
compatibility means a smaller gap.  ``SV0`` and ``DELTA`` are the paper's
values; both exceed 1, so an anchor's members stay below the next anchor.

Left alone, the first anchors absorb every related user, members of other
policy groups included, so one group's users end up under many anchors
far apart in key order.  A community step therefore runs first: label
propagation over the two-way pairs (each user holds a policy toward the
other) splits the users into communities; anchors are taken community by
community, and an anchor absorbs only related users of its own community
or users with no two-way pair.  Without two-way pairs every user is its
own community and the rule is the paper's.

Keys are fixed-width bit concatenations.  The policy-embedded key is
``time partition | quantized sequence value | Z-value`` so that integer
order equals lexicographic order on the fields and sequence values
dominate location.  The baseline key drops the sequence value field.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import eq, itemgetter
from typing import Iterable, Protocol

from .motion import TimePartitionConfig
from .zcurve import GridConfig

PROPAGATION_ROUNDS = 3
SV0 = 2.0  # the first anchor's sequence value
DELTA = 2.0  # the step from one anchor to the next


class CompatibilityOracle(Protocol):
    """What sequence value assignment reads of a compatibility index.

    ``related_count(u)`` equals ``len(related(u))``.  Assignment ranks every
    user by the count and reads the list of its anchors only, so an oracle
    may build a list on demand.
    """

    def related(self, u: int) -> list[int]: ...

    def related_count(self, u: int) -> int: ...

    def two_way(self, u: int) -> list[int]: ...

    def c(self, u: int, v: int) -> float: ...


@dataclass(frozen=True)
class SequenceValueMap:
    """Per-user sequence values and the anchors, in the order they were taken."""

    values: dict[int, float]
    anchors: tuple[int, ...]

    def __getitem__(self, uid: int) -> float:
        return self.values[uid]

    @property
    def max_value(self) -> float:
        return max(self.values.values(), default=0.0)


def assign_sequence_values(users: Iterable[int], compat: CompatibilityOracle) -> SequenceValueMap:
    """Assign every user a sequence value.

    Users are ranked by descending related-user count with ties broken by
    ascending id, the paper's order.  :func:`communities` labels the users
    that have a two-way pair; a user without one is labelled by its own
    rank.  The anchor loop visits the users by (label, rank), so it walks
    each community in one stretch, in the paper's order within it.  The
    first user visited receives ``SV0``; each later user still unassigned
    when reached becomes a new anchor at the previous anchor's value plus
    ``DELTA``; each unassigned user related to the anchor that shares its
    label or has no two-way pair receives ``anchor + (1 - C(anchor, member))``.

    Without two-way pairs every label is a rank, and this is the paper's
    rule: the visit order is the rank order and every related user is
    absorbed.  The result does not depend on the order of ``users``.
    """
    user_set = set(users)
    count = compat.related_count
    order = sorted(user_set, key=lambda u: (-count(u), u))
    community = communities(order, compat)
    # (label, rank, user) triples sort without a key function
    visits = sorted(zip([community.get(u, i) for i, u in enumerate(order)], range(len(order)), order))
    values: dict[int, float] = {}
    anchors: list[int] = []
    anchor_sv = SV0 - DELTA
    for _, _, u in visits:
        if u in values:
            continue
        anchor_sv += DELTA
        values[u] = anchor_sv
        anchors.append(u)
        label = community.get(u)
        for m in compat.related(u):
            # a user without a two-way pair matches any anchor's label
            if m in user_set and m not in values and community.get(m, label) == label:
                values[m] = anchor_sv + (1.0 - compat.c(u, m))
    return SequenceValueMap(values, tuple(anchors))


def communities(order: list[int], compat: CompatibilityOracle) -> dict[int, int]:
    """Community labels of the users in ``order`` that have a two-way pair among them.

    Label propagation (Raghavan, Albert and Kumara, Phys. Rev. E 76,
    036106, 2007): each user starts with its position in ``order`` as its
    label; then, in that order and for at most ``PROPAGATION_ROUNDS``
    rounds, each takes the label most frequent among its two-way
    partners, the smallest on a tie (the earliest, best-related user's),
    until a round changes nothing.
    """
    label = {u: i for i, u in enumerate(order)}
    members = set(order)
    voters = []
    for u in order:
        partners = compat.two_way(u)
        if not members.issuperset(partners):
            partners = [v for v in partners if v in members]
        if partners:
            # a getter of one index returns a bare label, so name a lone partner twice
            voters.append((u, itemgetter(*partners) if len(partners) > 1 else itemgetter(partners[0], partners[0])))
    for _ in range(PROPAGATION_ROUNDS):
        changed = False
        for u, heard_by in voters:
            heard = heard_by(label)
            best = heard[0]
            if heard.count(best) * 2 <= len(heard):  # no majority: count every label
                ascending = sorted(heard)
                # a label heard n times appears here n - 1 times, in ascending order
                repeats = list(compress(ascending, map(eq, ascending, ascending[1:])))
                best = max(repeats, key=repeats.count) if repeats else ascending[0]
            if best != label[u]:
                label[u] = best
                changed = True
        if not changed:
            break
    return {u: label[u] for u, _ in voters}


@dataclass(frozen=True)
class KeyLayout:
    """Bit widths of the key fields for one index instance.

    Keys built with different layouts are not comparable.  Sequence values
    are quantized to ``frac_bits`` fractional bits; quantization preserves
    order whenever two values differ by at least one quantum.
    """

    tid_bits: int
    sv_bits: int
    zv_bits: int
    frac_bits: int = 8

    @classmethod
    def for_index(cls, time_cfg: TimePartitionConfig, grid: GridConfig, max_sv: float) -> "KeyLayout":
        tid_bits = max(1, (time_cfg.num_partitions - 1).bit_length())
        sv_bits = max(1, round(max_sv * (1 << cls.frac_bits)).bit_length())  # the field's default
        return cls(tid_bits, sv_bits, grid.zv_bits)

    def quantize_sv(self, sv: float) -> int:
        """Fixed-point encoding of a sequence value."""
        if sv < 0:
            raise ValueError("sequence values are non-negative")
        q = round(sv * (1 << self.frac_bits))
        if q >= (1 << self.sv_bits):
            raise ValueError(f"sequence value {sv} overflows {self.sv_bits}-bit field")
        return q

    def quantize_map(self, sv_map: SequenceValueMap) -> dict[int, int]:
        """Each user's quantized sequence value, by uid."""
        return {uid: self.quantize_sv(sv) for uid, sv in sv_map.values.items()}

    def peb_key_q(self, tid: int, svq: int, zv: int) -> int:
        """Policy-embedded key: tid | quantized sv | zv."""
        self._check_tid(tid)
        if not 0 <= svq < (1 << self.sv_bits):
            raise ValueError(f"quantized sequence value {svq} overflows field")
        self._check_zv(zv)
        return (tid << (self.sv_bits + self.zv_bits)) | (svq << self.zv_bits) | zv

    def bx_key(self, tid: int, zv: int) -> int:
        """Baseline key: tid | zv (no policy field)."""
        self._check_tid(tid)
        self._check_zv(zv)
        return (tid << self.zv_bits) | zv

    def _check_tid(self, tid: int) -> None:
        if not 0 <= tid < (1 << self.tid_bits):
            raise ValueError(f"time partition {tid} overflows {self.tid_bits}-bit field")

    def _check_zv(self, zv: int) -> None:
        if not 0 <= zv < (1 << self.zv_bits):
            raise ValueError(f"z-value {zv} overflows {self.zv_bits}-bit field")

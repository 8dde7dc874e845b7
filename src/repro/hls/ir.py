"""Kernel intermediate representation for the HLS tool."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Tuple

from repro.telemetry.quantiles import fold_sum


class OpKind(Enum):
    """Datapath operation classes with distinct hardware costs."""

    ADD = "add"        # fp add/sub
    MUL = "mul"        # fp multiply
    DIV = "div"        # fp divide
    SQRT = "sqrt"
    CMP = "cmp"        # compares / select
    LOGIC = "logic"    # bitwise / integer index math
    EXP = "exp"        # transcendental (exp/log/sin) -- table+poly datapath


@dataclass(frozen=True)
class ArrayArg:
    """One array argument of the kernel.

    ``reads_per_iter`` / ``writes_per_iter`` count accesses per innermost
    iteration; together with a partitioning factor they determine the
    memory-port component of the initiation interval.
    """

    name: str
    elem_bytes: int = 4
    reads_per_iter: float = 0.0
    writes_per_iter: float = 0.0
    footprint_elems: int = 1024   # on-chip buffer size (drives BRAM count)

    def __post_init__(self) -> None:
        if self.elem_bytes <= 0:
            raise ValueError(f"elem_bytes must be positive, got {self.elem_bytes}")
        if self.reads_per_iter < 0 or self.writes_per_iter < 0:
            raise ValueError("access counts must be non-negative")
        if self.footprint_elems < 1:
            raise ValueError("footprint must be at least one element")

    @property
    def accesses_per_iter(self) -> float:
        return self.reads_per_iter + self.writes_per_iter


@dataclass(frozen=True)
class Kernel:
    """A perfectized loop nest with a characterized innermost body.

    ``trip_counts`` are outer-to-inner; only the innermost loop is
    pipelined/unrolled by the transforms (standard HLS practice).

    ``recurrence`` models a loop-carried dependence as
    ``(distance, chain_latency_cycles)``: the classic bound
    ``II >= ceil(chain_latency / distance)``.  ``None`` means the loop is
    fully parallel (II can reach 1).
    """

    name: str
    trip_counts: Tuple[int, ...]
    ops: Dict[OpKind, float] = field(default_factory=dict)
    arrays: Tuple[ArrayArg, ...] = ()
    recurrence: Optional[Tuple[int, int]] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.trip_counts or any(t < 1 for t in self.trip_counts):
            raise ValueError(f"trip counts must be positive, got {self.trip_counts}")
        for kind, count in self.ops.items():
            if not isinstance(kind, OpKind):
                raise ValueError(f"ops keys must be OpKind, got {kind!r}")
            if count < 0:
                raise ValueError(f"op count for {kind} must be non-negative")
        if self.recurrence is not None:
            distance, latency = self.recurrence
            if distance < 1 or latency < 1:
                raise ValueError(f"invalid recurrence {self.recurrence}")
        names = [a.name for a in self.arrays]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate array names in {names}")

    def cache_key(self) -> tuple:
        """A hashable identity for memoizing cost-model evaluations.

        Kernels carry a dict field (``ops``) so the dataclass itself is
        unhashable; this canonicalizes every field.  Computed once and
        attached (the dataclass is frozen, hence ``object.__setattr__``).
        """
        try:
            return self._cache_key  # type: ignore[attr-defined]
        except AttributeError:
            key = (
                self.name,
                self.trip_counts,
                tuple(sorted((k.value, v) for k, v in self.ops.items())),
                self.arrays,
                self.recurrence,
            )
            object.__setattr__(self, "_cache_key", key)
            return key

    @property
    def inner_trip(self) -> int:
        return self.trip_counts[-1]

    @property
    def outer_iterations(self) -> int:
        total = 1
        for t in self.trip_counts[:-1]:
            total *= t
        return total

    @property
    def total_iterations(self) -> int:
        return self.outer_iterations * self.inner_trip

    def array(self, name: str) -> ArrayArg:
        for a in self.arrays:
            if a.name == name:
                return a
        raise KeyError(f"kernel {self.name!r} has no array {name!r}")

    def ops_per_iteration(self) -> float:
        """Operations per innermost iteration (computed once, like
        :meth:`cache_key`: the software cost model prices energy with it
        on every call)."""
        try:
            return self._ops_per_iteration  # type: ignore[attr-defined]
        except AttributeError:
            total = fold_sum(self.ops.values())
            object.__setattr__(self, "_ops_per_iteration", total)
            return total

    def bytes_per_iteration(self) -> float:
        """Bytes moved per innermost iteration (computed once: a hardware
        call sizes its transfers with it)."""
        try:
            return self._bytes_per_iteration  # type: ignore[attr-defined]
        except AttributeError:
            total = fold_sum(a.accesses_per_iter * a.elem_bytes for a in self.arrays)
            object.__setattr__(self, "_bytes_per_iteration", total)
            return total

    def arithmetic_intensity(self) -> float:
        """FLOP-ish per byte -- high intensity kernels are the FPGA wins."""
        b = self.bytes_per_iteration()
        return self.ops_per_iteration() / b if b else float("inf")

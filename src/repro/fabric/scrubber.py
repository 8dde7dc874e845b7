"""Configuration-memory scrubbing: SEU detection by readback.

FPGAs in large systems accumulate single-event upsets in configuration
memory; the standard defence (and the detection half of the paper's
resilience story) is a *scrubber* that periodically reads frames back
through the configuration port and compares them against the golden
bitstream.  On a mismatch the region is reported faulty so the recovery
machinery (:mod:`repro.core.resilience`) can reload it.

The model is functional: :meth:`inject_upset` really flips bits in a
copy of the region's configuration data, and the scrubber really
compares bytes -- detection latency depends on where the scrub cursor
is, exactly as on silicon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.fabric.bitstream import FRAME_BYTES
from repro.fabric.region import Fabric, Region, RegionState
from repro.sim import Simulator, Timeout
from repro.telemetry.quantiles import mean


@dataclass
class UpsetRecord:
    region_id: int
    frame: int
    bit: int
    injected_at: float
    detected_at: Optional[float] = None

    @property
    def detection_ns(self) -> Optional[float]:
        if self.detected_at is None:
            return None
        return self.detected_at - self.injected_at


class ConfigScrubber:
    """Round-robin frame readback over one Worker's fabric."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        readback_bandwidth_gbps: float = 0.4,
        on_fault: Optional[Callable[[Region, int], None]] = None,
    ) -> None:
        if readback_bandwidth_gbps <= 0:
            raise ValueError("readback bandwidth must be positive")
        self.sim = sim
        self.fabric = fabric
        self.readback_bandwidth_gbps = readback_bandwidth_gbps
        self.on_fault = on_fault
        # live config memory per region, keyed to the loaded module so a
        # reload (even of an equally-sized module) resets the copy
        self._live: Dict[int, Tuple[str, bytearray]] = {}
        self.upsets: List[UpsetRecord] = []
        self.frames_scrubbed = 0
        self.faults_detected = 0
        self._running = True

    # ------------------------------------------------------------------
    def _golden(self, region: Region) -> Optional[bytes]:
        if region.module is None:
            return None
        return region.module.bitstream.data

    def _live_data(self, region: Region) -> Optional[bytearray]:
        golden = self._golden(region)
        if golden is None:
            self._live.pop(region.region_id, None)
            return None
        module_name = region.module.name
        entry = self._live.get(region.region_id)
        if entry is None or entry[0] != module_name or len(entry[1]) != len(golden):
            entry = (module_name, bytearray(golden))
            self._live[region.region_id] = entry
        return entry[1]

    # ------------------------------------------------------------------
    def inject_upset(self, region_id: int, frame: int, bit: int = 0) -> UpsetRecord:
        """Flip one configuration bit in a loaded region (a real SEU)."""
        region = self.fabric.regions[region_id]
        live = self._live_data(region)
        if live is None:
            raise ValueError(f"region {region_id} holds no configuration")
        byte_index = frame * FRAME_BYTES + (bit // 8)
        if not 0 <= byte_index < len(live):
            raise ValueError(f"frame {frame} outside region {region_id}'s bitstream")
        live[byte_index] ^= 1 << (bit % 8)
        record = UpsetRecord(
            region_id=region_id, frame=frame, bit=bit, injected_at=self.sim.now
        )
        self.upsets.append(record)
        return record

    # ------------------------------------------------------------------
    def _scrub_frame(self, region: Region, frame: int) -> bool:
        """Read one frame back and compare; returns True when corrupt."""
        golden = self._golden(region)
        live = self._live_data(region)
        if golden is None or live is None:
            return False
        a = frame * FRAME_BYTES
        b = a + FRAME_BYTES
        return bytes(live[a:b]) != golden[a:b]

    def _repair_frame(self, region: Region, frame: int) -> None:
        golden = self._golden(region)
        live = self._live_data(region)
        a = frame * FRAME_BYTES
        live[a:a + FRAME_BYTES] = golden[a:a + FRAME_BYTES]

    def scrub_pass(self) -> Generator:
        """One full pass over every loaded frame (simulation process).

        Returns the number of corrupt frames found.  Each frame readback
        costs its transfer time on the configuration port.
        """
        found = 0
        for region in self.fabric.regions:
            if region.state is not RegionState.READY or region.module is None:
                continue
            frames = region.module.bitstream.frames
            for frame in range(frames):
                yield Timeout(FRAME_BYTES / self.readback_bandwidth_gbps)
                self.frames_scrubbed += 1
                if self._scrub_frame(region, frame):
                    found += 1
                    self.faults_detected += 1
                    for record in self.upsets:
                        if (
                            record.region_id == region.region_id
                            and record.frame == frame
                            and record.detected_at is None
                        ):
                            record.detected_at = self.sim.now
                    self._repair_frame(region, frame)  # scrubber rewrite
                    if self.on_fault is not None:
                        self.on_fault(region, frame)
        return found

    def run(self, interval_ns: float = 100_000.0) -> Generator:
        """Continuous scrubbing loop with idle gaps between passes."""
        if interval_ns <= 0:
            raise ValueError("interval must be positive")
        while self._running:
            yield from self.scrub_pass()
            yield Timeout(interval_ns)

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------
    def mean_detection_ns(self) -> float:
        done = [u.detection_ns for u in self.upsets if u.detection_ns is not None]
        return mean(done)

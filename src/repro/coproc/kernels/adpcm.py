"""ADPCM-decode coprocessor core (Figure 8's hardware version).

The core streams 4-bit codes from the input object and writes 16-bit
PCM samples to the output object; the datapath is the shared
:func:`repro.apps.adpcm.decode_nibble`, so the hardware is bit-exact
with the software reference by construction.

The paper's core runs at 40 MHz in the same clock domain as its IMU.
It is a straightforward, unpipelined FSM — ADPCM's tight dependency
chain (predictor and step index feed the next sample) leaves little to
pipeline, which is why the measured speedup over 133 MHz software is a
modest ~1.5x.
"""

from __future__ import annotations

from repro.apps.adpcm import decode_nibble, encode_sample
from repro.coproc.base import Behavior, Coprocessor
from repro.coproc.bitstream import Bitstream
from repro.hw.fpga import PldResources
from repro.sim.time import mhz

#: Object identifiers agreed between HW and SW designers.
OBJ_IN = 0
OBJ_OUT = 1

#: Datapath cycles per decoded sample: step-table ROM access, the
#: difference accumulation chain, int16 saturation and index clamping,
#: serialised in a simple FSM (calibration constant, see DESIGN.md §5).
COMPUTE_CYCLES_PER_SAMPLE = 20


class AdpcmDecodeCore(Coprocessor):
    """IMA ADPCM decoder: one input byte -> two int16 samples."""

    name = "adpcmdecode"

    def behavior(self) -> Behavior:
        num_bytes = yield from self.read_param(0)
        yield from self.release_params()
        predictor, index = 0, 0
        sample_pos = 0
        for byte_pos in range(num_bytes):
            byte = yield from self.read(OBJ_IN, byte_pos, size=1)
            for code in (byte & 0xF, byte >> 4):
                sample, predictor, index = decode_nibble(code, predictor, index)
                yield from self.compute(COMPUTE_CYCLES_PER_SAMPLE)
                yield from self.write(
                    OBJ_OUT, sample_pos * 2, sample & 0xFFFF, size=2
                )
                sample_pos += 1


class AdpcmEncodeCore(Coprocessor):
    """IMA ADPCM encoder: two int16 samples -> one packed code byte.

    Not part of the paper's evaluation — the natural companion core a
    real deployment would ship (capture path of the same media
    pipeline), and a second single-domain workload for the framework.
    The encoder embeds the decoder datapath (state lockstep), so its
    per-sample cost is slightly higher than the decoder's.
    """

    name = "adpcmencode"

    def behavior(self) -> Behavior:
        num_samples = yield from self.read_param(0)
        yield from self.release_params()
        predictor, index = 0, 0
        for byte_pos in range(num_samples // 2):
            codes = []
            for half in range(2):
                sample = yield from self.read(
                    OBJ_IN, (byte_pos * 2 + half) * 2, size=2
                )
                # int16 arrives as a raw half-word; sign-extend.
                if sample >= 0x8000:
                    sample -= 0x10000
                code, predictor, index = encode_sample(sample, predictor, index)
                yield from self.compute(COMPUTE_CYCLES_PER_SAMPLE + 4)
                codes.append(code)
            yield from self.write(
                OBJ_OUT, byte_pos, codes[0] | (codes[1] << 4), size=1
            )


def bitstream() -> Bitstream:
    """The adpcmdecode bit-stream: core and IMU share one 40 MHz clock."""
    return Bitstream(
        name="adpcmdecode",
        core_factory=AdpcmDecodeCore,
        core_frequency=mhz(40.0),
        resources=PldResources(logic_elements=2_100, memory_bits=12_288),
        length_bytes=128 * 1024,
    )


def encoder_bitstream() -> Bitstream:
    """The adpcmencode bit-stream (encoder embeds the decoder datapath)."""
    return Bitstream(
        name="adpcmencode",
        core_factory=AdpcmEncodeCore,
        core_frequency=mhz(40.0),
        resources=PldResources(logic_elements=2_600, memory_bits=12_288),
        length_bytes=128 * 1024,
    )

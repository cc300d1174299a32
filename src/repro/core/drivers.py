"""Workload builders binding applications to coprocessor kernels.

These are the "minimal changes in the application code" of the paper's
conclusions: each builder produces the object mapping and scalar
parameters that the C application would pass through ``FPGA_MAP_OBJECT``
and ``FPGA_EXECUTE`` (Figure 6), together with the software reference
for functional verification and the ARM cost of the pure-SW version.
Each builder computes the reference output once, with the workload;
``reference()`` returns it in a fresh dict, so the software run and
every verification share that one computation.
"""

from __future__ import annotations

from repro.apps import adpcm as adpcm_app
from repro.apps import idea as idea_app
from repro.apps import synthetic as synthetic_app
from repro.apps import vectors as vectors_app
from repro.apps import workloads as gen
from repro.coproc.kernels import adpcm as adpcm_core
from repro.coproc.kernels import idea as idea_core
from repro.coproc.kernels import synthetic as synthetic_core
from repro.coproc.kernels import vector_add as vadd_core
from repro.errors import ReproError
from repro.core.runner import ObjectSpec, WorkloadSpec
from repro.os.vim.objects import Direction


def adpcm_workload(input_bytes: int, seed: int = 1) -> WorkloadSpec:
    """The adpcmdecode benchmark of Figure 8.

    Input: *input_bytes* of ADPCM codes; output: 4x as many bytes of
    int16 PCM ("The adpcmdecode produces 4 times the input data size").
    """
    if input_bytes <= 0:
        raise ReproError(f"input size must be positive, got {input_bytes}")
    stream = gen.adpcm_stream(input_bytes, seed=seed)
    output_bytes = input_bytes * adpcm_app.OUTPUT_EXPANSION
    expected = adpcm_app.decode(stream).astype("<i2").tobytes()

    def reference() -> dict[int, bytes]:
        return {adpcm_core.OBJ_OUT: expected}

    return WorkloadSpec(
        name=f"adpcmdecode-{input_bytes // 1024}KB",
        bitstream=adpcm_core.bitstream(),
        objects=(
            ObjectSpec(
                adpcm_core.OBJ_IN, "adpcm_in", Direction.IN, input_bytes, stream
            ),
            ObjectSpec(adpcm_core.OBJ_OUT, "pcm_out", Direction.OUT, output_bytes),
        ),
        params=(input_bytes,),
        sw_cycles=adpcm_app.sw_cycles(input_bytes),
        reference=reference,
    )


def idea_workload(
    input_bytes: int, seed: int = 1, decrypt: bool = False
) -> WorkloadSpec:
    """The IDEA benchmark of Figure 9 (ECB encryption, or decryption).

    Parameters are the block count plus the 52 round subkeys — the
    software side runs the key schedule, the engine streams blocks.
    With ``decrypt=True`` the *same* hardware core is driven with the
    inverted schedule (the engine is direction-agnostic, exactly like
    real IDEA silicon): the input is a ciphertext and the reference
    output is the recovered plaintext.
    """
    if input_bytes <= 0 or input_bytes % idea_app.BLOCK_BYTES:
        raise ReproError(
            f"input size must be a positive multiple of "
            f"{idea_app.BLOCK_BYTES}, got {input_bytes}"
        )
    key = gen.idea_key(seed=seed)
    num_blocks = input_bytes // idea_app.BLOCK_BYTES
    if decrypt:
        plaintext = gen.random_bytes(input_bytes, seed=seed)
        data_in = idea_app.encrypt(plaintext, key)
        subkeys = idea_app.invert_key(idea_app.expand_key(key))
        expected = plaintext
        in_name, out_name, tag = "ciphertext", "plaintext", "idea-dec"
    else:
        data_in = gen.random_bytes(input_bytes, seed=seed)
        subkeys = idea_app.expand_key(key)
        expected = idea_app.encrypt(data_in, key)
        in_name, out_name, tag = "plaintext", "ciphertext", "idea"

    def reference() -> dict[int, bytes]:
        return {idea_core.OBJ_OUT: expected}

    return WorkloadSpec(
        name=f"{tag}-{input_bytes // 1024}KB",
        bitstream=idea_core.bitstream(),
        objects=(
            ObjectSpec(
                idea_core.OBJ_IN, in_name, Direction.IN, input_bytes, data_in
            ),
            ObjectSpec(idea_core.OBJ_OUT, out_name, Direction.OUT, input_bytes),
        ),
        params=(num_blocks, *subkeys),
        sw_cycles=idea_app.sw_cycles(input_bytes),
        reference=reference,
    )


def adpcm_encode_workload(num_samples: int, seed: int = 1) -> WorkloadSpec:
    """ADPCM *encoding* on the companion encoder core (extension).

    Input: ``num_samples`` int16 PCM samples (must be even); output:
    ``num_samples / 2`` packed code bytes — a 4x *compression*, the
    mirror image of Figure 8's expansion.
    """
    if num_samples <= 0 or num_samples % 2:
        raise ReproError(
            f"sample count must be positive and even, got {num_samples}"
        )
    pcm = gen.pcm_waveform(num_samples, seed=seed)
    pcm_bytes = pcm.astype("<i2").tobytes()
    expected = adpcm_app.encode(pcm)

    def reference() -> dict[int, bytes]:
        return {adpcm_core.OBJ_OUT: expected}

    return WorkloadSpec(
        name=f"adpcmencode-{num_samples}",
        bitstream=adpcm_core.encoder_bitstream(),
        objects=(
            ObjectSpec(
                adpcm_core.OBJ_IN, "pcm_in", Direction.IN, len(pcm_bytes), pcm_bytes
            ),
            ObjectSpec(
                adpcm_core.OBJ_OUT, "adpcm_out", Direction.OUT, num_samples // 2
            ),
        ),
        params=(num_samples,),
        sw_cycles=num_samples * (adpcm_app.SW_CYCLES_PER_SAMPLE + 40),
        reference=reference,
    )


def vector_add_workload(num_elements: int, seed: int = 1) -> WorkloadSpec:
    """The motivating example (Figures 3, 5, 6): C[i] = A[i] + B[i]."""
    if num_elements <= 0:
        raise ReproError(f"element count must be positive, got {num_elements}")
    a = gen.random_words(num_elements, seed=seed)
    b = gen.random_words(num_elements, seed=seed + 1)
    nbytes = num_elements * 4
    expected = vectors_app.add_vectors(a, b).astype("<u4").tobytes()

    def reference() -> dict[int, bytes]:
        return {vadd_core.OBJ_C: expected}

    return WorkloadSpec(
        name=f"add_vectors-{num_elements}",
        bitstream=vadd_core.bitstream(),
        objects=(
            ObjectSpec(
                vadd_core.OBJ_A, "A", Direction.IN, nbytes, a.astype("<u4").tobytes()
            ),
            ObjectSpec(
                vadd_core.OBJ_B, "B", Direction.IN, nbytes, b.astype("<u4").tobytes()
            ),
            ObjectSpec(vadd_core.OBJ_C, "C", Direction.OUT, nbytes),
        ),
        params=(num_elements,),
        sw_cycles=vectors_app.sw_cycles(num_elements),
        reference=reference,
    )


def synthetic_workload(
    input_bytes: int,
    seed: int = 1,
    stride: int = 1,
    locality_pct: int = 80,
    read_pct: int = 70,
    phases: int = 1,
) -> WorkloadSpec:
    """The parameterised synthetic access-pattern probe.

    One INOUT data object of *input_bytes* seeded random bytes, walked
    by the op sequence :func:`repro.apps.synthetic.access_pattern`
    generates from ``(seed, stride, locality_pct, read_pct, phases)``.
    Because the object is INOUT, its final contents are exactly the
    initial data with the sequence's writes applied — which the
    software reference computes without any simulation, keeping
    verification bit-exact like the real kernels.
    """
    if input_bytes <= 0:
        raise ReproError(f"input size must be positive, got {input_bytes}")
    ops = synthetic_app.access_pattern(
        input_bytes,
        seed=seed,
        stride=stride,
        locality_pct=locality_pct,
        read_pct=read_pct,
        phases=phases,
    )
    data = gen.random_bytes(input_bytes, seed=seed)
    expected = synthetic_app.run_reference(data, ops)

    def reference() -> dict[int, bytes]:
        return {synthetic_core.OBJ_DATA: expected}

    return WorkloadSpec(
        name=(
            f"synthetic-{input_bytes // 1024}KB"
            f"-s{stride}-l{locality_pct}-r{read_pct}-p{phases}"
        ),
        bitstream=synthetic_core.bitstream(ops),
        objects=(
            ObjectSpec(
                synthetic_core.OBJ_DATA,
                "data",
                Direction.INOUT,
                input_bytes,
                data,
            ),
        ),
        params=(len(ops),),
        sw_cycles=synthetic_app.sw_cycles(len(ops)),
        reference=reference,
    )

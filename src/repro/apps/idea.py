"""IDEA block cipher — bit-exact reference + ARM software cost model.

IDEA is the paper's "complex cryptographic application" (Figure 9):
64-bit blocks, 128-bit key, 8.5 rounds built on three group operations
(XOR, addition mod 2^16, multiplication mod 2^16 + 1 with the 0 ⟷ 2^16
convention).  The per-round functions here are shared with the hardware
core so the coprocessor is bit-exact by construction and verified
end-to-end in tests.
"""

from __future__ import annotations

from repro.errors import ReproError

#: Number of full rounds (plus the final output transformation).
ROUNDS = 8
#: Subkeys consumed: 6 per round + 4 for the output transformation.
NUM_SUBKEYS = ROUNDS * 6 + 4
#: Block size in bytes.
BLOCK_BYTES = 8

#: Software cost on the 133 MHz ARM, cycles per encrypted block.
#: 34 multiplications mod 65537 (each a 32-bit multiply, compare and
#: fix-up on ARM9), 34 add/xor steps, plus load/store traffic;
#: calibrated against the paper's measured 26 ms for 4 KB
#: (≈ 6.7 kcycles/block, see EXPERIMENTS.md).
SW_CYCLES_PER_BLOCK = 6700


def mul(a: int, b: int) -> int:
    """Multiplication in GF(2^16 + 1) with 0 representing 2^16."""
    if a == 0:
        a = 0x10000
    if b == 0:
        b = 0x10000
    product = (a * b) % 0x10001
    return 0 if product == 0x10000 else product


def add(a: int, b: int) -> int:
    """Addition modulo 2^16."""
    return (a + b) & 0xFFFF


def mul_inverse(a: int) -> int:
    """Multiplicative inverse in GF(2^16 + 1) (0 maps to itself)."""
    if a == 0:
        return 0
    # Extended Euclid over the prime 0x10001.
    t0, t1 = 0, 1
    r0, r1 = 0x10001, a
    while r1 != 0:
        quotient = r0 // r1
        t0, t1 = t1, t0 - quotient * t1
        r0, r1 = r1, r0 - quotient * r1
    return t0 % 0x10001 & 0xFFFF


def add_inverse(a: int) -> int:
    """Additive inverse modulo 2^16."""
    return (0x10000 - a) & 0xFFFF


def expand_key(key: bytes) -> list[int]:
    """Expand a 128-bit key into the 52 encryption subkeys.

    The schedule is the standard 25-bit left rotation of the key.
    """
    if len(key) != 16:
        raise ReproError(f"IDEA key must be 16 bytes, got {len(key)}")
    value = int.from_bytes(key, "big")
    subkeys: list[int] = []
    while len(subkeys) < NUM_SUBKEYS:
        for i in range(8):
            if len(subkeys) == NUM_SUBKEYS:
                break
            subkeys.append((value >> (112 - 16 * i)) & 0xFFFF)
        value = ((value << 25) | (value >> 103)) & ((1 << 128) - 1)
    return subkeys


def invert_key(subkeys: list[int]) -> list[int]:
    """Derive the 52 decryption subkeys from the encryption subkeys.

    The layout matches the folded-swap round formulation used by
    :func:`round_function`: the first decryption round takes the
    encryption output-transform keys un-swapped, intermediate rounds
    swap the two additive keys, and the decryption output transform
    takes the first round's keys un-swapped.
    """
    if len(subkeys) != NUM_SUBKEYS:
        raise ReproError(f"expected {NUM_SUBKEYS} subkeys, got {len(subkeys)}")
    inv = [0] * NUM_SUBKEYS
    inv[0] = mul_inverse(subkeys[48])
    inv[1] = add_inverse(subkeys[49])
    inv[2] = add_inverse(subkeys[50])
    inv[3] = mul_inverse(subkeys[51])
    inv[4] = subkeys[46]
    inv[5] = subkeys[47]
    for i in range(1, ROUNDS):
        src = 48 - 6 * i
        dst = 6 * i
        inv[dst] = mul_inverse(subkeys[src])
        inv[dst + 1] = add_inverse(subkeys[src + 2])
        inv[dst + 2] = add_inverse(subkeys[src + 1])
        inv[dst + 3] = mul_inverse(subkeys[src + 3])
        inv[dst + 4] = subkeys[src - 2]
        inv[dst + 5] = subkeys[src - 1]
    inv[48] = mul_inverse(subkeys[0])
    inv[49] = add_inverse(subkeys[1])
    inv[50] = add_inverse(subkeys[2])
    inv[51] = mul_inverse(subkeys[3])
    return inv


def round_function(
    x0: int, x1: int, x2: int, x3: int, keys: tuple[int, int, int, int, int, int]
) -> tuple[int, int, int, int]:
    """One full IDEA round (the hardware core instantiates this)."""
    k0, k1, k2, k3, k4, k5 = keys
    y0 = mul(x0, k0)
    y1 = add(x1, k1)
    y2 = add(x2, k2)
    y3 = mul(x3, k3)
    t0 = mul(y0 ^ y2, k4)
    t1 = mul(add(y1 ^ y3, t0), k5)
    t2 = add(t0, t1)
    return y0 ^ t1, y2 ^ t1, y1 ^ t2, y3 ^ t2


def output_transform(
    x0: int, x1: int, x2: int, x3: int, keys: tuple[int, int, int, int]
) -> tuple[int, int, int, int]:
    """The final half-round (note the x1/x2 swap folds in here)."""
    k0, k1, k2, k3 = keys
    return mul(x0, k0), add(x2, k1), add(x1, k2), mul(x3, k3)


def crypt_block(block: bytes, subkeys: list[int]) -> bytes:
    """Encrypt (or, with inverted subkeys, decrypt) one 8-byte block."""
    if len(block) != BLOCK_BYTES:
        raise ReproError(f"IDEA block must be {BLOCK_BYTES} bytes")
    x0, x1, x2, x3 = (
        int.from_bytes(block[0:2], "big"),
        int.from_bytes(block[2:4], "big"),
        int.from_bytes(block[4:6], "big"),
        int.from_bytes(block[6:8], "big"),
    )
    for round_index in range(ROUNDS):
        keys = tuple(subkeys[round_index * 6 : round_index * 6 + 6])
        x0, x1, x2, x3 = round_function(x0, x1, x2, x3, keys)  # type: ignore[arg-type]
    x0, x1, x2, x3 = output_transform(x0, x1, x2, x3, tuple(subkeys[48:52]))  # type: ignore[arg-type]
    return b"".join(x.to_bytes(2, "big") for x in (x0, x1, x2, x3))


def encrypt(data: bytes, key: bytes) -> bytes:
    """ECB-encrypt *data* (length must be a multiple of 8)."""
    if len(data) % BLOCK_BYTES:
        raise ReproError("IDEA data length must be a multiple of 8 bytes")
    subkeys = expand_key(key)
    return b"".join(
        crypt_block(data[i : i + BLOCK_BYTES], subkeys)
        for i in range(0, len(data), BLOCK_BYTES)
    )


def decrypt(data: bytes, key: bytes) -> bytes:
    """ECB-decrypt *data* produced by :func:`encrypt`."""
    if len(data) % BLOCK_BYTES:
        raise ReproError("IDEA data length must be a multiple of 8 bytes")
    subkeys = invert_key(expand_key(key))
    return b"".join(
        crypt_block(data[i : i + BLOCK_BYTES], subkeys)
        for i in range(0, len(data), BLOCK_BYTES)
    )


def sw_cycles(input_bytes: int) -> int:
    """ARM cycles for the pure-software encryption of *input_bytes*."""
    return (input_bytes // BLOCK_BYTES) * SW_CYCLES_PER_BLOCK

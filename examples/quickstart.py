"""Quickstart: encode one encrypted cache line with Virtual Coset Coding.

This walks the public API end to end:

1. build a VCC(64, 256, 16) encoder optimising MLC write energy;
2. encrypt a cache line with the counter-mode engine;
3. encode each 64-bit word against the current memory contents;
4. decode and decrypt, checking the round trip;
5. compare the write energy against storing the encrypted line directly.

Run with ``python examples/quickstart.py``.
"""

from __future__ import annotations

import numpy as np

from repro import CellTechnology, MLCEnergyModel, VCCConfig, VCCEncoder, WordContext
from repro.coding.cost import EnergyCost
from repro.crypto import CounterModeEngine


def main() -> None:
    energy_model = MLCEnergyModel()
    encoder = VCCEncoder(
        VCCConfig.for_cosets(256, technology=CellTechnology.MLC),
        cost_function=EnergyCost(CellTechnology.MLC, mlc_model=energy_model),
    )
    print(f"encoder: {encoder.config.describe()}")

    # A cache line the application wants to write back (plaintext).
    plaintext = [0x0123456789ABCDEF ^ (i * 0x1111111111111111) for i in range(8)]

    # Counter-mode encryption, as performed by the on-chip unit of Fig. 4.
    engine = CounterModeEngine(key=b"quickstart-key", line_bits=512, word_bits=64)
    encrypted = engine.encrypt_line(address=0x40, plaintext_words=plaintext)

    # The memory location currently holds some other (random-looking) data.
    rng = np.random.default_rng(1)
    old_words = [int(rng.integers(0, 1 << 63)) for _ in range(8)]

    total_unencoded = 0.0
    total_vcc = 0.0
    decoded_words = []
    for data_word, old_word in zip(encrypted.words, old_words):
        context = WordContext.from_word(old_word, word_bits=64, bits_per_cell=2)
        encoded = encoder.encode(data_word, context)

        # Round trip: decoding recovers the encrypted word exactly.
        decoded_words.append(encoder.decode(encoded.codeword, encoded.aux))
        assert decoded_words[-1] == data_word

        total_unencoded += energy_model.word_energy(old_word, data_word)
        total_vcc += energy_model.word_energy(old_word, encoded.codeword)
        total_vcc += energy_model.aux_energy(0, encoded.aux)

    saving = 100.0 * (total_unencoded - total_vcc) / total_unencoded
    print(f"write energy, encrypted line stored directly : {total_unencoded:8.1f} pJ")
    print(f"write energy, encrypted line stored with VCC  : {total_vcc:8.1f} pJ")
    print(f"dynamic-energy saving                         : {saving:8.1f} %")

    # The full decrypt path: decode then XOR the counter-mode pad away.
    recovered = engine.decrypt_line(
        type(encrypted)(
            address=encrypted.address, counter=encrypted.counter, words=tuple(decoded_words)
        )
    )
    assert recovered == plaintext
    print("decrypt(decode(encode(encrypt(line)))) == line : OK")


if __name__ == "__main__":
    main()

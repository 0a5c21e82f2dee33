"""Tests for the synthetic trace generator."""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.traces.spec import get_profile, list_benchmarks
from repro.traces.synthetic import SyntheticTraceGenerator, generate_trace


class TestGeneration:
    def test_record_count_and_geometry(self):
        trace = generate_trace("lbm", num_writebacks=50, memory_lines=128, seed=1)
        assert len(trace) == 50
        assert trace.words_per_line == 8
        for record in trace:
            assert len(record.words) == 8
            assert 0 <= record.address < 128

    def test_deterministic_per_seed(self):
        a = generate_trace("mcf", 30, seed=7)
        b = generate_trace("mcf", 30, seed=7)
        assert [r.address for r in a] == [r.address for r in b]
        assert [r.words for r in a] == [r.words for r in b]

    def test_different_seeds_differ(self):
        a = generate_trace("mcf", 30, seed=7)
        b = generate_trace("mcf", 30, seed=8)
        assert [r.words for r in a] != [r.words for r in b]

    def test_working_set_clipped_to_memory(self):
        trace = generate_trace("bwaves", 200, memory_lines=32, seed=2)
        assert trace.unique_addresses() <= 32

    def test_zero_writebacks(self):
        assert len(generate_trace("xz", 0, seed=3)) == 0

    def test_profile_object_accepted(self):
        generator = SyntheticTraceGenerator(get_profile("lbm"), memory_lines=64, seed=4)
        assert len(generator.generate(10)) == 10

    def test_invalid_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            SyntheticTraceGenerator(12345, memory_lines=64)

    def test_metadata_recorded(self):
        trace = generate_trace("lbm", 10, seed=5)
        assert trace.metadata["suite"] == "fp"
        assert trace.metadata["seed"] == 5


class TestLocality:
    def test_hot_addresses_receive_more_writes(self):
        trace = generate_trace("mcf", 2000, memory_lines=256, seed=6)
        histogram = trace.writes_per_address()
        counts = sorted(histogram.values(), reverse=True)
        hot_share = sum(counts[: max(1, len(counts) // 10)]) / sum(counts)
        # mcf concentrates ~75% of its traffic on ~10% of its working set.
        assert hot_share > 0.4

    def test_uniform_benchmark_less_concentrated(self):
        concentrated = generate_trace("mcf", 2000, memory_lines=256, seed=7)
        spread = generate_trace("xz", 2000, memory_lines=256, seed=7)

        def top_decile_share(trace):
            counts = sorted(trace.writes_per_address().values(), reverse=True)
            return sum(counts[: max(1, len(counts) // 10)]) / sum(counts)

        assert top_decile_share(concentrated) > top_decile_share(spread)


class TestValueModels:
    @pytest.mark.parametrize("bench_name,expected_bias", [("deepsjeng", True), ("xz", False)])
    def test_integer_data_is_biased(self, bench_name, expected_bias):
        trace = generate_trace(bench_name, 100, seed=8)
        ones = sum(bin(word).count("1") for record in trace for word in record.words)
        total = sum(64 for record in trace for _ in record.words)
        ratio = ones / total
        if expected_bias:
            assert ratio < 0.42  # small integers: mostly-zero high bits
        else:
            assert 0.3 < ratio < 0.7

    def test_pointer_words_share_high_bits(self):
        trace = generate_trace("mcf", 20, seed=9)
        tops = {word >> 40 for record in trace for word in record.words}
        assert len(tops) <= 4

    def test_text_words_are_printable_ascii(self):
        trace = generate_trace("xalancbmk", 20, seed=10)
        for record in trace:
            for word in record.words:
                for shift in range(0, 64, 8):
                    byte = (word >> shift) & 0xFF
                    assert 0x20 <= byte < 0x7F

    def test_float_words_cluster_exponents(self):
        trace = generate_trace("bwaves", 50, seed=11)
        exponents = {(word >> 52) & 0x7FF for record in trace for word in record.words}
        assert len(exponents) < 20


#: sha256 of every profile's trace (40 writebacks over 256 lines, seed 17)
#: plus the generator's next draw, at 32- and 64-bit words.  Pinned from
#: the per-word generator, so the vectorised value models must reproduce
#: its words and leave its random stream where it left it.
PINNED_TRACE_DIGESTS = {
    "bwaves/32": "d2705f2478a74de67846ec3ca97db7edd9ed57261935836bdd300e83a8b2481f",
    "bwaves/64": "93bcfc05ebf08c4546f3f85961f9d8867cfa88de3cd9320cc14ce131606e160d",
    "cactuBSSN/32": "1401f301bcd1151c3d92f0a3c9e1ee9fd5a7c1b2557e69787434c30ab4e941cd",
    "cactuBSSN/64": "42efc04ded1f2446c1a36be928aa735786a953077bb715daa720ed2ed24346bb",
    "deepsjeng/32": "78bc321d3f15e4441e80862ff58e8bce14f1367fb1f5aedb52953ec021f0a0db",
    "deepsjeng/64": "457c34f8dd33ba6e5930e913ed746ee09d4d17e836c9f1f028f6fccc2b5e02d4",
    "fotonik3d/32": "8574f2407593a63833f6b3743566ca37a2cfa92b86bed6d21e3ae3626bd28616",
    "fotonik3d/64": "ee68ac9d4cd5cb06609869cdeea449899c9fd82099417a508d1e00290eec2201",
    "lbm/32": "5eb5c5638fa3b1d3cd2b632a7680b7c97fe4e78c053ee42c79c5899b87fcb024",
    "lbm/64": "8dbb28b1db63c12d1e776c3d0a3080431987a07b7d239558a77232eb6f5c110b",
    "mcf/32": "c71eeb6365860fda0718083a69d0cacec1fdb23fe67461534b06ee14b7c1f2db",
    "mcf/64": "86bc21e2ff3489db0dd664f11e044a3fbd4372d93d2a7dc194079eabfdac136c",
    "omnetpp/32": "fae0e487cc4465284a7b44e622ec9a01abce69fc4d2f88b11e8363c5e0e85e71",
    "omnetpp/64": "2bb2339183c29f57d3ecbf9bcbdd1ae911699db5ce004c32ca406bd1d2ec3211",
    "pop2/32": "59ffc1b8249e9118ae5465e5ff07b8ba7b8d849e3d6846b5e77e0bd6ced79afd",
    "pop2/64": "3073b9ed952f2847052f77ac22c9fb80f05c1247b49f5d20b8c8a05f70ad0ce3",
    "roms/32": "a18e6f22760eaf0f50a91303cd66ebcfa61efe7ff45a5fa2ca638b570fce3f07",
    "roms/64": "8e0b1b1f5c6c657ecb79e8d61c9b06ebade961feccf33f13bd05207bc2902a1b",
    "wrf/32": "bd9db5ad4a5335745b9ea22d96cd52db20d567826b754dc22f67e77d74a85cdb",
    "wrf/64": "04d54a5facff7fca3fd2958bc899d37890492ce84de7a57bdd8e1de1f2f87394",
    "xalancbmk/32": "7db2ca2d91697a9cb9e4c1f13b7b1659b1c3f8acaaa9b47da599c15b06be1600",
    "xalancbmk/64": "b07168dceb9fd123cff6929441c01b3c7e1ca196c30d57885afadfdd6fef354c",
    "xz/32": "a21d39fa22f12a5802094e4c58b8ff61ecb623a7898bbefebed6137323e0bd8d",
    "xz/64": "1d0c8a3b5a080de8e8ab71d99fd1a90d92e9187312ca5ced537389f523dc5eec",
}


def _trace_digest(name, word_bits):
    generator = SyntheticTraceGenerator(
        name, memory_lines=256, line_bits=512, word_bits=word_bits, seed=17
    )
    trace = generator.generate(40)
    digest = hashlib.sha256()
    for record in trace:
        words = ",".join(format(word, "x") for word in record.words)
        digest.update(f"{record.address}:{words};".encode())
    digest.update(f"next:{int(generator._rng.integers(0, 2**63))}".encode())
    return digest.hexdigest()


class TestPinnedTraces:
    @pytest.mark.parametrize("word_bits", [32, 64])
    @pytest.mark.parametrize("name", list_benchmarks())
    def test_trace_digest_is_pinned(self, name, word_bits):
        assert _trace_digest(name, word_bits) == PINNED_TRACE_DIGESTS[f"{name}/{word_bits}"]

    def test_every_profile_is_pinned(self):
        assert sorted(PINNED_TRACE_DIGESTS) == sorted(
            f"{name}/{bits}" for name in list_benchmarks() for bits in (32, 64)
        )

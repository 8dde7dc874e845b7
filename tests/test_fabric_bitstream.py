"""Unit + property tests for bitstreams and RLE compression."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric import (
    Bitstream,
    compress_rle,
    decompress_rle,
    synthesize_config_data,
)
from repro.fabric import bitstream as bitstream_mod
from repro.fabric.bitstream import FRAME_BYTES


class TestRle:
    def test_roundtrip_simple(self):
        data = b"\x00" * 100 + b"abc" + b"\x07" * 50
        assert decompress_rle(compress_rle(data)) == data

    def test_zero_run_shrinks(self):
        data = b"\x00" * 1000
        assert len(compress_rle(data)) < 20

    def test_literal_zero_escaped(self):
        data = b"a\x00b"
        comp = compress_rle(data)
        assert decompress_rle(comp) == data

    def test_empty(self):
        assert compress_rle(b"") == b""
        assert decompress_rle(b"") == b""

    def test_truncated_stream_rejected(self):
        with pytest.raises(ValueError):
            decompress_rle(b"\x00")
        with pytest.raises(ValueError):
            decompress_rle(b"\x00\x05")

    @given(st.binary(max_size=2000))
    @settings(max_examples=100)
    def test_roundtrip_property(self, data):
        assert decompress_rle(compress_rle(data)) == data

    @given(st.binary(max_size=2000))
    @settings(max_examples=50)
    def test_bounded_expansion(self, data):
        # worst case: every byte is a literal 0x00 -> 2x
        assert len(compress_rle(data)) <= 2 * len(data) + 3


class TestSynthesize:
    def test_size(self):
        data = synthesize_config_data(10, 0.5)
        assert len(data) == 10 * FRAME_BYTES

    def test_deterministic(self):
        assert synthesize_config_data(5, 0.4, seed=7) == synthesize_config_data(5, 0.4, seed=7)
        assert synthesize_config_data(5, 0.4, seed=7) != synthesize_config_data(5, 0.4, seed=8)

    def test_sparse_compresses_better_than_dense(self):
        sparse = synthesize_config_data(50, 0.1)
        dense = synthesize_config_data(50, 0.9)
        assert len(compress_rle(sparse)) < len(compress_rle(dense))

    def test_accepts_bytearray_and_memoryview(self):
        data = b"\x00" * 40 + b"xyz" + b"\x07" * 9
        want = compress_rle(data)
        assert compress_rle(bytearray(data)) == want
        assert compress_rle(memoryview(data)) == want

    def test_validation(self):
        with pytest.raises(ValueError):
            synthesize_config_data(-1, 0.5)
        with pytest.raises(ValueError):
            synthesize_config_data(1, 1.5)


class TestBitstream:
    def test_synthesize_and_size(self):
        bs = Bitstream.synthesize("mod", frames=8, fill_fraction=0.5)
        assert bs.size_bytes == 8 * FRAME_BYTES
        assert bs.frames == 8

    def test_data_length_checked(self):
        with pytest.raises(ValueError):
            Bitstream("m", frames=2, data=b"short")

    def test_compress_roundtrip(self):
        bs = Bitstream.synthesize("mod", frames=10, fill_fraction=0.3)
        comp = bs.compress()
        assert comp.compression_ratio > 1.0
        restored = comp.decompress()
        assert restored.data == bs.data

    def test_compression_ratio_tracks_sparsity(self):
        sparse = Bitstream.synthesize("s", 20, 0.1).compress()
        dense = Bitstream.synthesize("d", 20, 0.95).compress()
        assert sparse.compression_ratio > dense.compression_ratio
        assert sparse.compression_ratio > 3.0  # sparse bitstreams win big

    def test_unique_ids(self):
        a = Bitstream.synthesize("a", 1, 0.5)
        b = Bitstream.synthesize("b", 1, 0.5)
        assert a.bitstream_id != b.bitstream_id

    def test_compress_accepts_bytearray_data(self):
        bs = Bitstream.synthesize("mod", frames=4, fill_fraction=0.5)
        copy = Bitstream("mod", frames=4, data=bytearray(bs.data))
        assert copy.compress().data == bs.compress().data


def test_one_rle_pass_per_blueprint_content(monkeypatch):
    """Machines built from one compiled suite share one compression."""
    from repro.presets import compiled_suite

    function = compiled_suite()[1].functions()[0]
    first = compiled_suite()[1].variants(function)[0].bitstream
    second = compiled_suite()[1].variants(function)[0].bitstream
    assert first is not second and first.data == second.data

    calls = []

    def counting(data):
        calls.append(len(data))
        return compress_rle(data)

    bitstream_mod._compress_cached.cache_clear()
    monkeypatch.setattr(bitstream_mod, "compress_rle", counting)
    a, b = first.compress(), second.compress()
    assert calls == [first.size_bytes]
    assert a.data == b.data == compress_rle(first.data)
    assert a.raw_size == b.raw_size == first.size_bytes

"""Bit blocks, seed streams and the on-disk binary formats."""

import numpy as np
import pytest

from siqrng.bits import BitBlock
from siqrng.fileio import (
    FormatError,
    read_bit_file,
    read_click_file,
    write_bit_file,
    write_click_file,
)
from siqrng.pipeline import derive_streams

from helpers import click_records


class TestBitBlock:
    def test_round_trip(self, rng):
        bits = rng.integers(0, 2, 1003, dtype=np.uint8)
        block = BitBlock.from01(bits)
        assert len(block) == 1003
        assert np.array_equal(block.to01(), bits)

    def test_lsb_first_packing(self):
        block = BitBlock.from01([1, 0, 0, 0, 0, 0, 0, 0, 1])
        assert block.data.tolist() == [1, 1]
        assert int.from_bytes(block.data.tobytes(), "little") == 1 + (1 << 8)

    def test_indexing_and_slicing(self, rng):
        # bit i lives at data[i // 8] >> (i % 8) & 1
        bits = rng.integers(0, 2, 77, dtype=np.uint8)
        block = BitBlock.from01(bits)
        assert [int(block.data[i // 8] >> (i % 8) & 1) for i in range(77)] == bits.tolist()
        assert np.array_equal(block.to01()[10:40], bits[10:40])

    def test_pad_bits_must_be_zero(self):
        with pytest.raises(ValueError):
            BitBlock.from_bytes(b"\xff", 3)

    def test_non_bit_values_rejected(self):
        with pytest.raises(ValueError):
            BitBlock.from01([0, 2, 1])


class TestSeedSource:
    """The seed streams are the Generators that derive_streams builds."""

    def test_rng_backed_stream_is_deterministic(self):
        takes = []
        for _ in range(2):
            streams = derive_streams(5)
            takes.append([
                streams.basis.integers(0, 1 << 31, 10).tolist(),
                streams.toeplitz.integers(0, 2, 1000, dtype=np.uint8).tolist(),
            ])
        assert takes[0] == takes[1]
        # the two seed streams are distinct children of the master seed
        assert takes[0][0] != derive_streams(5).toeplitz.integers(0, 1 << 31, 10).tolist()


# header lengths short of the 13 header bytes, each with a valid magic
TRUNCATED_HEADER_LENGTHS = (4, 7, 8, 12)


class TestBitFile(object):
    def test_round_trip(self, tmp_path, rng):
        block = BitBlock.from01(rng.integers(0, 2, 12345, dtype=np.uint8))
        path = tmp_path / "bits.siq"
        write_bit_file(path, block)
        assert read_bit_file(path) == block

    def test_header_layout(self, tmp_path):
        path = tmp_path / "bits.siq"
        write_bit_file(path, BitBlock.from01([1, 1, 0]))
        raw = path.read_bytes()
        assert raw[:4] == b"SIQ1"
        assert raw[4] == 1
        assert int.from_bytes(raw[5:13], "little") == 3
        assert raw[13:] == b"\x03"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.siq"
        path.write_bytes(b"XXXX" + bytes(20))
        with pytest.raises(FormatError):
            read_bit_file(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.siq"
        full = b"SIQ1" + bytes([1]) + bytes(8)
        for length in TRUNCATED_HEADER_LENGTHS:
            path.write_bytes(full[:length])
            with pytest.raises(FormatError, match="truncated header"):
                read_bit_file(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.siq"
        path.write_bytes(b"SIQ1" + bytes([1]) + (100).to_bytes(8, "little") + b"\x00")
        with pytest.raises(FormatError):
            read_bit_file(path)


class TestClickFile:
    def test_round_trip(self, tmp_path, rng):
        records = click_records(
            basis=rng.integers(0, 2, 999).astype(np.uint8),
            pattern=rng.integers(0, 4, 999).astype(np.uint8),
        )
        path = tmp_path / "clicks.siqc"
        write_click_file(path, records)
        assert np.array_equal(read_click_file(path), records)

    def test_one_byte_per_pulse(self, tmp_path):
        records = click_records(
            basis=np.array([0, 1, 0], dtype=np.uint8),
            pattern=np.array([3, 2, 0], dtype=np.uint8),
        )
        path = tmp_path / "clicks.siqc"
        write_click_file(path, records)
        raw = path.read_bytes()
        assert raw[:4] == b"SIQC"
        # pattern in bits 0-1, basis in bit 2
        assert list(raw[13:]) == [3, 2 | 4, 0]

    def test_records_are_written_and_read_as_they_are(self, tmp_path, rng):
        records = rng.integers(0, 8, 4097).astype(np.uint8)
        path = tmp_path / "clicks.siqc"
        write_click_file(path, records)
        assert path.read_bytes()[13:] == records.tobytes()
        back = read_click_file(path)
        assert back.dtype == np.uint8
        assert np.array_equal(back, records)

    def test_empty_stream_round_trip(self, tmp_path):
        path = tmp_path / "clicks.siqc"
        write_click_file(path, np.zeros(0, np.uint8))
        assert len(path.read_bytes()) == 13
        assert len(read_click_file(path)) == 0

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "clicks.siqc"
        full = b"SIQC" + bytes([1]) + bytes(8)
        for length in TRUNCATED_HEADER_LENGTHS:
            path.write_bytes(full[:length])
            with pytest.raises(FormatError, match="truncated header"):
                read_click_file(path)

    def test_reserved_bits_rejected(self, tmp_path):
        path = tmp_path / "clicks.siqc"
        path.write_bytes(b"SIQC" + bytes([1]) + (1).to_bytes(8, "little") + bytes([0x80]))
        with pytest.raises(FormatError):
            read_click_file(path)

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "clicks.siqc"
        path.write_bytes(b"SIQC" + bytes([1]) + (5).to_bytes(8, "little") + bytes(3))
        with pytest.raises(FormatError):
            read_click_file(path)

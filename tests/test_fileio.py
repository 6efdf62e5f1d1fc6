"""Bit blocks, seed streams and the on-disk binary formats."""

import hashlib
import re
import threading

import numpy as np
import pytest

from siqrng.bits import BitBlock
from siqrng.fileio import (
    ClickFileWriter,
    FormatError,
    read_bit_file,
    read_click_file,
    write_bit_file,
)
from siqrng.photonic_sim import CHUNK
from siqrng.pipeline import derive_streams
from siqrng.squash_sample import TallyFold, squash_and_tally

from helpers import click_records, read_click_records, write_click_file


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
        # a range unpacks only the bytes that hold it
        for start, stop in [(10, 40), (0, 77), (8, 16), (3, 3), (77, 77), (70, 77)]:
            assert np.array_equal(block.to01(start, stop), bits[start:stop])
        for start, stop in [(-1, 5), (5, 4), (0, 78)]:
            with pytest.raises(ValueError):
                block.to01(start, stop)

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

    # every artifact rests on numpy's Generator algorithms, which NEP 19 lets
    # numpy change between releases; these two tests name that dependence

    def test_physics_uniforms_are_the_top_53_bits_of_raw_words(self):
        drawn = derive_streams(20260810).physics
        raw = derive_streams(20260810).physics.bit_generator
        for k in (CHUNK - 1, CHUNK, CHUNK + 1):
            expected = (raw.random_raw(k) >> np.uint64(11)) * 2.0**-53
            assert np.array_equal(drawn.random(k), expected), k

    def test_seed_bits_are_pinned(self):
        streams = derive_streams(20260810)
        digests = {name: hashlib.sha256(getattr(streams, name).integers(
                       0, 2, CHUNK + 3, dtype=np.uint8).tobytes()).hexdigest()
                   for name in ("basis", "double_click", "toeplitz")}
        assert digests == {
            "basis": "b683d35d680bcd561acb53cbf0b093d276ec68a223ce8e2d4369773ae7bb8864",
            "double_click": "0601a88fd8c925abdea58b897ededfc0a7dae3a3889db3abedf9f7e1bf0a9c2a",
            "toeplitz": "de4118d387cac8d30468dd1c8bc3df800881b19f0188a011985af9c3505a8838",
        }


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
        # one span, and two spans written chunk by chunk from two threads at
        # once, each upper chunk first
        for n in (999, 2 * CHUNK + 5):
            records = click_records(
                basis=rng.integers(0, 2, n).astype(np.uint8),
                pattern=rng.integers(0, 4, n).astype(np.uint8),
            )
            path = tmp_path / "clicks.siqc"
            write_click_file(path, records)
            assert np.array_equal(read_click_records(path), records)

            def write_span(clicks, start, stop):
                for lo in reversed(range(start, stop, 1000)):
                    clicks.write(lo, records[lo : min(lo + 1000, stop)])

            with ClickFileWriter(tmp_path / "spans.siqc", n) as clicks:
                helper = threading.Thread(target=write_span, args=(clicks, n // 2, n))
                helper.start()
                write_span(clicks, 0, n // 2)
                helper.join()
            assert (tmp_path / "spans.siqc").read_bytes() == path.read_bytes()

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
        back = read_click_records(path)
        assert back.dtype == np.uint8
        assert np.array_equal(back, records)

    def test_empty_stream_round_trip(self, tmp_path):
        path = tmp_path / "clicks.siqc"
        write_click_file(path, np.zeros(0, np.uint8))
        assert len(path.read_bytes()) == 13
        assert len(read_click_records(path)) == 0
        fold = read_click_file(path, lambda count: TallyFold(count, None))
        tally = squash_and_tally(fold, derive_streams(0).double_click)
        assert tally.n == tally.n_z == tally.seed_bits_consumed == len(tally.z_bits) == 0

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "clicks.siqc"
        full = b"SIQC" + bytes([1]) + bytes(8)
        for length in TRUNCATED_HEADER_LENGTHS:
            path.write_bytes(full[:length])
            with pytest.raises(FormatError, match="truncated header"):
                read_click_records(path)

    def test_reserved_bits_rejected(self, tmp_path):
        # the first record; the last, in the last partial chunk; and the first
        # past the split of a two-span session.  Chunks are read in order, so
        # the records before the bad one are handed on first
        n = 2 * CHUNK + 5
        path = tmp_path / "clicks.siqc"
        for count, bad in [(1, 0), (n, n - 1), (n, n // 2)]:
            records = np.zeros(count, dtype=np.uint8)
            records[bad] = 0x80
            path.write_bytes(b"SIQC" + bytes([1]) + count.to_bytes(8, "little")
                             + records.tobytes())
            message = f"{path}: pulse record {bad} with nonzero reserved bits"
            with pytest.raises(FormatError, match=re.escape(message)):
                read_click_records(path)

    def test_count_mismatch_rejected(self, tmp_path):
        # a payload short of the header's count, one byte short and one long
        path = tmp_path / "clicks.siqc"
        n = 2 * CHUNK + 5
        for count, payload in [(5, 3), (n, n - 1), (n, n + 1)]:
            path.write_bytes(b"SIQC" + bytes([1]) + count.to_bytes(8, "little") + bytes(payload))
            message = f"{path}: {payload} pulse records, header says {count}"
            with pytest.raises(FormatError, match=re.escape(message)):
                read_click_records(path)

    def test_incomplete_or_failed_write_leaves_no_file(self, tmp_path):
        # a writer that misses a record, or a block that raises, leaves
        # neither the click file nor its temp file
        path = tmp_path / "clicks.siqc"
        with pytest.raises(ValueError, match="9 of 10 pulse records written"):
            with ClickFileWriter(path, 10) as clicks:
                clicks.write(1, np.zeros(9, dtype=np.uint8))
        with pytest.raises(RuntimeError, match="stop"):
            with ClickFileWriter(path, 10) as clicks:
                clicks.write(0, np.zeros(10, dtype=np.uint8))
                raise RuntimeError("stop")
        with pytest.raises(ValueError, match="outside the 10 pulses"):
            with ClickFileWriter(path, 10) as clicks:
                clicks.write(5, np.zeros(6, dtype=np.uint8))
        assert list(tmp_path.iterdir()) == []

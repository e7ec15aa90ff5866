import numpy as np
import pytest

from qkdfl.bits import as_bit_array, pack_bits


class TestAsBitArray:
    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int8, np.int64, np.float64])
    def test_accepts_exact_bits_of_any_dtype(self, dtype):
        got = as_bit_array(np.array([[0, 1, 1], [1, 0, 0]], dtype=dtype))
        assert got.dtype == np.uint8
        assert got.tolist() == [0, 1, 1, 1, 0, 0]

    def test_accepts_python_lists_and_empty(self):
        assert as_bit_array([1, 0, True]).tolist() == [1, 0, 1]
        assert as_bit_array([]).size == 0
        assert as_bit_array([]).dtype == np.uint8

    def test_bool_bytes_other_than_1_read_as_1(self):
        # A bool array over raw bytes can hold true bytes other than 0x01.
        raw = np.frombuffer(b"\x00\x02\x01\xff", dtype=bool)
        assert as_bit_array(raw).tolist() == [0, 1, 1, 1]

    def test_uint8_input_is_not_copied(self):
        bits = np.array([0, 1, 1, 0], dtype=np.uint8)
        assert np.shares_memory(as_bit_array(bits), bits)

    @pytest.mark.parametrize(
        "bad",
        [
            [0.5, 1.7],
            [1.0, np.nan],
            [0.0, np.inf],
            [1e-300],
            [0, 2],
            [-1, 1],
            np.array([0, 255], dtype=np.uint8),
            np.array([0, -1], dtype=np.int8),
            ["0", "1"],
            [0, None],
        ],
    )
    def test_rejects_anything_but_0_and_1(self, bad):
        with pytest.raises(ValueError):
            as_bit_array(bad)

    def test_pack_bits_rejects_truncatable_values(self):
        # Cast to uint8, these would have packed as 0b01000000.
        with pytest.raises(ValueError):
            pack_bits([0.5, 1.7])

    def test_pack_bits_same_bytes_for_every_dtype(self):
        bits = [1, 0, 1, 1, 0, 0, 0, 1, 1]
        for dtype in (bool, np.uint8, np.int64, np.float64):
            assert pack_bits(np.array(bits, dtype=dtype)) == b"\xb1\x80"


"""Gray coding and the page -> read-voltage mapping."""

import numpy as np
import pytest

from repro.flash.gray import GrayCode


@pytest.fixture(scope="module", params=[2, 3, 4])
def gray(request):
    return GrayCode.for_bits(request.param)


class TestConstruction:
    def test_adjacent_states_differ_in_one_bit(self, gray):
        bits = gray.state_bits
        for s in range(gray.n_states - 1):
            assert (bits[s] != bits[s + 1]).sum() == 1

    def test_erased_state_all_ones(self, gray):
        assert (gray.state_bits[0] == 1).all()

    def test_unsupported_width_raises(self):
        with pytest.raises(ValueError):
            GrayCode.for_bits(5)

    def test_cached_instance(self):
        assert GrayCode.for_bits(3) is GrayCode.for_bits(3)


class TestPaperVoltageSets:
    """The voltage sets the paper states explicitly (Section II-A / III-B)."""

    def test_tlc_page_voltages(self):
        g = GrayCode.for_bits(3)
        assert g.page_voltages("LSB") == (4,)
        assert g.page_voltages("CSB") == (2, 6)
        assert g.page_voltages("MSB") == (1, 3, 5, 7)

    def test_qlc_page_voltages(self):
        g = GrayCode.for_bits(4)
        assert g.page_voltages("LSB") == (8,)
        assert g.page_voltages("CSB") == (4, 12)
        assert g.page_voltages("CSB2") == (2, 6, 10, 14)
        assert g.page_voltages("MSB") == (1, 3, 5, 7, 9, 11, 13, 15)

    def test_qlc_msb_uses_eight_voltages(self):
        # "In QLC flash, up to eight voltages are used to read the MSB page"
        assert len(GrayCode.for_bits(4).page_voltages("MSB")) == 8

    def test_sentinel_voltage_is_an_lsb_read(self):
        # V4 (TLC) / V8 (QLC) toggle the LSB page: the sentinel read is
        # "also an LSB page read" (Section III-B)
        assert GrayCode.for_bits(3).voltage_to_page(4) == 0
        assert GrayCode.for_bits(4).voltage_to_page(8) == 0


class TestMapping:
    def test_every_voltage_belongs_to_exactly_one_page(self, gray):
        owners = [gray.voltage_to_page(v) for v in range(1, gray.n_voltages + 1)]
        per_page = [owners.count(p) for p in range(gray.n_pages)]
        assert sum(per_page) == gray.n_voltages
        for p in range(gray.n_pages):
            assert per_page[p] == len(gray.page_voltages(p))

    def test_voltage_counts_double_per_page(self, gray):
        counts = [len(gray.page_voltages(p)) for p in range(gray.n_pages)]
        assert counts == [2**p for p in range(gray.n_pages)]

    def test_region_bits_match_state_bits(self, gray):
        for p in range(gray.n_pages):
            voltages = gray.page_voltages(p)
            pattern = gray.region_bits(p)
            for s in range(gray.n_states):
                region = sum(1 for v in voltages if v <= s)
                assert pattern[region] == gray.state_bits[s, p]

    def test_stored_bits_vectorized(self, gray):
        states = np.arange(gray.n_states)
        for p, name in enumerate(gray.page_names):
            np.testing.assert_array_equal(
                gray.stored_bits(name, states), gray.state_bits[:, p]
            )

    def test_adjacent_states(self, gray):
        assert gray.adjacent_states(1) == (0, 1)
        assert gray.adjacent_states(gray.n_voltages) == (
            gray.n_states - 2,
            gray.n_states - 1,
        )
        with pytest.raises(IndexError):
            gray.adjacent_states(0)
        with pytest.raises(IndexError):
            gray.adjacent_states(gray.n_voltages + 1)

    def test_page_index_by_name_and_number(self, gray):
        for p, name in enumerate(gray.page_names):
            assert gray.page_index(name) == p
            assert gray.page_index(p) == p
        with pytest.raises(KeyError):
            gray.page_index("XSB")
        with pytest.raises(IndexError):
            gray.page_index(gray.n_pages)

    def test_misread_one_region_flips_one_page_bit(self, gray):
        """Gray property end-to-end: one boundary crossing = one bit error."""
        for s in range(gray.n_states - 1):
            flips = 0
            for p in range(gray.n_pages):
                if gray.state_bits[s, p] != gray.state_bits[s + 1, p]:
                    flips += 1
            assert flips == 1

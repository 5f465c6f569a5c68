import numpy as np
import pytest

import trustpd as tp
from trustpd.numerics import bisect_root, bracket_roots, scan_sign_changes


def scan_reference(values, grid, zero_tol):
    """Cell-by-cell scan: the definition scan_sign_changes must reproduce."""
    zeros = [float(x) for x, v in zip(grid, values) if abs(v) <= zero_tol]
    brackets = []
    for i in range(len(grid) - 1):
        v0, v1 = values[i], values[i + 1]
        if abs(v0) <= zero_tol or abs(v1) <= zero_tol:
            continue
        if v0 * v1 < 0:
            brackets.append((float(grid[i]), float(grid[i + 1])))
    return zeros, brackets


class TestScanSignChanges:
    def test_exact_zeros_block_their_cells(self):
        grid = np.linspace(0.0, 4.0, 5)
        values = np.array([-1.0, 0.0, 1.0, 0.0, -1.0])
        assert scan_sign_changes(values, grid, zero_tol=0.0) == ([1.0, 3.0], [])

    def test_value_within_tolerance_next_to_sign_change(self):
        grid = np.linspace(0.0, 3.0, 4)
        values = np.array([2.0, 1e-12, -1.0, -2.0])
        zeros, brackets = scan_sign_changes(values, grid, zero_tol=1e-10)
        assert zeros == [1.0]
        assert brackets == []

    def test_no_sign_change(self):
        grid = np.linspace(0.0, 1.0, 11)
        assert scan_sign_changes(grid + 1.0, grid, zero_tol=1e-10) == ([], [])

    def test_zeros_on_grid_endpoints(self):
        grid = np.linspace(0.0, 1.0, 11)
        assert scan_sign_changes(grid, grid, zero_tol=0.0) == ([0.0], [])
        assert scan_sign_changes(grid - 1.0, grid, zero_tol=0.0) == ([1.0], [])

    def test_brackets_are_python_float_pairs(self):
        grid = np.linspace(0.0, 1.0, 3)
        zeros, brackets = scan_sign_changes(np.array([1.0, -1.0, 1.0]), grid, zero_tol=0.0)
        assert zeros == [] and brackets == [(0.0, 0.5), (0.5, 1.0)]
        assert all(type(x) is float for pair in brackets for x in pair)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_cell_by_cell_reference(self, seed):
        rng = np.random.default_rng(seed)
        grid = np.sort(rng.random(300))
        values = rng.choice([-1.0, 1.0], 300) * rng.random(300) ** 4
        values[rng.integers(0, 300, 20)] = 0.0
        for zero_tol in (0.0, 1e-3):
            assert scan_sign_changes(values, grid, zero_tol) == scan_reference(
                values, grid, zero_tol
            )


class TestBracketRoots:
    def test_refines_every_bracket_in_grid_order(self):
        scan = bracket_roots(np.sin, np.linspace(0.5, 10.0, 40), zero_tol=0.0, ftol=1e-13)
        assert scan.zeros == []
        assert scan.roots == pytest.approx([np.pi, 2 * np.pi, 3 * np.pi], abs=1e-12)
        assert all(abs(np.sin(r)) <= 1e-13 for r in scan.roots)

    def test_values_are_f_on_the_grid(self):
        grid = np.linspace(0.0, 2.0, 11)
        scan = bracket_roots(lambda x: x * x - 2.0, grid, zero_tol=1e-12, ftol=1e-12)
        np.testing.assert_array_equal(scan.values, grid * grid - 2.0)
        assert scan.roots == pytest.approx([np.sqrt(2.0)], abs=1e-12)

    def test_grid_zeros_are_not_bisected(self):
        scan = bracket_roots(lambda x: x - 1.0, np.linspace(0.0, 2.0, 5),
                             zero_tol=0.0, ftol=1e-12)
        assert scan.zeros == [1.0]
        assert scan.roots == []

    def test_roots_on_grid_endpoints(self):
        grid = np.linspace(0.0, 1.0, 11)
        assert bracket_roots(lambda x: x, grid, zero_tol=0.0, ftol=1e-12)[1:] == ([0.0], [])
        assert bracket_roots(lambda x: 1.0 - x, grid, zero_tol=0.0, ftol=1e-12)[1:] == (
            [1.0], []
        )

    def test_no_sign_change(self):
        scan = bracket_roots(lambda x: x + 1.0, np.linspace(0.0, 1.0, 11),
                             zero_tol=1e-10, ftol=1e-10)
        assert scan.zeros == [] and scan.roots == []


def test_bisect_root_with_a_subnormal_end_value():
    # f(0) * f(mid) underflows to -0.0 here; the bracket must still close on 0
    root = bisect_root(lambda x: 5e-324 - x, 0.0, 1.0, ftol=1e-12)
    assert 0.0 < root <= 1e-12


def test_shared_solver_at_a_subnormal_belief():
    # K = 5e-324 at l = 0: the low root lies next to 0 and g vanishes there
    eqs = tp.solve_common_equilibria(5e-324, tp.validate_params(2.0, 2.0), tp.uniform_loss(1.0))
    assert eqs.regime == "unique-interior"
    assert eqs.lowest <= 1e-10


# float.hex of solve_common_equilibria at the worked example (b, m, ell_bar) =
# (3, 50, 8), two beliefs per regime, recorded from the pole-free solver of
# g = K - phi: any change in the solver's bits shows here.
PINNED_COMMON = {
    0.01: ("unique-interior", [("0x1.9deb534dd2f1ap-2", "interior-low")]),
    0.03: ("unique-interior", [("0x1.6098f07b645a1p+0", "interior-low")]),
    0.05: ("triple", [("0x1.67dfaba24dd30p+1", "interior-low"),
                      ("0x1.cc102a2eb851ep+2", "interior-high"),
                      ("0x1.0000000000000p+3", "corner-upper")]),
    0.055: ("triple", [("0x1.af9992cfdf3b6p+1", "interior-low"),
                       ("0x1.a833369820c4bp+2", "interior-high"),
                       ("0x1.0000000000000p+3", "corner-upper")]),
    0.07: ("unique-corner", [("0x1.0000000000000p+3", "corner-upper")]),
    0.1: ("unique-corner", [("0x1.0000000000000p+3", "corner-upper")]),
}


@pytest.mark.parametrize("pi", sorted(PINNED_COMMON))
def test_common_equilibria_pinned_bits(pi, fig_params, fig_dist):
    eqs = tp.solve_common_equilibria(pi, fig_params, fig_dist)
    got = (eqs.regime, [(float(r.value).hex(), r.kind) for r in eqs.roots])
    assert got == PINNED_COMMON[pi]

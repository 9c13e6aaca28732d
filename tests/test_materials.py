import re
import warnings

import numpy as np
import pytest

from reference import Mode, wavevector_components
from spdc_etalon import (
    ConfigError,
    MaterialModel,
    MaterialRangeError,
    material_from_spec,
    refractive_index,
)

# Independently evaluated (50-digit arithmetic) from the published
# Sellmeier coefficients for extraordinary congruent lithium niobate.
N_E_1576 = 2.1368137431990974
N_E_788 = 2.1768267981499453


def test_constant_air_any_wavelength():
    air = material_from_spec("air")
    for lam in (200.0, 788.0, 1576.0, 25000.0):
        assert refractive_index(air, lam) == 1.0


def test_degenerate_sellmeier_is_sqrt_offset():
    model = MaterialModel.sellmeier((), (), offset=2.25)
    assert refractive_index(model, 1000.0) == pytest.approx(1.5, rel=1e-15)


def test_linbo3_extraordinary_frozen_values():
    ln = material_from_spec("linbo3_e")
    assert refractive_index(ln, 1576.0) == pytest.approx(N_E_1576, rel=1e-13)
    assert refractive_index(ln, 788.0) == pytest.approx(N_E_788, rel=1e-13)


def test_linbo3_ordinary_exceeds_extraordinary():
    # Negative uniaxial crystal: n_o > n_e across the band.
    lo = material_from_spec("linbo3_o")
    le = material_from_spec("linbo3_e")
    lams = np.linspace(600.0, 3000.0, 25)
    assert np.all(refractive_index(lo, lams) > refractive_index(le, lams))


def test_linbo3_smooth_and_monotone_on_band():
    ln = material_from_spec("linbo3_e")
    lams = np.arange(900.0, 2401.0, 1.0)
    n = refractive_index(ln, lams)
    steps = np.diff(n)
    assert np.max(np.abs(steps)) < 1e-2
    assert np.all(steps < 0)  # normal dispersion on this band


def test_tabulated_linear_interpolation():
    model = MaterialModel.tabulated([1000.0, 1200.0, 1400.0], [1.5, 1.7, 1.8])
    assert refractive_index(model, 1100.0) == pytest.approx(1.6, rel=1e-15)
    assert refractive_index(model, 1200.0) == 1.7


def test_tabulated_rejects_out_of_range_queries():
    model = MaterialModel.tabulated([1000.0, 1200.0], [1.5, 1.7])
    with pytest.raises(MaterialRangeError):
        refractive_index(model, 999.9)
    with pytest.raises(MaterialRangeError):
        refractive_index(model, 1200.1)


def test_tabulated_requires_increasing_wavelengths():
    with pytest.raises(ValueError):
        MaterialModel.tabulated([1000.0, 1000.0], [1.5, 1.6])
    with pytest.raises(ValueError):
        MaterialModel.tabulated([1200.0, 1000.0], [1.5, 1.6])


def test_range_error_names_model_and_bounds():
    ln = material_from_spec("linbo3_e")
    with pytest.raises(MaterialRangeError, match="linbo3_e"):
        refractive_index(ln, 300.0)
    with pytest.raises(MaterialRangeError, match="5000"):
        refractive_index(ln, 9000.0)


def test_refractive_index_keeps_each_range_message():
    ln = material_from_spec("linbo3_e")
    for lam in (0.0, -1.0, np.array([788.0, -5.0])):
        with pytest.raises(MaterialRangeError, match="linbo3_e.*wavelength must be positive"):
            refractive_index(ln, lam)
    with pytest.raises(MaterialRangeError, match="300-788 nm outside validity range 400-5000"):
        refractive_index(ln, np.array([788.0, 300.0]))
    # n^2 = -1 inside an unbounded range: the index itself is not physical.
    imaginary = MaterialModel.sellmeier((), (), offset=-1.0, name="imaginary")
    for lam in (1000.0, np.array([900.0, 1000.0])):
        with pytest.raises(MaterialRangeError, match="imaginary.*non-physical index"):
            refractive_index(imaginary, lam)


@pytest.mark.parametrize("spec", ["sellmeier:-5::", "sellmeier:1:1e308:0"])
def test_non_physical_index_raises_without_a_warning_first(spec):
    # n^2 = -5 has no real root, and a 1e308 term overflows n^2 to inf at
    # 1500 nm: the index check raises, under any caller's error state.
    model = material_from_spec(spec)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        with pytest.raises(MaterialRangeError, match="non-physical index"):
            refractive_index(model, 1500.0)


def test_silicon_preset_is_tabulated_and_sane():
    si = material_from_spec("silicon")
    assert si.kind == "tabulated"
    assert si.valid_range_nm == (650.0, 4000.0)
    n788 = refractive_index(si, 788.0)
    n1576 = refractive_index(si, 1576.0)
    assert 3.6 < n788 < 3.8
    assert 3.4 < n1576 < 3.55
    assert n788 > n1576
    with pytest.raises(MaterialRangeError):
        refractive_index(si, 649.0)


def test_presets_registry():
    names = ["air", "linbo3_e", "linbo3_o", "silicon"]
    assert [material_from_spec(name).name for name in names] == names
    with pytest.raises(ConfigError, match=re.escape(f"available: {names}")):
        material_from_spec("unobtainium")


def test_presets_reproducible_from_documented_coefficients():
    # The exact numbers recorded in the README must regenerate the
    # built-in presets bit-identically.
    ln = material_from_spec("linbo3_e")
    lams = np.array([500.0, 788.0, 1576.0, 3100.0])
    u = (lams / 1000.0) ** 2
    n2 = (
        1.0
        + 2.9804 * u / (u - 0.02047)
        + 0.5981 * u / (u - 0.0666)
        + 8.9543 * u / (u - 416.08)
    )
    assert np.array_equal(refractive_index(ln, lams), np.sqrt(n2))

    si = material_from_spec("silicon")
    grid = np.arange(650.0, 4001.0, 2.0)
    u = (grid / 1000.0) ** 2
    n2 = (
        1.0
        + 10.62103911405175 * u / (u - 0.0994560520008473)
        - 6055.054853695855 * u / (u - 1104.0 ** 2)
    )
    assert np.array_equal(np.asarray(si.table_wavelengths_nm), grid)
    assert np.array_equal(np.asarray(si.table_indices), np.sqrt(n2))


def test_wavevector_normal_incidence():
    mode = Mode(1576.0, 0.0)
    k_par, k_perp = wavevector_components(mode, 2.0)
    assert k_par == pytest.approx(4.0 * np.pi / 1576.0, rel=1e-15)
    assert k_perp == 0.0


def test_wavevector_mirror_symmetry():
    plus = Mode(1400.0, 0.21)
    minus = Mode(1400.0, -0.21)
    kp1, kq1 = wavevector_components(plus, 2.2)
    kp2, kq2 = wavevector_components(minus, 2.2)
    assert kp1 == kp2
    assert kq1 == -kq2


def test_wavevector_frozen_example():
    # 2 pi n / lambda * (cos, sin) evaluated independently.
    mode = Mode(788.0, 0.3)
    k_par, k_perp = wavevector_components(mode, 2.25)
    assert k_par == pytest.approx(0.017139278466681106, rel=1e-14)
    assert k_perp == pytest.approx(0.0053018001218981072, rel=1e-14)


def test_wavevector_norm_identity_random(rng):
    for _ in range(300):
        lam = rng.uniform(400.0, 4000.0)
        theta = rng.uniform(-1.5, 1.5)
        n = rng.uniform(1.0, 4.5)
        mode = Mode(lam, theta)
        k_par, k_perp = wavevector_components(mode, n)
        k = 2.0 * np.pi * n / lam
        assert k_par ** 2 + k_perp ** 2 == pytest.approx(k ** 2, rel=1e-12)


_SELLMEIER, _TABLE = MaterialModel.sellmeier, MaterialModel.tabulated
# Each construction, with what its ValueError says.
BAD_MATERIALS = {
    "constant-nan": (lambda: MaterialModel.constant(np.nan), "every number must be finite"),
    "sellmeier-c-inf": (lambda: _SELLMEIER((1.0,), (np.inf,)), "finite"),
    "sellmeier-offset-inf": (lambda: _SELLMEIER((), (), offset=-np.inf), "finite"),
    "range-nan": (lambda: _SELLMEIER((), (), valid_range_nm=(500.0, np.nan)), "finite"),
    "range-reversed": (
        lambda: _SELLMEIER((), (), valid_range_nm=(4000.0, 500.0)),
        "validity range must have min_nm < max_nm",
    ),
    "range-empty": (lambda: _SELLMEIER((), (), valid_range_nm=(500.0, 500.0)), "min_nm"),
    "table-index-nan": (lambda: _TABLE([700.0, 2000.0, 3000.0], [3.6, 3.5, np.nan]), "finite"),
    "table-wavelength-nan": (lambda: _TABLE([700.0, np.nan], [3.6, 3.5]), "finite"),
    "table-index-zero": (lambda: _TABLE([700.0, 2000.0], [3.6, 0.0]), "positive"),
    "table-one-row": (lambda: _TABLE([700.0], [3.6]), ">= 2"),
}


@pytest.mark.parametrize("case", BAD_MATERIALS)
def test_material_model_is_the_one_judge_of_its_parameters(case):
    build, message = BAD_MATERIALS[case]
    with pytest.raises(ValueError, match=message):
        build()

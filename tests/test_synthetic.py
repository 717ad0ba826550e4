import numpy as np
import pytest

from phasesync import (
    ContractError,
    FilterBand,
    Month,
    PipelineConfig,
    RegimeSpec,
    gen_regime_panel,
    gen_sine,
    load_panel_csv,
    run_pipeline,
    sync_index_windowed,
    write_panel_csv,
)


class TestGenSine:
    def test_formula(self):
        values = gen_sine(48, 12.0, amplitude=2.0, phase_offset=0.25)
        t = np.arange(48)
        np.testing.assert_array_equal(
            values, 2.0 * np.sin(2.0 * np.pi * t / 12.0 + 0.25)
        )

    def test_defaults(self):
        values = gen_sine(24, 24.0)
        assert values.shape == (24,) and values.dtype == float
        np.testing.assert_array_equal(values, np.sin(2.0 * np.pi * np.arange(24) / 24.0))

    def test_zero_amplitude(self):
        np.testing.assert_array_equal(gen_sine(12, 6.0, amplitude=0.0),
                                      np.zeros(12))

    def test_two_pi_offset_equivalence(self):
        base = gen_sine(60, 18.0, phase_offset=0.0)
        offset = gen_sine(60, 18.0, phase_offset=2.0 * np.pi)
        np.testing.assert_allclose(offset, base, atol=1e-12)

    @pytest.mark.parametrize("n,period", [(1, 12.0), (10, 1.5)])
    def test_preconditions(self, n, period):
        with pytest.raises(ContractError):
            gen_sine(n, period)

    @pytest.mark.parametrize("kwargs,name", [
        ({"period": np.nan}, "period"),
        ({"period": np.inf}, "period"),
        ({"amplitude": np.nan}, "amplitude"),
        ({"amplitude": -np.inf}, "amplitude"),
        ({"phase_offset": np.nan}, "phase_offset"),
    ])
    def test_non_finite_parameter_named(self, kwargs, name):
        with pytest.raises(ContractError, match=f"finite {name}"):
            gen_sine(**{"n": 24, "period": 12.0, **kwargs})


class TestRegimeSpec:
    def test_total_and_lookup(self):
        spec = RegimeSpec(segments=((5, "coupled"), (3, "uncoupled")))
        assert spec.total == 8
        assert spec.regime_at(0) == "coupled"
        assert spec.regime_at(4) == "coupled"
        assert spec.regime_at(5) == "uncoupled"
        assert spec.regime_at(7) == "uncoupled"
        with pytest.raises(ContractError):
            spec.regime_at(8)

    @pytest.mark.parametrize("kwargs", [
        {"segments": ()},
        {"segments": ((0, "coupled"),)},
        {"segments": ((10, "chaotic"),)},
        {"segments": ((10, "coupled"),), "base_period": 1.0},
        {"segments": ((10, "coupled"),), "jitter": -0.1},
        {"segments": ((10, "coupled"),), "noise_sd": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ContractError):
            RegimeSpec(**kwargs)

    @pytest.mark.parametrize("name,value", [
        ("base_period", np.nan),
        ("base_period", np.inf),
        ("jitter", np.nan),
        ("jitter", np.inf),
        ("noise_sd", np.nan),
        ("noise_sd", np.inf),
        ("seed", -1),
        ("seed", 1.5),
    ])
    def test_unusable_parameter_named(self, name, value):
        with pytest.raises(ContractError, match=f"{name} >= "):
            RegimeSpec(segments=((10, "coupled"),), **{name: value})


class TestGenRegimePanel:
    def test_deterministic_under_seed(self):
        spec = RegimeSpec(segments=((40, "coupled"), (40, "uncoupled")), seed=11)
        a = gen_regime_panel(5, spec)
        b = gen_regime_panel(5, spec)
        np.testing.assert_array_equal(a.values, b.values)

    def test_seed_changes_output(self):
        base = RegimeSpec(segments=((40, "uncoupled"),), seed=1)
        other = RegimeSpec(segments=((40, "uncoupled"),), seed=2)
        assert not np.array_equal(gen_regime_panel(3, base).values[:, 0],
                                  gen_regime_panel(3, other).values[:, 0])

    def test_shape_ids_start(self):
        spec = RegimeSpec(segments=((30, "coupled"),), seed=0)
        panel = gen_regime_panel(3, spec, start=Month(1975, 6))
        assert panel.ids == ("m01", "m02", "m03")
        assert panel.start == Month(1975, 6)
        assert panel.n == 30

    def test_values_are_sine_of_phases_without_noise(self):
        spec = RegimeSpec(segments=((50, "uncoupled"),), noise_sd=0.0, seed=4)
        panel, theta = gen_regime_panel(3, spec, return_phases=True)
        assert theta.shape == (3, 50)
        np.testing.assert_array_equal(panel.values, np.sin(theta).T)

    @pytest.mark.parametrize("jitter", [0.65, 2.0])
    def test_phase_continuity_bound(self, jitter):
        spec = RegimeSpec(
            segments=((60, "coupled"), (60, "uncoupled"), (60, "coupled")),
            base_period=20.0, jitter=jitter, seed=9,
        )
        _, theta = gen_regime_panel(4, spec, return_phases=True)
        steps = np.abs(np.diff(theta, axis=1))
        bound = 2.0 * np.pi * (1.0 / spec.base_period + spec.jitter)
        assert steps.max() <= bound + 1e-12

    def test_coupled_segments_lock_latent_phase_differences(self):
        spec = RegimeSpec(
            segments=((80, "coupled"), (80, "uncoupled"), (80, "coupled")),
            seed=3,
        )
        _, theta = gen_regime_panel(4, spec, return_phases=True)
        psi = theta[0] - theta[1]
        # within each coupled segment the difference must stay at its
        # entry value; across the uncoupled segment it must actually move
        assert np.ptp(psi[:80]) < 1e-9
        assert np.ptp(psi[160:]) < 1e-9
        assert np.ptp(psi[80:160]) > 0.1

    def test_single_coupled_segment_highly_synchronized(self):
        spec = RegimeSpec(segments=((360, "coupled"),), seed=3)
        panel = gen_regime_panel(4, spec)
        result = run_pipeline(panel, PipelineConfig(band=FilterBand(4, 18), window=13))
        assert result.gamma2.min() > 0.9
        assert result.gamma2.mean() > 0.99

    @pytest.mark.parametrize("window", [13, 17])
    def test_uncoupled_latent_phases_match_uniform_null(self, window):
        # with a huge jitter the latent phase differences decorrelate and the
        # windowed index must sit at the uniform-phase expectation 1/W; the
        # 3-sigma band uses an effective count of one per window length to
        # account for overlapping windows
        spec = RegimeSpec(segments=((2400, "uncoupled"),), jitter=80.0, seed=5)
        _, theta = gen_regime_panel(8, spec, return_phases=True)
        chunks = []
        for i in range(8):
            for j in range(i + 1, 8):
                chunks.append(sync_index_windowed(theta[i] - theta[j], window))
        g = np.concatenate(chunks)
        se_eff = g.std(ddof=1) / np.sqrt(g.size / window)
        assert abs(g.mean() - 1.0 / window) < 3.0 * se_eff

    def test_csv_emission_round_trip(self, tmp_path):
        spec = RegimeSpec(segments=((40, "coupled"), (40, "uncoupled")), seed=12)
        panel = gen_regime_panel(3, spec)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_panel_csv(panel, first)
        write_panel_csv(load_panel_csv(first), second)
        assert first.read_bytes() == second.read_bytes()
        loaded = load_panel_csv(first)
        np.testing.assert_allclose(loaded.values, panel.values, rtol=1e-11)

    def test_needs_two_members(self):
        with pytest.raises(ContractError, match="2 members"):
            gen_regime_panel(1, RegimeSpec(segments=((30, "coupled"),)))

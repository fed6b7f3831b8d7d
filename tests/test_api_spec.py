"""Tests for repro.api.specs: EngineSpec / ScanSpec documents and overrides."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    ARCHITECTURES,
    BACKENDS,
    SCENARIOS,
    EngineSpec,
    ScanSpec,
    apply_overrides,
    parse_assignment,
)
from repro.beamformer.das import ApodizationSettings
from repro.beamformer.interpolation import InterpolationKind
from repro.config import SystemConfig, tiny_system
from repro.core.tablefree import TableFreeConfig
from repro.core.tablesteer import TableSteerConfig
from repro.kernels import CompiledOptions, Precision
from repro.fixedpoint.format import signed
from repro.geometry.apodization import WindowType


class TestEngineSpecValidation:
    def test_defaults_are_valid(self):
        spec = EngineSpec()
        assert spec.system == "small"
        assert spec.architecture == "exact"
        assert spec.backend == "reference"

    def test_builtin_registries_are_populated(self):
        assert set(ARCHITECTURES.names()) >= {"exact", "tablefree",
                                              "tablesteer", "tablesteer_float"}
        assert set(BACKENDS.names()) >= {"reference", "vectorized"}
        assert set(SCENARIOS.names()) >= {"moving_point", "static_point",
                                          "speckle"}

    @pytest.mark.parametrize("name", ["exact", "tablefree", "tablesteer",
                                      "tablesteer_float"])
    def test_builtin_architecture_builds_provider(self, name):
        system = tiny_system()
        provider = ARCHITECTURES.create(name, system)
        delays = provider.delays_samples([[0.0, 0.0, 0.01]])
        assert delays.shape == (1, system.transducer.element_count)

    def test_unknown_architecture_lists_registered(self):
        with pytest.raises(ValueError, match="tablesteer_float"):
            EngineSpec(architecture="magic")

    def test_unknown_backend_lists_registered(self):
        with pytest.raises(ValueError, match="vectorized"):
            EngineSpec(backend="gpu")
        # A removed backend is refused like any unknown name.
        with pytest.raises(ValueError, match="unknown backend 'sharded'"):
            EngineSpec(backend="sharded")

    def test_unknown_preset_lists_presets(self):
        with pytest.raises(ValueError, match="paper, small, tiny"):
            EngineSpec(system="gigantic")

    def test_option_typo_rejected(self):
        with pytest.raises(ValueError, match="unknown option"):
            EngineSpec(architecture="tablefree",
                       architecture_options={"detla": 0.5})

    def test_options_coerced_from_dicts(self):
        spec = EngineSpec(architecture="tablesteer",
                          architecture_options={"total_bits": 13},
                          backend="compiled",
                          backend_options={"threads": 2},
                          apodization={"window": "hamming"},
                          interpolation="linear")
        assert spec.architecture_options == TableSteerConfig(total_bits=13)
        assert spec.backend_options == CompiledOptions(threads=2)
        assert spec.apodization.window is WindowType.HAMMING
        assert spec.interpolation is InterpolationKind.LINEAR

    def test_bad_cache_capacity_rejected(self):
        with pytest.raises(ValueError, match="cache_capacity"):
            EngineSpec(cache_capacity=0)
        with pytest.raises(ValueError, match="cache_capacity"):
            EngineSpec(cache_capacity=True)

    def test_precision_coerced_and_validated(self):
        assert EngineSpec().precision is Precision.FLOAT64
        assert EngineSpec(precision="float32").precision is Precision.FLOAT32
        assert EngineSpec(precision=Precision.FLOAT32).precision \
            is Precision.FLOAT32
        with pytest.raises(ValueError, match="float32"):
            EngineSpec(precision="float16")

    def test_with_updates_revalidates(self):
        spec = EngineSpec()
        assert spec.with_updates(architecture="tablefree").architecture \
            == "tablefree"
        with pytest.raises(ValueError):
            spec.with_updates(architecture="magic")


class TestEngineSpecRoundTrip:
    def test_preset_roundtrip(self):
        spec = EngineSpec(system="tiny", architecture="tablesteer",
                          architecture_options=TableSteerConfig(total_bits=14),
                          backend="compiled",
                          backend_options=CompiledOptions(threads=2),
                          apodization=ApodizationSettings(
                              window=WindowType.BLACKMAN),
                          interpolation=InterpolationKind.LINEAR,
                          precision="float32",
                          cache_capacity=2)
        assert spec.to_dict()["precision"] == "float32"
        rebuilt = EngineSpec.from_dict(spec.to_dict())
        assert rebuilt == spec

    def test_quantization_roundtrip_and_spellings(self):
        from repro.kernels import QuantizationSpec
        spec = EngineSpec(system="tiny", quantization=18)
        assert spec.quantization == QuantizationSpec.from_total_bits(18)
        assert EngineSpec(system="tiny", quantization="U13.5") == spec
        payload = json.loads(spec.to_json())
        assert payload["quantization"]["delay_format"] == {
            "integer_bits": 13, "fraction_bits": 5, "signed": False}
        assert EngineSpec.from_json(spec.to_json()) == spec

    def test_quantization_conflicts_rejected_at_validation(self):
        with pytest.raises(ValueError, match="float64"):
            EngineSpec(system="tiny", quantization=18, precision="float32")
        with pytest.raises(ValueError, match="nearest"):
            EngineSpec(system="tiny", quantization=18,
                       interpolation="linear")

    def test_json_roundtrip_is_pure_json(self):
        spec = EngineSpec(
            system="tiny", architecture="tablefree",
            architecture_options=TableFreeConfig(
                delta=0.5, coefficient_format=signed(4, 20)))
        payload = json.loads(spec.to_json())
        assert payload["architecture_options"]["coefficient_format"] == {
            "integer_bits": 4, "fraction_bits": 20, "signed": True}
        assert EngineSpec.from_json(spec.to_json()) == spec

    def test_inline_system_roundtrip(self):
        custom = tiny_system().with_volume(n_depth=24)
        spec = EngineSpec(system=custom)
        rebuilt = EngineSpec.from_dict(json.loads(spec.to_json()))
        assert isinstance(rebuilt.system, SystemConfig)
        assert rebuilt.system == custom
        assert rebuilt.resolve_system() == custom

    def test_resolve_system_builds_preset(self):
        assert EngineSpec(system="tiny").resolve_system() == tiny_system()

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown engine spec field"):
            EngineSpec.from_dict({"architcture": "exact"})

    def test_memory_budget_roundtrip_and_spellings(self):
        spec = EngineSpec(system="tiny", memory_budget_bytes="64K")
        assert spec.memory_budget_bytes == 65536   # normalised to int bytes
        assert EngineSpec(system="tiny", memory_budget_bytes=65536) == spec
        payload = json.loads(spec.to_json())
        assert payload["memory_budget_bytes"] == 65536
        assert EngineSpec.from_json(spec.to_json()) == spec
        # Default stays None and serialises as null.
        assert EngineSpec(system="tiny").memory_budget_bytes is None
        assert json.loads(EngineSpec(system="tiny").to_json())
        assert EngineSpec.from_json(
            EngineSpec(system="tiny").to_json()).memory_budget_bytes is None

    def test_memory_budget_too_small_rejected_actionably(self):
        # tiny: one scanline is 16 points x (64 elements x 12 B + 8 CSR
        # row pointers x 4 B) = 12800 B.
        with pytest.raises(ValueError, match="raise the budget to at least "
                                             "12800 bytes"):
            EngineSpec(system="tiny", memory_budget_bytes=100)
        with pytest.raises(ValueError, match="scanline"):
            EngineSpec(system="tiny").with_updates(memory_budget_bytes="1K")

    def test_memory_budget_holds_one_scanline_per_firing(self):
        """A tile's firings share the budget: a 3-angle plane wave needs
        three tiny scanlines (3 x 12800 B), and two are refused with that
        minimum named."""
        planewave = {"scheme": "planewave", "scheme_options": {"n_angles": 3}}
        with pytest.raises(ValueError, match=r"scanline per firing \(3 "
                           r"firings\).*raise the budget to at least "
                           r"38400 bytes"):
            EngineSpec(system="tiny", memory_budget_bytes=2 * 12800,
                       **planewave)
        spec = EngineSpec(system="tiny", memory_budget_bytes=3 * 12800,
                          **planewave)
        assert spec.memory_budget_bytes == 38400
        assert EngineSpec(system="tiny", memory_budget_bytes=12800)

    def test_memory_budget_garbage_rejected(self):
        with pytest.raises(ValueError, match="memory budget"):
            EngineSpec(system="tiny", memory_budget_bytes="lots")
        with pytest.raises(ValueError, match="positive"):
            EngineSpec(system="tiny", memory_budget_bytes=-1)


class TestScanSpec:
    def test_roundtrip(self):
        scan = ScanSpec(scenario="moving_point", frames=4, noise_std=0.1,
                        seed=3, options={"theta_fraction": 0.5})
        rebuilt = ScanSpec.from_json(scan.to_json())
        assert rebuilt == scan

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="must be a mapping"):
            ScanSpec.from_json('"abc"')

    def test_unknown_scenario_lists_registered(self):
        with pytest.raises(ValueError, match="moving_point"):
            ScanSpec(scenario="warp")

    def test_frame_count_validated(self):
        with pytest.raises(ValueError, match="frames"):
            ScanSpec(frames=0)
        with pytest.raises(ValueError, match="frames"):
            ScanSpec(frames=True)

    @pytest.mark.parametrize("noise_std", [float("nan"), float("inf"), -0.1])
    def test_noise_must_be_finite_and_non_negative(self, noise_std):
        with pytest.raises(ValueError, match="noise_std"):
            ScanSpec(noise_std=noise_std)

    def test_documents_are_standard_json(self):
        # A NaN that reaches a document (here an unchecked scenario
        # option) is refused, never written as non-standard JSON.
        scan = ScanSpec(options={"theta_fraction": float("nan")})
        with pytest.raises(ValueError, match="not JSON compliant"):
            scan.to_json()

    def test_build_frames_moving_point(self, tiny):
        scan = ScanSpec(scenario="moving_point", frames=5, noise_std=0.2)
        frames = scan.build_frames(tiny)
        assert len(frames) == 5
        assert [f.frame_id for f in frames] == list(range(5))
        assert all(f.noise_std == 0.2 for f in frames)

    def test_build_frames_static_point_is_static(self, tiny):
        frames = ScanSpec(scenario="static_point", frames=3).build_frames(tiny)
        assert len({id(f.phantom) for f in frames}) == 1
        assert all(f.seed == 0 for f in frames)

    def test_build_frames_speckle_varies_seed(self, tiny):
        frames = ScanSpec(scenario="speckle", frames=3, noise_std=0.1,
                          options={"n_scatterers": 50}).build_frames(tiny)
        assert [f.seed for f in frames] == [0, 1, 2]


class TestOverrides:
    def test_parse_assignment_json_and_string(self):
        assert parse_assignment("backend=reference") == ("backend",
                                                         "reference")
        assert parse_assignment("cache_capacity=8") == ("cache_capacity", 8)
        assert parse_assignment("a.b=0.5") == ("a.b", 0.5)
        assert parse_assignment("flag=true") == ("flag", True)
        with pytest.raises(ValueError):
            parse_assignment("no_equals_sign")

    def test_apply_overrides_nested_creates_mappings(self):
        data = EngineSpec().to_dict()
        assert data["architecture_options"] is None
        out = apply_overrides(data, ["architecture=tablefree",
                                     "architecture_options.delta=0.5"])
        assert out["architecture_options"] == {"delta": 0.5}
        assert data["architecture_options"] is None  # pure
        spec = EngineSpec.from_dict(out)
        assert spec.architecture_options.delta == 0.5

    def test_overridden_spec_still_validates(self):
        data = apply_overrides(EngineSpec().to_dict(), ["backend=warp"])
        with pytest.raises(ValueError, match="unknown backend"):
            EngineSpec.from_dict(data)

    def test_descending_into_scalar_rejected(self):
        # system.* on a preset *name* must not clobber the preset with {}.
        data = EngineSpec(system="tiny").to_dict()
        with pytest.raises(ValueError, match="'system' is 'tiny'"):
            apply_overrides(data, ["system.volume.n_depth=24"])

    def test_descending_into_inline_system_works(self):
        data = EngineSpec(system=tiny_system()).to_dict()
        out = apply_overrides(data, ["system.volume.n_depth=24"])
        spec = EngineSpec.from_dict(out)
        assert spec.resolve_system().volume.n_depth == 24

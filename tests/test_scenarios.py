"""Tests for the scenario spec and the named-scenario registry."""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.core.autoconfig import FrameworkConfig
from repro.scenarios import (
    TOPOLOGY_FAMILIES,
    ScenarioError,
    ScenarioSpec,
    all_scenarios,
    get,
    register,
    resolve,
    scenario_names,
    unregister,
)


class TestScenarioSpec:
    def test_builds_the_named_family(self):
        spec = ScenarioSpec("r", "ring", {"num_switches": 5})
        topology = spec.build_topology()
        assert topology.num_nodes == 5
        assert topology.num_links == 5

    def test_seed_reaches_stochastic_families(self):
        one = ScenarioSpec("w", "waxman", {"num_switches": 12}, seed=7)
        same = ScenarioSpec("w", "waxman", {"num_switches": 12}, seed=7)
        other = replace(one, seed=8)
        links = lambda s: {l.canonical() for l in s.build_topology().links}
        assert links(one) == links(same)
        assert links(one) != links(other)

    def test_unknown_family_rejected(self):
        with pytest.raises(ScenarioError, match="unknown topology family"):
            ScenarioSpec("x", "moebius", {})

    def test_empty_name_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec("", "ring", {"num_switches": 4})

    def test_bad_generator_parameters_reported(self):
        spec = ScenarioSpec("bad", "ring", {"num_rings": 4})
        with pytest.raises(ScenarioError, match="bad parameters"):
            spec.build_topology()

    def test_framework_overrides(self):
        spec = ScenarioSpec("r", "ring", {"num_switches": 4},
                            framework={"vm_boot_delay": 1.5})
        config = spec.framework_config()
        assert isinstance(config, FrameworkConfig)
        assert config.vm_boot_delay == 1.5
        # Sweeps default to no edge-port detection, like the Figure 3 runs.
        assert config.detect_edge_ports is False

    def test_unknown_framework_field_rejected(self):
        spec = ScenarioSpec("r", "ring", {"num_switches": 4},
                            framework={"warp_speed": True})
        with pytest.raises(ScenarioError, match="unknown FrameworkConfig"):
            spec.framework_config()

    def test_specs_are_picklable(self):
        spec = ScenarioSpec("t", "torus", {"rows": 3, "cols": 3},
                            framework={"vm_boot_delay": 1.0})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.build_topology().num_nodes == 9

    def test_specs_are_deeply_immutable_and_hashable(self):
        spec = ScenarioSpec("t", "ring", {"num_switches": 4})
        with pytest.raises(TypeError):
            spec.params["num_switches"] = 99
        with pytest.raises(TypeError):
            spec.framework["vm_boot_delay"] = 0.0
        assert hash(spec) == hash(ScenarioSpec("t", "ring", {"num_switches": 4}))
        assert spec in {spec}

    def test_every_builtin_family_has_a_builder(self):
        for family in ("ring", "fat-tree", "torus", "waxman", "dumbbell",
                       "pan-european"):
            assert family in TOPOLOGY_FAMILIES


class TestRegistry:
    def test_builtin_catalogue_builds(self):
        names = scenario_names()
        assert "fat-tree-k4" in names
        assert "pan-european" in names
        for spec in all_scenarios():
            topology = spec.build_topology()
            assert topology.is_connected()

    def test_get_and_resolve(self):
        spec = get("torus-4x4")
        assert spec.family == "torus"
        assert [s.name for s in resolve(["ring-4", "waxman-24"])] == [
            "ring-4", "waxman-24"]

    def test_unknown_name_reported(self):
        with pytest.raises(ScenarioError, match="no scenario named"):
            get("does-not-exist")

    def test_duplicate_registration_rejected_unless_replace(self):
        spec = ScenarioSpec("tmp-test-scenario", "ring", {"num_switches": 3})
        register(spec)
        try:
            with pytest.raises(ScenarioError, match="already registered"):
                register(spec)
            replacement = ScenarioSpec("tmp-test-scenario", "ring",
                                       {"num_switches": 4})
            register(replacement, replace=True)
            assert get("tmp-test-scenario").params["num_switches"] == 4
        finally:
            unregister("tmp-test-scenario")
        assert "tmp-test-scenario" not in scenario_names()

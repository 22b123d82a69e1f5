"""Tests for the core framework pieces: IPAM, messages, manual model, GUI."""

from __future__ import annotations

import json

import pytest

from repro.core import (
    ConfigMessage,
    ConfigurationGUI,
    EdgePortConfigMessage,
    IPAddressManager,
    IPAMError,
    LinkConfigMessage,
    ManualConfigurationModel,
    SwitchColor,
    SwitchConfigMessage,
    SwitchRemovedMessage,
)
from repro.net import DecodeError, IPv4Address, IPv4Network


class TestIPAM:
    def test_link_allocation_is_a_slash30(self):
        ipam = IPAddressManager()
        allocation = ipam.allocate_link(1, 1, 2, 1)
        assert allocation.network.prefix_len == 30
        assert allocation.address_a in allocation.network
        assert allocation.address_b in allocation.network
        assert allocation.address_a != allocation.address_b

    def test_link_allocation_idempotent_and_direction_independent(self):
        ipam = IPAddressManager()
        forward = ipam.allocate_link(1, 1, 2, 1)
        backward = ipam.allocate_link(2, 1, 1, 1)
        assert forward == backward
        assert ipam.allocated_links == 1

    def test_distinct_links_get_distinct_subnets(self):
        ipam = IPAddressManager()
        nets = {str(ipam.allocate_link(1, p, 2, p).network) for p in range(1, 20)}
        assert len(nets) == 19

    def test_address_a_belongs_to_canonical_lower_end(self):
        ipam = IPAddressManager()
        allocation = ipam.allocate_link(5, 2, 3, 1)
        canonical = IPAddressManager.canonical_link(5, 2, 3, 1)
        assert canonical[0] == 3
        # address_a is for dpid 3, regardless of call order.
        assert ipam.link_allocation(3, 1, 5, 2).address_a == allocation.address_a

    def test_link_range_exhaustion(self):
        ipam = IPAddressManager(link_range="172.16.0.0/29")  # two /30s
        ipam.allocate_link(1, 1, 2, 1)
        ipam.allocate_link(1, 2, 3, 1)
        with pytest.raises(IPAMError):
            ipam.allocate_link(1, 3, 4, 1)

    def test_edge_allocation(self):
        ipam = IPAddressManager()
        allocation = ipam.allocate_edge_port(7, 3)
        assert allocation.network.prefix_len == 24
        assert allocation.gateway == allocation.network.network + 1
        assert ipam.allocate_edge_port(7, 3) == allocation
        assert ipam.allocate_edge_port(7, 4) != allocation
        assert ipam.allocated_edges == 2

    def test_router_ids_unique_and_stable(self):
        ipam = IPAddressManager()
        ids = {str(ipam.router_id(i)) for i in range(1, 100)}
        assert len(ids) == 99
        assert ipam.router_id(5) == ipam.router_id(5)

    def test_router_id_requires_positive_vm_id(self):
        with pytest.raises(IPAMError):
            IPAddressManager().router_id(0)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(IPAMError):
            IPAddressManager(link_range="10.0.0.0/31")
        with pytest.raises(IPAMError):
            IPAddressManager(edge_range="10.0.0.0/30")


class TestConfigMessages:
    def test_switch_message_roundtrip(self):
        message = SwitchConfigMessage(switch_id=0x1A, num_ports=4)
        decoded = ConfigMessage.from_json(message.to_json())
        assert isinstance(decoded, SwitchConfigMessage)
        assert decoded.switch_id == 0x1A and decoded.num_ports == 4

    def test_link_message_roundtrip(self):
        message = LinkConfigMessage(dpid_a=1, port_a=2, address_a="172.16.0.1",
                                    dpid_b=3, port_b=1, address_b="172.16.0.2",
                                    prefix_len=30)
        decoded = ConfigMessage.from_json(message.to_json())
        assert isinstance(decoded, LinkConfigMessage)
        assert decoded.address_b == "172.16.0.2"
        assert decoded.prefix_len == 30

    def test_edge_and_removal_roundtrip(self):
        edge = ConfigMessage.from_json(EdgePortConfigMessage(
            datapath_id=9, port_no=3, gateway="192.168.0.1", prefix_len=24).to_json())
        assert isinstance(edge, EdgePortConfigMessage)
        removed = ConfigMessage.from_json(SwitchRemovedMessage(switch_id=9).to_json())
        assert isinstance(removed, SwitchRemovedMessage)

    def test_json_carries_kind_tag(self):
        payload = json.loads(SwitchConfigMessage(switch_id=1, num_ports=2).to_json())
        assert payload["kind"] == "switch_config"

    def test_unknown_kind_rejected(self):
        with pytest.raises(DecodeError):
            ConfigMessage.from_json('{"kind": "mystery"}')

    def test_malformed_json_rejected(self):
        with pytest.raises(DecodeError):
            ConfigMessage.from_json("not json at all")

    def test_missing_fields_rejected(self):
        with pytest.raises(DecodeError):
            ConfigMessage.from_json('{"kind": "switch_config", "switch_id": 1}')


class TestManualModel:
    def test_defaults_match_paper(self):
        model = ManualConfigurationModel()
        assert model.minutes_per_switch == 15.0
        # The abstract's "typically 7 hours for 28 switches".
        assert model.hours_for(28) == pytest.approx(7.0)

    def test_seconds_and_minutes_consistent(self):
        model = ManualConfigurationModel()
        assert model.seconds_for(4) == model.minutes_for(4) * 60

    def test_breakdown_sums_to_total(self):
        model = ManualConfigurationModel()
        breakdown = model.breakdown_for(10)
        assert breakdown["total"] == pytest.approx(
            breakdown["vm_creation"] + breakdown["interface_mapping"]
            + breakdown["routing_configuration"])

    def test_custom_costs(self):
        model = ManualConfigurationModel(vm_creation_minutes=1,
                                         interface_mapping_minutes=1,
                                         routing_config_minutes=1)
        assert model.minutes_for(10) == 30

    def test_negative_switch_count_rejected(self):
        with pytest.raises(ValueError):
            ManualConfigurationModel().minutes_for(-1)

    def test_zero_switches(self):
        assert ManualConfigurationModel().minutes_for(0) == 0.0


class TestConfigurationGUI:
    def test_switches_start_red(self, sim):
        gui = ConfigurationGUI(sim)
        gui.add_switch(1, "Ghent")
        gui.add_switch(2)
        assert gui.red_switches == [1, 2]
        assert gui.green_switches == []
        assert not gui.all_green

    def test_mark_configured_turns_green(self, sim):
        gui = ConfigurationGUI(sim)
        gui.add_switch(1)
        gui.add_switch(2)
        sim.schedule(5.0, gui.mark_configured, 1)
        sim.schedule(9.0, gui.mark_configured, 2)
        sim.run()
        assert gui.all_green
        assert gui.switches[1].configured_at == 5.0
        assert gui.switches[2].configured_at == 9.0
        assert gui.configuration_timeline() == [(5.0, 1), (9.0, 2)]

    def test_mark_configured_is_idempotent(self, sim):
        gui = ConfigurationGUI(sim)
        gui.add_switch(1)
        gui.mark_configured(1)
        gui.mark_configured(1)
        greens = [t for t in gui.transitions if t[2] == SwitchColor.GREEN]
        assert len(greens) == 1

    def test_mark_unknown_switch_registers_it(self, sim):
        gui = ConfigurationGUI(sim)
        gui.mark_configured(42)
        assert gui.green_switches == [42]

    def test_render_text_marks_green_with_star(self, sim):
        gui = ConfigurationGUI(sim)
        gui.add_switch(1, "Gent")
        gui.add_switch(2, "Brug")
        gui.mark_configured(1)
        text = gui.render_text()
        assert "Gent*" in text
        assert "Brug " in text
        assert "1/2" in text

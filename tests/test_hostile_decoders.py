"""Hostile input for the discovery and routing decoders on their own.

``tests/test_openflow_codec.py`` reaches LLDP and OSPF only through
``Ethernet.decode``, whose header checks reject most damaged frames before
the payload decoder runs.  Here the payload decoders get the damage
directly: LLDP data units of every TLV mix, and the OSPF packets a ring-4
configuration actually exchanges (hellos, database descriptions, requests,
updates with their LSAs, acknowledgements), each with bytes changed, cut
or inserted.  Anything but a decoded object or ``DecodeError`` fails.
"""

from __future__ import annotations

import functools
import struct

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.net.lldp import LLDP, LLDPTLVType  # noqa: E402
from repro.net.packet import DecodeError  # noqa: E402
from repro.quagga.ospf.packets import OSPFPacket  # noqa: E402

from test_golden_trace import run_traced_ring4  # noqa: E402

LLDP_UNITS = [
    LLDP(chassis_id=1, port_id=1).encode(),
    LLDP(chassis_id=0xFFFFFFFFFFFFFFFF, port_id=65534, ttl=0).encode(),
    LLDP(chassis_id=0x1A, port_id=3, ttl=90, system_name="s26").encode(),
    # A unit with no TTL and no END TLV, and one with an unknown TLV.
    LLDP._tlv(LLDPTLVType.CHASSIS_ID, b"\x07dpid:00000000000000ab")
    + LLDP._tlv(LLDPTLVType.PORT_ID, b"\x0712"),
    LLDP._tlv(9, b"\x00" * 7) + LLDP(chassis_id=2, port_id=2).encode(),
]


@functools.lru_cache(maxsize=None)
def captured_ospf_packets():
    """The distinct OSPF packets decoded during a ring-4 configuration."""
    seen = {}
    genuine = OSPFPacket.decode

    def spy(data):
        seen.setdefault(bytes(data), None)
        return genuine(data)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(OSPFPacket, "decode", spy)
        run_traced_ring4()
    return tuple(seen)


@st.composite
def damaged(draw, originals, length_field=None) -> bytes:
    """An original with up to three bytes changed, a run of bytes inserted
    and a cut at either end, each drawn independently.  With the offset of
    a 16-bit total-length field, that field is then often set to the new
    length, so the damage gets past the length check to the body."""
    data = bytearray(draw(originals))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if data:
            data[draw(st.sampled_from(range(len(data))))] = draw(
                st.integers(min_value=0, max_value=255))
    if draw(st.booleans()):
        at = draw(st.sampled_from(range(len(data) + 1)))
        data[at:at] = draw(st.binary(min_size=1, max_size=8))
    cut_front = draw(st.integers(min_value=0, max_value=3)) == 0
    start = draw(st.sampled_from(range(len(data) + 1))) if cut_front else 0
    end = draw(st.sampled_from(range(start, len(data) + 1)))
    data = data[start:end]
    if (length_field is not None and len(data) >= length_field + 2
            and draw(st.booleans())):
        struct.pack_into("!H", data, length_field, len(data))
    return bytes(data)


def decodes_or_rejects(decode, data: bytes) -> None:
    try:
        decode(data)
    except DecodeError:
        pass


SETTINGS = settings(max_examples=500, derandomize=True, deadline=None)


class TestHostileLLDP:
    @SETTINGS
    @given(data=damaged(st.sampled_from(LLDP_UNITS)))
    def test_only_decode_errors_escape(self, data):
        decodes_or_rejects(LLDP.decode, data)

    @SETTINGS
    @given(data=st.binary(max_size=64))
    def test_arbitrary_bytes(self, data):
        decodes_or_rejects(LLDP.decode, data)


class TestHostileOSPF:
    def test_capture_covers_every_packet_type(self):
        types = {OSPFPacket.decode(data).packet_type
                 for data in captured_ospf_packets()}
        assert types == {1, 2, 3, 4, 5}

    @SETTINGS
    @given(data=damaged(st.deferred(
        lambda: st.sampled_from(captured_ospf_packets())), length_field=2))
    def test_only_decode_errors_escape(self, data):
        decodes_or_rejects(OSPFPacket.decode, data)

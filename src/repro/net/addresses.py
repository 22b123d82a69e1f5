"""MAC and IPv4 address value types.

These are small immutable value objects used throughout the packet codecs,
the OpenFlow layer, the IPAM and the routing daemons.  They parse from and
render to the conventional textual forms and pack to network byte order.

Because a simulation constructs the same few thousand addresses millions of
times (every decoded frame, every flow-table key, every RIB prefix), both
address classes *intern* their instances: constructing an address from an
``int``, ``str`` or ``bytes`` key that was seen before returns the cached
instance instead of allocating a new one, and constructing from an existing
address returns it unchanged.  Instances are immutable, so sharing is safe;
hash values are precomputed once per unique address.  The intern tables are
bounded so adversarial inputs cannot grow them without limit.
"""

from __future__ import annotations

import struct
from functools import total_ordering
from typing import Dict, Tuple, Union


class AddressError(ValueError):
    """Raised when an address cannot be parsed or is out of range."""


#: Per-class cap on interned instances.  Far above what any simulated
#: topology allocates; once full, construction still works but stops caching.
_INTERN_LIMIT = 1 << 16


@total_ordering
class MACAddress:
    """A 48-bit Ethernet MAC address."""

    __slots__ = ("_value", "_hash")

    BROADCAST_VALUE = 0xFFFFFFFFFFFF

    _interned: Dict[Union[int, str, bytes], "MACAddress"] = {}

    def __new__(cls, value: Union[str, int, bytes, "MACAddress"]) -> "MACAddress":
        kind = type(value)
        if kind is cls:
            return value
        cacheable = cls is MACAddress and (kind is int or kind is str or kind is bytes)
        if cacheable:
            cached = cls._interned.get(value)
            if cached is not None:
                return cached
        if isinstance(value, MACAddress):
            parsed = value._value
        elif isinstance(value, int):
            if not 0 <= value <= cls.BROADCAST_VALUE:
                raise AddressError(f"MAC integer out of range: {value:#x}")
            parsed = value
        elif isinstance(value, (bytes, bytearray)):
            if len(value) != 6:
                raise AddressError(f"MAC bytes must be 6 long, got {len(value)}")
            parsed = int.from_bytes(value, "big")
        elif isinstance(value, str):
            parsed = cls._parse(value)
        else:
            raise AddressError(f"cannot build MACAddress from {type(value).__name__}")
        self = object.__new__(cls)
        self._value = parsed
        self._hash = hash(("mac", parsed))
        if cacheable and len(cls._interned) < _INTERN_LIMIT:
            cls._interned[value] = self
        return self

    def __init__(self, value: Union[str, int, bytes, "MACAddress"]) -> None:
        # All construction happens in __new__ so interned instances can be
        # returned without re-parsing.
        pass

    def __reduce__(self):
        # Pickle/copy through the public constructor, so unpickling
        # re-interns instead of bypassing __new__ with an empty instance.
        return (self.__class__, (self._value,))

    @staticmethod
    def _parse(text: str) -> int:
        sep = ":" if ":" in text else "-"
        parts = text.split(sep)
        if len(parts) != 6:
            raise AddressError(f"malformed MAC address: {text!r}")
        try:
            octets = [int(p, 16) for p in parts]
        except ValueError as exc:
            raise AddressError(f"malformed MAC address: {text!r}") from exc
        if any(not 0 <= o <= 0xFF for o in octets):
            raise AddressError(f"malformed MAC address: {text!r}")
        value = 0
        for octet in octets:
            value = (value << 8) | octet
        return value

    # ------------------------------------------------------------ properties
    @property
    def packed(self) -> bytes:
        return self._value.to_bytes(6, "big")

    @property
    def is_broadcast(self) -> bool:
        return self._value == self.BROADCAST_VALUE

    @property
    def is_multicast(self) -> bool:
        return bool(self._value >> 40 & 0x01)

    @classmethod
    def broadcast(cls) -> "MACAddress":
        return cls(cls.BROADCAST_VALUE)

    @classmethod
    def from_local_id(cls, device_id: int, port: int = 0) -> "MACAddress":
        """Deterministic locally-administered MAC for simulated devices."""
        value = (0x02 << 40) | ((device_id & 0xFFFFFF) << 16) | (port & 0xFFFF)
        return cls(value)

    def __int__(self) -> int:
        return self._value

    def __str__(self) -> str:
        return ":".join(f"{(self._value >> shift) & 0xFF:02x}" for shift in range(40, -8, -8))

    def __repr__(self) -> str:
        return f"MACAddress('{self}')"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MACAddress):
            return self._value == other._value
        if isinstance(other, (str, int, bytes)):
            try:
                return self._value == MACAddress(other)._value
            except AddressError:
                return NotImplemented
        return NotImplemented

    def __lt__(self, other: "MACAddress") -> bool:
        return self._value < MACAddress(other)._value

    def __hash__(self) -> int:
        return self._hash


@total_ordering
class IPv4Address:
    """A 32-bit IPv4 address."""

    __slots__ = ("_value", "_hash")

    _interned: Dict[Union[int, str, bytes], "IPv4Address"] = {}

    def __new__(cls, value: Union[str, int, bytes, "IPv4Address"]) -> "IPv4Address":
        kind = type(value)
        if kind is cls:
            return value
        cacheable = cls is IPv4Address and (kind is int or kind is str or kind is bytes)
        if cacheable:
            cached = cls._interned.get(value)
            if cached is not None:
                return cached
        if isinstance(value, IPv4Address):
            parsed = value._value
        elif isinstance(value, int):
            if not 0 <= value <= 0xFFFFFFFF:
                raise AddressError(f"IPv4 integer out of range: {value:#x}")
            parsed = value
        elif isinstance(value, (bytes, bytearray)):
            if len(value) != 4:
                raise AddressError(f"IPv4 bytes must be 4 long, got {len(value)}")
            parsed = int.from_bytes(value, "big")
        elif isinstance(value, str):
            parsed = cls._parse(value)
        else:
            raise AddressError(f"cannot build IPv4Address from {type(value).__name__}")
        self = object.__new__(cls)
        self._value = parsed
        self._hash = hash(("ipv4", parsed))
        if cacheable and len(cls._interned) < _INTERN_LIMIT:
            cls._interned[value] = self
        return self

    def __init__(self, value: Union[str, int, bytes, "IPv4Address"]) -> None:
        # All construction happens in __new__ so interned instances can be
        # returned without re-parsing.
        pass

    def __reduce__(self):
        # Pickle/copy through the public constructor, so unpickling
        # re-interns instead of bypassing __new__ with an empty instance.
        return (self.__class__, (self._value,))

    @staticmethod
    def _parse(text: str) -> int:
        parts = text.strip().split(".")
        if len(parts) != 4:
            raise AddressError(f"malformed IPv4 address: {text!r}")
        value = 0
        for part in parts:
            if not part.isdigit():
                raise AddressError(f"malformed IPv4 address: {text!r}")
            octet = int(part)
            if not 0 <= octet <= 255:
                raise AddressError(f"malformed IPv4 address: {text!r}")
            value = (value << 8) | octet
        return value

    @property
    def packed(self) -> bytes:
        return self._value.to_bytes(4, "big")

    @property
    def is_unspecified(self) -> bool:
        return self._value == 0

    @property
    def is_multicast(self) -> bool:
        return 224 <= (self._value >> 24) <= 239

    @property
    def is_broadcast(self) -> bool:
        return self._value == 0xFFFFFFFF

    def __add__(self, offset: int) -> "IPv4Address":
        return IPv4Address((self._value + offset) & 0xFFFFFFFF)

    def __int__(self) -> int:
        return self._value

    def __str__(self) -> str:
        return ".".join(str((self._value >> shift) & 0xFF) for shift in (24, 16, 8, 0))

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return self._value == other._value
        if isinstance(other, (str, int, bytes)):
            try:
                return self._value == IPv4Address(other)._value
            except AddressError:
                return NotImplemented
        return NotImplemented

    def __lt__(self, other: "IPv4Address") -> bool:
        return self._value < IPv4Address(other)._value

    def __hash__(self) -> int:
        return self._hash


class IPv4Network:
    """An IPv4 prefix (network address + mask length)."""

    __slots__ = ("network", "prefix_len", "_hash")

    def __init__(self, value: Union[str, Tuple[IPv4Address, int]]) -> None:
        if isinstance(value, tuple):
            address, plen = IPv4Address(value[0]), int(value[1])
        else:
            if "/" not in value:
                raise AddressError(f"network needs a /prefix: {value!r}")
            addr_text, plen_text = value.split("/", 1)
            address = IPv4Address(addr_text)
            plen = int(plen_text)
        if not 0 <= plen <= 32:
            raise AddressError(f"prefix length out of range: {plen}")
        self.prefix_len = plen
        self.network = IPv4Address(address._value & _NETMASK_INTS[plen])
        self._hash = hash(("net", self.network._value, plen))

    @property
    def netmask(self) -> IPv4Address:
        return _NETMASKS[self.prefix_len]

    @property
    def broadcast(self) -> IPv4Address:
        return IPv4Address(int(self.network) | (~int(self.netmask) & 0xFFFFFFFF))

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self.prefix_len)

    def __contains__(self, address: Union[str, int, IPv4Address]) -> bool:
        if isinstance(address, IPv4Address):
            value = address._value
        else:
            value = IPv4Address(address)._value
        return (value & _NETMASK_INTS[self.prefix_len]) == self.network._value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IPv4Network):
            return NotImplemented
        return (self.network._value == other.network._value
                and self.prefix_len == other.prefix_len)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.network}/{self.prefix_len}"

    def __repr__(self) -> str:
        return f"IPv4Network('{self}')"


#: All 33 netmasks, precomputed: ``_NETMASKS[prefix_len]`` is the mask
#: address, ``_NETMASK_INTS[prefix_len]`` its integer value.
_NETMASK_INTS: Tuple[int, ...] = tuple(
    0 if plen == 0 else (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF
    for plen in range(33))
_NETMASKS: Tuple[IPv4Address, ...] = tuple(IPv4Address(m) for m in _NETMASK_INTS)

#: Reverse mapping for contiguous masks, used to recover the prefix length
#: from a wire-format netmask without counting bits.
PREFIXLEN_FROM_NETMASK: Dict[int, int] = {
    mask: plen for plen, mask in enumerate(_NETMASK_INTS)}


def checksum16(data: bytes) -> int:
    """Internet checksum (RFC 1071) over ``data``."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF

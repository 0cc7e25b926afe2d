"""Network objects: packets and refcounted sockets.

Provides what the paper's extensions touch: XDP-level packet buffers
(read via verified direct packet access), and UDP sockets looked up by
``bpf_sk_lookup_udp`` — an *acquiring* helper whose reference must be
released via ``bpf_sk_release`` (Listing 1, §3.3).  Socket refcounts are
the kernel invariant that extension cancellations must restore: tests
assert that a cancelled extension leaves every refcount at its
pre-invocation value.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import KernelPanic, OversizePacket
from repro.kernel.addrspace import AddressSpace

#: Where socket objects live in the kernel address space.
SOCK_REGION_BASE = 0xFFFF_8880_0000_0000
SOCK_OBJ_SIZE = 128

#: Per-CPU packet buffer area (one slot per CPU, 4 KB each).
PKT_REGION_BASE = 0xFFFF_8890_0000_0000
PKT_SLOT_SIZE = 4096


class Socket:
    """A kernel socket with a reference count."""

    def __init__(self, addr: int, proto: str, tup: bytes):
        self.addr = addr
        self.proto = proto
        self.tup = tup
        self.refcount = 1  # the owning table's reference
        self.released = False

    def get_ref(self) -> None:
        if self.released:
            raise KernelPanic("get_ref on a destroyed socket")
        self.refcount += 1

    def put_ref(self) -> None:
        self.refcount -= 1
        if self.refcount < 0:
            raise KernelPanic(
                f"socket refcount underflow at {self.addr:#x} — double release"
            )
        if self.refcount == 0:
            self.released = True


@dataclass
class NetStack:
    """Socket table plus per-CPU packet staging buffers."""

    aspace: AddressSpace
    _socks: dict[int, Socket] = field(default_factory=dict)  # addr -> sock
    _by_tuple: dict[bytes, Socket] = field(default_factory=dict)
    _next_sock: int = SOCK_REGION_BASE
    _pkt_slots: dict[int, int] = field(default_factory=dict)  # cpu -> base
    _slot_ios: dict[int, tuple] = field(default_factory=dict)  # cpu -> (stage, read)

    def __post_init__(self):
        # One region backs all socket objects; extensions may read
        # socket fields through verified PTR_TO_SOCK accesses.
        self.aspace.map_region(
            SOCK_REGION_BASE, 1 << 20, "kernel:socktab", populated=True
        )

    # -- sockets ----------------------------------------------------------

    def create_udp_socket(self, tup: bytes) -> Socket:
        """Register a bound UDP socket reachable by tuple lookup."""
        addr = self._next_sock
        self._next_sock += SOCK_OBJ_SIZE
        sock = Socket(addr, "udp", bytes(tup))
        self._socks[addr] = sock
        self._by_tuple[bytes(tup)] = sock
        return sock

    def sk_lookup_udp(self, tup: bytes) -> Socket | None:
        sock = self._by_tuple.get(bytes(tup))
        if sock is not None and sock.released:
            return None
        return sock

    def sock_by_addr(self, addr: int) -> Socket | None:
        return self._socks.get(addr)

    def total_extension_refs(self) -> int:
        """Sum of references beyond the owning table's one — must be 0
        whenever no extension is mid-flight (quiescence check)."""
        return sum(max(0, s.refcount - 1) for s in self._socks.values() if not s.released)

    # -- packets ----------------------------------------------------------

    def _slot(self, cpu: int) -> int:
        """Map (once) and return the CPU's staging-slot base."""
        base = self._pkt_slots.get(cpu)
        if base is None:
            base = PKT_REGION_BASE + cpu * PKT_SLOT_SIZE
            self.aspace.map_region(base, PKT_SLOT_SIZE, f"kernel:pkt{cpu}")
            self._pkt_slots[cpu] = base
        return base

    def _slot_io(self, cpu: int) -> tuple:
        """The CPU's one slot writer and one slot reader, built once.

        Slot mapping, dict lookup and address translation happen here
        instead of per packet: both closures work straight on the
        slot's backing (the region is kernel-staged and fully
        populated, the same trusted-writer shortcut the ctx slot
        takes).  The slot is reused packet after packet, so an in-place
        reply must be read back before the next payload is staged.
        """
        io = self._slot_ios.get(cpu)
        if io is None:
            base = self._slot(cpu)
            data, off = self.aspace.region_backing(base)

            def stage(payload: bytes) -> tuple[int, int]:
                n = len(payload)
                if n > PKT_SLOT_SIZE:
                    raise OversizePacket(
                        f"{n}-byte packet larger than staging slot"
                    )
                data[off : off + n] = payload
                return base, base + n

            def read(size: int) -> bytes:
                return bytes(data[off : off + min(size, PKT_SLOT_SIZE)])

            io = self._slot_ios[cpu] = (stage, read)
        return io

    def packet_stager(self, cpu: int):
        """``stage(payload) -> (data, data_end)`` bound to the CPU's
        slot: the addresses are what the hook context carries."""
        return self._slot_io(cpu)[0]

    def packet_reader(self, cpu: int):
        """``read(size) -> bytes`` bound to the CPU's slot (e.g. the
        reply an XDP_TX extension wrote in place)."""
        return self._slot_io(cpu)[1]

    def stage_packet(self, cpu: int, payload: bytes) -> tuple[int, int]:
        """Copy one packet into the CPU's staging slot."""
        return self._slot_io(cpu)[0](payload)

    def read_packet(self, cpu: int, size: int) -> bytes:
        """Read back the CPU's staged packet.  The slot must have been
        staged."""
        io = self._slot_ios.get(cpu)
        if io is None:
            raise KernelPanic(f"no packet staged on cpu {cpu}")
        return io[1](size)

    # -- receive path (XDP_PASS) ------------------------------------------

    def stack_deliver(self, cpu: int, payload: bytes, dport: int = 0) -> bytes:
        """The receive-path work an ``XDP_PASS`` packet incurs that an
        ``XDP_TX`` reply skips (the BMC/KFlex performance argument):

        1. skb allocation — the payload is copied out of the driver
           slot into kernel packet memory;
        2. L4 checksum validation over the full payload;
        3. socket-table lookup for the destination;
        4. copy-out to the socket receive queue (the buffer userspace
           will ``recvfrom``).

        Every step does its real work against the simulated kernel
        (address-space copies, a ones'-complement sum, the socket hash
        table); nothing is a sleep or a tuning constant.  Returns the
        delivered bytes.  Callers on the userspace-fallback path run
        this before handing the packet to the server, so measured
        fast-path speedups include the stack traversal they model.
        """
        # skb alloc + copy into kernel memory (reuse the CPU's slot
        # region at a fixed skb offset so delivery never grows state).
        if len(payload) > PKT_SLOT_SIZE // 2:
            raise KernelPanic("packet larger than skb slot")
        skb = self._slot(cpu) + PKT_SLOT_SIZE // 2
        self.aspace.write_bytes(skb, payload)

        # L4 checksum: 16-bit ones'-complement sum, as udp_rcv would.
        data = payload if len(payload) % 2 == 0 else payload + b"\x00"
        csum = 0
        for i in range(0, len(data), 2):
            csum += (data[i] << 8) | data[i + 1]
            csum = (csum & 0xFFFF) + (csum >> 16)

        # Socket lookup; a miss is fine (the datapath's server socket
        # is not registered in the simulated table) — the lookup cost
        # is what is being modelled.
        self.sk_lookup_udp(udp_tuple(0, 0, 0, dport))

        # Copy-out to the receive queue / userspace buffer.
        return self.aspace.read_bytes(skb, len(payload))


def udp_tuple(saddr: int, daddr: int, sport: int, dport: int) -> bytes:
    """Pack an IPv4 UDP 4-tuple the way ``bpf_sock_tuple.ipv4`` lays
    it out (12 bytes)."""
    return struct.pack("<IIHH", saddr, daddr, sport, dport)

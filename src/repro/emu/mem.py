"""Sparse, page-granular byte memory for the emulator and IR interpreter."""

from repro.errors import EmulationError

_PAGE_SHIFT = 12
_PAGE_SIZE = 1 << _PAGE_SHIFT
_PAGE_MASK = _PAGE_SIZE - 1


class Memory:
    """A sparse 32-bit byte-addressable memory.

    Reads of unmapped pages raise unless the memory was created with
    ``fill_unmapped``; writes allocate pages on demand.  Endianness is
    applied at the integer read/write level.
    """

    def __init__(self, endness="little", fill_unmapped=None):
        if endness not in ("little", "big"):
            raise ValueError("bad endness %r" % endness)
        self.endness = endness
        self.fill_unmapped = fill_unmapped
        self._pages = {}

    def _page_for_read(self, page_index):
        page = self._pages.get(page_index)
        if page is None:
            if self.fill_unmapped is None:
                raise EmulationError(
                    "read of unmapped address 0x%x" % (page_index << _PAGE_SHIFT)
                )
            page = bytearray([self.fill_unmapped]) * _PAGE_SIZE
            self._pages[page_index] = page
        return page

    def _page_for_write(self, page_index):
        page = self._pages.get(page_index)
        if page is None:
            fill = self.fill_unmapped if self.fill_unmapped is not None else 0
            page = bytearray([fill]) * _PAGE_SIZE
            self._pages[page_index] = page
        return page

    def read_bytes(self, addr, size):
        out = bytearray()
        while size > 0:
            page = self._page_for_read(addr >> _PAGE_SHIFT)
            offset = addr & _PAGE_MASK
            chunk = min(size, _PAGE_SIZE - offset)
            out += page[offset:offset + chunk]
            addr += chunk
            size -= chunk
        return bytes(out)

    def write_bytes(self, addr, data):
        offset_in_data = 0
        size = len(data)
        while size > 0:
            page = self._page_for_write(addr >> _PAGE_SHIFT)
            offset = addr & _PAGE_MASK
            chunk = min(size, _PAGE_SIZE - offset)
            page[offset:offset + chunk] = data[
                offset_in_data:offset_in_data + chunk
            ]
            addr += chunk
            offset_in_data += chunk
            size -= chunk

    def read(self, addr, size):
        """Read ``size`` bytes as an unsigned integer."""
        return int.from_bytes(self.read_bytes(addr, size), self.endness)

    def write(self, addr, value, size):
        """Write ``value`` as ``size`` bytes."""
        self.write_bytes(
            addr, (value & ((1 << (8 * size)) - 1)).to_bytes(size, self.endness)
        )

    def read_cstring(self, addr, limit=4096):
        """Read a NUL-terminated byte string (without the NUL)."""
        out = bytearray()
        for i in range(limit):
            byte = self.read(addr + i, 1)
            if byte == 0:
                break
            out.append(byte)
        return bytes(out)

    def snapshot(self):
        """Deep-copy the mapped pages (for state comparison in tests)."""
        return {index: bytes(page) for index, page in self._pages.items()}

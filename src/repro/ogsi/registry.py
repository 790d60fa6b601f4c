"""The Registry PortType (soft-state registration).

Registrations carry a lifetime; entries not refreshed within it are
swept.  This is the OGSI-level registry of Table 3 — distinct from the
UDDI business registry in :mod:`repro.uddi`, which handles the
organization-level publishing of Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.minidb.expr import like_match
from repro.ogsi.porttypes import REGISTRY_PORTTYPE
from repro.ogsi.service import GridServiceBase


@dataclass
class _Registration:
    handle: str
    information: list[str]
    expires_at: float


class RegistryService(GridServiceBase):
    """Maps service handles to descriptive info with soft-state expiry."""

    porttype = REGISTRY_PORTTYPE

    def __init__(self) -> None:
        super().__init__()
        self._entries: dict[str, _Registration] = {}

    def _now(self) -> float:
        return self.container.clock.now() if self.container is not None else 0.0

    def _sweep(self) -> None:
        now = self._now()
        expired = [h for h, reg in self._entries.items() if reg.expires_at <= now]
        for handle in expired:
            del self._entries[handle]

    def RegisterService(self, handle: str, information: list[str], lifetime: float) -> None:
        """Register (or refresh) *handle*; lifetime <= 0 means no expiry."""
        self.require_active()
        if not handle:
            raise ValueError("handle may not be empty")
        expires_at = float("inf") if lifetime <= 0 else self._now() + lifetime
        self._entries[handle] = _Registration(handle, list(information or []), expires_at)

    def UnregisterService(self, handle: str) -> None:
        self.require_active()
        self._entries.pop(handle, None)

    def FindServices(self, namePattern: str) -> list[str]:
        """Handles whose first information entry matches a LIKE pattern.

        An empty pattern (or ``"%"``) returns every live handle.
        """
        self.require_active()
        self._sweep()
        pattern = namePattern or "%"
        out: list[str] = []
        for reg in self._entries.values():
            name = reg.information[0] if reg.information else ""
            if like_match(name, pattern):
                out.append(reg.handle)
        return sorted(out)

    def live_count(self) -> int:
        self._sweep()
        return len(self._entries)

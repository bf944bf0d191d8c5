"""Privilege modes of the simulated machine.

The paper's experiments cross three security boundaries: user/kernel,
JavaScript sandbox (which lives inside user mode), and guest/hypervisor.
The hardware predictor models care about the four hardware modes below;
the JS sandbox boundary is enforced in software by the model JIT.
"""

from __future__ import annotations

import enum


class Mode(enum.Enum):
    """Hardware privilege mode.

    ``is_kernel`` and ``is_guest`` are plain member attributes, set once
    per member: the committed path tests them on every load and kernel
    crossing.
    """

    USER = "user"
    KERNEL = "kernel"
    GUEST_USER = "guest_user"
    GUEST_KERNEL = "guest_kernel"

    def __init__(self, value: str) -> None:
        self.is_kernel = value in ("kernel", "guest_kernel")
        self.is_guest = value in ("guest_user", "guest_kernel")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

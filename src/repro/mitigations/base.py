"""Mitigation configuration: the model's equivalent of kernel boot flags.

The paper's methodology (section 4.1) is to boot Linux with default
mitigations, then use kernel parameters (``nopti``, ``mds=off``,
``nospectre_v2`` ...) and Firefox ``about:config`` switches to disable them
one at a time and attribute the overhead.  :class:`MitigationConfig` is the
programmatic form of those switches, and :class:`Knob` is one named switch
the attribution harness can flip.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..cpu.model import CPUModel
from ..errors import ConfigurationError


class V2Strategy(enum.Enum):
    """Kernel-side Spectre V2 strategy for indirect branches."""

    NONE = "none"
    RETPOLINE_GENERIC = "retpoline_generic"
    RETPOLINE_AMD = "retpoline_amd"
    IBRS = "ibrs"            # legacy: MSR write on every kernel entry
    EIBRS = "eibrs"          # enhanced IBRS: set once at boot


class SSBDMode(enum.Enum):
    """Linux ``spec_store_bypass_disable=`` policy."""

    OFF = "off"
    PRCTL = "prctl"          # opt-in via prctl only (Linux >= 5.16 default)
    SECCOMP = "seccomp"      # prctl + implicit for seccomp processes (< 5.16)
    FORCE_ON = "on"          # SSBD for every process


@dataclass(frozen=True)
class MitigationConfig:
    """Every mitigation switch the model understands.

    Kernel-side switches mirror Linux boot parameters; the ``js_*`` fields
    mirror the SpiderMonkey ``about:config`` switches the paper toggles.
    """

    # Meltdown
    pti: bool = False
    # L1TF
    pte_inversion: bool = False
    l1d_flush_on_vmentry: bool = False
    # LazyFP
    eager_fpu: bool = False
    # Spectre V1 (kernel side)
    v1_lfence_swapgs: bool = False
    v1_usercopy_masking: bool = False
    # Spectre V2
    v2_strategy: V2Strategy = V2Strategy.NONE
    v2_rsb_stuffing: bool = False
    v2_ibpb: bool = False
    #: Linux ``spectre_v2_user=on``: barrier on *every* cross-mm switch
    #: instead of only for tasks that opted in (the default conditional
    #: policy).  Exposed for the ablation bench.
    v2_ibpb_always: bool = False
    # Speculative Store Bypass
    ssbd_mode: SSBDMode = SSBDMode.OFF
    # MDS
    mds_verw: bool = False
    mds_smt_off: bool = False
    # JavaScript engine (Firefox/SpiderMonkey) switches
    js_index_masking: bool = False
    js_object_guards: bool = False
    js_other: bool = False  # pointer poisoning + reduced timer precision

    # -- derived views -------------------------------------------------- #

    @property
    def uses_retpolines(self) -> bool:
        return self.v2_strategy in (
            V2Strategy.RETPOLINE_GENERIC,
            V2Strategy.RETPOLINE_AMD,
        )

    @property
    def uses_ibrs_entry_write(self) -> bool:
        """Legacy IBRS writes SPEC_CTRL on every kernel entry/exit."""
        return self.v2_strategy is V2Strategy.IBRS

    def validate_for(self, cpu: CPUModel) -> None:
        """Reject configurations the hardware cannot run.

        Mirrors the kernel refusing e.g. IBRS on a part without the MSR.
        """
        if self.v2_strategy in (V2Strategy.IBRS, V2Strategy.EIBRS):
            if not (cpu.predictor.supports_ibrs or cpu.predictor.supports_eibrs):
                raise ConfigurationError(
                    f"{cpu.key} does not support IBRS (paper Table 10: N/A)"
                )
        if self.v2_strategy is V2Strategy.EIBRS and not cpu.predictor.supports_eibrs:
            raise ConfigurationError(f"{cpu.key} does not support enhanced IBRS")
        if self.v2_strategy is V2Strategy.RETPOLINE_AMD and cpu.vendor != "AMD":
            raise ConfigurationError(
                "AMD (lfence) retpolines do not protect Intel parts "
                "(paper section 5.3)"
            )
        if self.mds_smt_off and not cpu.smt:
            raise ConfigurationError(f"{cpu.key} has no SMT to disable")

    def replace(self, **changes) -> "MitigationConfig":
        """Return a copy with the given switches changed."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def all_off(cls) -> "MitigationConfig":
        """``mitigations=off`` plus every Firefox switch disabled."""
        return cls()


@dataclass(frozen=True)
class Knob:
    """One attribution switch: disables a named mitigation group.

    ``disable`` maps a config to the same config with this group off —
    the model analogue of appending one boot parameter.
    """

    name: str
    boot_param: str
    description: str
    disable: Callable[[MitigationConfig], MitigationConfig]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Knob {self.name} ({self.boot_param})>"


def _disable_pti(c: MitigationConfig) -> MitigationConfig:
    return c.replace(pti=False)


def _disable_mds(c: MitigationConfig) -> MitigationConfig:
    return c.replace(mds_verw=False, mds_smt_off=False)


def _disable_v2(c: MitigationConfig) -> MitigationConfig:
    return c.replace(
        v2_strategy=V2Strategy.NONE, v2_rsb_stuffing=False, v2_ibpb=False
    )


def _disable_v1(c: MitigationConfig) -> MitigationConfig:
    return c.replace(v1_lfence_swapgs=False, v1_usercopy_masking=False)


def _disable_l1tf(c: MitigationConfig) -> MitigationConfig:
    return c.replace(pte_inversion=False, l1d_flush_on_vmentry=False)


def _disable_lazyfp(c: MitigationConfig) -> MitigationConfig:
    return c.replace(eager_fpu=False)


def _disable_ssbd(c: MitigationConfig) -> MitigationConfig:
    return c.replace(ssbd_mode=SSBDMode.OFF)


def _disable_js_index_masking(c: MitigationConfig) -> MitigationConfig:
    return c.replace(js_index_masking=False)


def _disable_js_object_guards(c: MitigationConfig) -> MitigationConfig:
    return c.replace(js_object_guards=False)


def _disable_js_other(c: MitigationConfig) -> MitigationConfig:
    return c.replace(js_other=False)


#: Kernel-side knobs in the order the paper's Figure 2 stacks them.
KERNEL_KNOBS: Tuple[Knob, ...] = (
    Knob("pti", "nopti", "Meltdown: kernel page table isolation", _disable_pti),
    Knob("mds", "mds=off", "MDS: verw buffer clearing on kernel exit", _disable_mds),
    Knob("spectre_v2", "nospectre_v2",
         "Spectre V2: retpolines/eIBRS, IBPB, RSB stuffing", _disable_v2),
    Knob("spectre_v1", "nospectre_v1",
         "Spectre V1: lfence after swapgs, usercopy masking", _disable_v1),
    Knob("l1tf", "l1tf=off", "L1TF: PTE inversion, L1D flush on VM entry",
         _disable_l1tf),
    Knob("lazyfp", "eagerfpu=off", "LazyFP: eager FPU save/restore",
         _disable_lazyfp),
    Knob("ssbd", "spec_store_bypass_disable=off",
         "Speculative Store Bypass Disable policy", _disable_ssbd),
)

#: Firefox-side knobs in the order the paper's Figure 3 stacks them.
JS_KNOBS: Tuple[Knob, ...] = (
    Knob("js_index_masking", "javascript.options.spectre.index_masking",
         "Spectre V1: array index masking cmov", _disable_js_index_masking),
    Knob("js_object_guards", "javascript.options.spectre.object_mitigations",
         "Spectre V1: object type-guard masking", _disable_js_object_guards),
    Knob("js_other", "javascript.options.spectre.*",
         "Other JS hardening: pointer poisoning, timer clamping",
         _disable_js_other),
)

ALL_KNOBS: Tuple[Knob, ...] = KERNEL_KNOBS + JS_KNOBS

KNOBS_BY_NAME: Dict[str, Knob] = {k.name: k for k in ALL_KNOBS}


# --------------------------------------------------------------------------- #
# Flush+reload: the cache side channel the attack demonstrations read
# --------------------------------------------------------------------------- #

#: Probe-array stride: one page per byte value, like published PoCs
#: (defeats the prefetcher).
PROBE_STRIDE = 4096


def flush_probe(machine: Any, base: int) -> None:
    """Flush half: evict the 256 probe lines of the array at ``base``."""
    for candidate in range(256):
        machine.caches.flush_line(base + candidate * PROBE_STRIDE)


def reload_probe(machine: Any, base: int, first: int = 0) -> Optional[int]:
    """Reload half: the byte whose probe line is the one warm line from
    candidate ``first`` on, else None.  ``first=1`` leaves out candidate
    0, where a masked gadget's in-bounds decoy lands."""
    warm = [candidate for candidate in range(first, 256)
            if machine.caches.probe_l1(base + candidate * PROBE_STRIDE)]
    return warm[0] if len(warm) == 1 else None

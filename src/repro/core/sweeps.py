"""Parameter sweeps and crossover finding.

The paper's qualitative claims are all statements about where curves
cross: mitigation overhead matters for syscall-sized operations but not
fork-sized ones (4.2); VM exits are too rare to matter (4.4); SSBD only
matters for forwarding-dense code (5.5).  This module provides the
machinery to draw those curves and locate the crossings, plus two
ready-made sweeps used by the benches and examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..cpu.machine import Machine
from ..cpu.model import CPUModel
from ..kernel import HandlerProfile, Kernel
from ..mitigations.base import MitigationConfig


def _within(x: float, x0: float, x1: float) -> float:
    """``x`` clamped into ``[x0, x1]``: an interpolated crossing with
    ``t`` in [0, 1] can land one ulp outside its segment after rounding."""
    return min(max(x, x0), x1)


@dataclass(frozen=True)
class SweepResult:
    """One swept curve: x values and the measured y per x."""

    parameter: str
    xs: Tuple[float, ...]
    ys: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ValueError("xs and ys must have equal length")
        if not self.xs:
            raise ValueError("a sweep needs at least one point")
        for left, right in zip(self.xs, self.xs[1:]):
            if right <= left:
                raise ValueError(
                    f"xs must be strictly increasing, got {left!r} before "
                    f"{right!r} — duplicate or unsorted grids make "
                    f"interpolate/first_below report wrong crossings")

    def interpolate(self, x: float) -> float:
        """Piecewise-linear interpolation of y at ``x`` (clamped)."""
        xs, ys = self.xs, self.ys
        if x <= xs[0]:
            return ys[0]
        if x >= xs[-1]:
            return ys[-1]
        for i in range(1, len(xs)):
            if x == xs[i]:
                return ys[i]  # exact grid hit: no float round-trip
            if x < xs[i]:
                t = (x - xs[i - 1]) / (xs[i] - xs[i - 1])
                return ys[i - 1] + t * (ys[i] - ys[i - 1])
        return ys[-1]  # pragma: no cover - unreachable

    def first_below(self, threshold: float) -> Optional[float]:
        """x of the leftmost crossing where the curve drops below
        ``threshold``; None if no swept y is below it.

        Scanning left to right for the first y strictly below the
        threshold:

        * if that is the *first* point, the curve is never observed above
          the threshold, so the crossing is reported as ``xs[0]`` (flat
          already-below curves included) — there is no earlier segment to
          interpolate into;
        * otherwise the crossing is linearly interpolated inside the
          segment ending at that point, i.e. the returned x satisfies
          ``interpolate(x) == threshold`` up to float rounding.  The left
          endpoint of that segment has ``y >= threshold`` (it did not
          match first), so the interpolation denominator ``y0 - y1`` is
          strictly positive and no equality guard is needed; a segment
          whose left endpoint sits exactly *at* the threshold reports its
          left x.  The result is clamped into the segment, where rounding
          could otherwise put it one ulp past ``x1``.
        """
        for i, y in enumerate(self.ys):
            if y < threshold:
                if i == 0:
                    return self.xs[0]
                x0, x1 = self.xs[i - 1], self.xs[i]
                y0 = self.ys[i - 1]
                t = (y0 - threshold) / (y0 - y)
                return _within(x0 + t * (x1 - x0), x0, x1)
        return None


def sweep(parameter: str, values: Sequence[float],
          run_fn: Callable[[float], float]) -> SweepResult:
    """Evaluate ``run_fn`` over ``values``."""
    return SweepResult(parameter=parameter, xs=tuple(float(v) for v in values),
                       ys=tuple(float(run_fn(v)) for v in values))


def find_crossover(a: SweepResult, b: SweepResult) -> Optional[float]:
    """x where curve ``a`` first drops to curve ``b`` (or below).

    Both sweeps must share their x grid.  Returns None when ``a`` stays
    above ``b`` over the whole range, or the first grid x when ``a``
    starts at-or-below ``b``.
    """
    if a.xs != b.xs:
        raise ValueError("sweeps must share their x grid")
    prev_diff = None
    for x, ya, yb in zip(a.xs, a.ys, b.ys):
        diff = ya - yb
        if diff <= 0:
            if prev_diff is None or prev_diff <= 0:
                return x
            # Interpolate the zero crossing within the last segment.
            x0 = a.xs[a.xs.index(x) - 1]
            t = prev_diff / (prev_diff - diff)
            return _within(x0 + t * (x - x0), x0, x)
        prev_diff = diff
    return None


# --------------------------------------------------------------------------- #
# Ready-made sweeps
# --------------------------------------------------------------------------- #

def overhead_vs_operation_size(
    cpu: CPUModel,
    config: MitigationConfig,
    sizes: Sequence[int] = (100, 300, 1000, 3000, 10000, 30000, 100000),
    iterations: int = 12,
) -> SweepResult:
    """Mitigation overhead (%) as a function of kernel-work size.

    The curve behind section 4.2's structure: boundary-crossing
    mitigations are a fixed tax per syscall, so overhead falls
    hyperbolically with operation size — getpid suffers, fork shrugs.
    """
    def one(size: float) -> float:
        profile = HandlerProfile(f"sweep_{int(size)}",
                                 work_cycles=int(size), loads=4, stores=2,
                                 indirect_branches=2)
        def cost(cfg: MitigationConfig) -> float:
            kernel = Kernel(Machine(cpu, seed=1), cfg)
            for _ in range(4):
                kernel.syscall(profile)
            return sum(kernel.syscall(profile)
                       for _ in range(iterations)) / iterations
        return 100.0 * (cost(config) / cost(MitigationConfig.all_off()) - 1.0)

    return sweep("kernel work (cycles)", sizes, one)


def ssbd_overhead_vs_forwarding_density(
    cpu: CPUModel,
    densities: Sequence[int] = (0, 20, 40, 80, 120, 160),
    iterations: int = 12,
) -> SweepResult:
    """SSBD slowdown (%) as store->load pairs per 10k-cycle iteration.

    The curve behind Figure 5: swaptions sits at the dense end, facesim
    at the sparse end, and the whole curve steepens on newer parts.
    """
    from ..cpu import isa

    def one(density: float) -> float:
        def cost(ssbd: bool) -> float:
            machine = Machine(cpu, seed=1)
            machine.msr.set_ssbd(ssbd)
            def iteration() -> int:
                cycles = machine.execute(isa.work(10_000))
                for i in range(int(density)):
                    addr = 0x9000_0000 + 64 * (i % 64)
                    cycles += machine.execute(isa.store(addr))
                    cycles += machine.execute(isa.load(addr))
                return cycles
            for _ in range(4):
                iteration()
            return sum(iteration() for _ in range(iterations)) / iterations
        return 100.0 * (cost(True) / cost(False) - 1.0)

    return sweep("store->load pairs per iteration", densities, one)

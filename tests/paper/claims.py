"""The paper's evaluation, one row per claim.

Every value of the paper's evaluation that this repository reproduces is
stated here, once: the cells of Tables 1-10, the claims of Figures 2, 3
and 5, and the findings of sections 4.4, 4.5, 6.2.2 and 8.
``tests/paper/test_claims.py`` checks every row against what
``spectresim all --fast`` computes; tier-1 tests that check a paper
value at their own settings read it with :func:`paper`.

A claim ID names its cell or section, ``<artifact>/<subject>/<cell>``:
the artifact is ``table<N>``, ``fig<N>`` or ``s<section>``, the subject
a CPU key (``a>b`` for an ordering across two CPUs), and the cell a
column, mitigation knob or workload (``a>b`` for an ordering within one
CPU).  A section-wide claim has no subject (``fig5/peak``).  Each row
holds the paper's value -- a number, a check mark, or the paper's words
for a claim about a shape -- and one predicate:

* :class:`Exact` -- within ``tol`` of the paper's number, or equal to it;
* :class:`NA` -- the paper's N/A: the cell has no value;
* :class:`Band` -- the point estimate lies inside a band;
* :class:`Mark` -- a matrix cell carries the paper's mark;
* :class:`Order` -- one cell lies above another, judged as the paper's
  section 4.1 judges a difference.

Where two statements of a claim disagreed on a bound, the row takes the
tighter one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from repro.cpu import CPU_ORDER


@dataclass(frozen=True)
class Interval:
    """A measured cell: its point estimate and its 95% interval, formed
    from the interval of each of the two measurements it compares."""

    point: float
    low: float
    high: float


@dataclass(frozen=True)
class Exact:
    """The paper's number within ``tol``; any other value, equal."""

    tol: float = 0

    def holds(self, paper: Any, measured: Any) -> bool:
        if isinstance(paper, (int, float)) and not isinstance(paper, bool):
            return measured is not None and abs(measured - paper) <= self.tol
        return measured == paper


@dataclass(frozen=True)
class NA:
    """The paper's N/A: the part has no such cell."""

    def holds(self, paper: Any, measured: Any) -> bool:
        return measured is None


@dataclass(frozen=True)
class Band:
    """The point estimate lies between ``low`` and ``high``, exclusive
    unless ``closed``; ``None`` leaves that side open."""

    low: Optional[float] = None
    high: Optional[float] = None
    closed: bool = False

    def holds(self, paper: Any, measured: Any) -> bool:
        if measured is None:
            return False
        x = measured.point if isinstance(measured, Interval) else measured
        if self.closed:
            return ((self.low is None or self.low <= x)
                    and (self.high is None or x <= self.high))
        return ((self.low is None or self.low < x)
                and (self.high is None or x < self.high))


@dataclass(frozen=True)
class Mark:
    """A matrix cell (Table 1's marks, Tables 9/10's check marks)."""

    def holds(self, paper: Any, measured: Any) -> bool:
        return measured == paper


@dataclass(frozen=True)
class Order:
    """Cell ``higher`` lies above cell ``lower`` (claim IDs).

    Between two measured cells this is section 4.1's rule, under which a
    difference counts only when the two 95% intervals separate: the row
    fails only when the interval of ``lower`` lies wholly above that of
    ``higher``.  Between two deterministic values it is strict.
    """

    higher: str
    lower: str

    def holds(self, paper: Any, measured: Any) -> bool:
        high, low = measured
        if isinstance(high, Interval) and isinstance(low, Interval):
            return low.low <= high.high
        return high > low


@dataclass(frozen=True)
class Claim:
    id: str
    paper: Any
    predicate: Any
    #: Why the row fails at ``--fast``; the test is then a strict xfail.
    xfail: Optional[str] = None

    def holds(self, measured: Any) -> bool:
        return self.predicate.holds(self.paper, measured)


# --------------------------------------------------------------------------- #
# Tables 1-10: the paper's cells
# --------------------------------------------------------------------------- #

#: Table 1, columns in catalog (``CPU_ORDER``) order: "x" = check mark,
#: "" = blank, "!" = needed but not default.
TABLE1 = {
    ("Meltdown", "Page Table Isolation"):  ["x", "x", "", "", "", "", "", ""],
    ("L1TF", "PTE Inversion"):             ["x", "x", "", "", "", "", "", ""],
    ("L1TF", "Flush L1 Cache"):            ["x", "x", "", "", "", "", "", ""],
    ("LazyFP", "Always save FPU"):         ["x"] * 8,
    ("Spectre V1", "Index Masking"):       ["x"] * 8,
    ("Spectre V1", "lfence after swapgs"): ["x"] * 8,
    ("Spectre V2", "Generic Retpoline"):   ["x", "x", "", "", "", "", "", ""],
    ("Spectre V2", "AMD Retpoline"):       ["", "", "", "", "", "x", "x", "x"],
    ("Spectre V2", "IBRS"):                [""] * 8,
    ("Spectre V2", "Enhanced IBRS"):       ["", "", "x", "x", "x", "", "", ""],
    ("Spectre V2", "RSB Stuffing"):        ["x"] * 8,
    ("Spectre V2", "IBPB"):                ["x"] * 8,
    ("Spec. Store Bypass", "SSBD"):        ["!"] * 8,
    ("MDS", "Flush CPU Buffers"):          ["x", "x", "x", "", "", "", "", ""],
    ("MDS", "Disable SMT"):                ["!", "!", "!", "", "", "", "", ""],
}

#: Table 2: catalog field -> value, per CPU.
TABLE2_COLUMNS = ("vendor", "model", "microarchitecture", "year",
                  "power_watts", "clock_ghz", "cores")
TABLE2 = {
    "broadwell":       ("Intel", "E5-2640v4", "Broadwell", 2014, 90, 2.4, 10),
    "skylake_client":  ("Intel", "i7-6600U", "Skylake Client", 2015, 15, 2.6, 2),
    "cascade_lake":    ("Intel", "Xeon Silver 4210R", "Cascade Lake", 2019,
                        100, 2.4, 10),
    "ice_lake_client": ("Intel", "i5-10351G1", "Ice Lake Client", 2019,
                        15, 1.0, 4),
    "ice_lake_server": ("Intel", "Xeon Gold 6354", "Ice Lake Server", 2021,
                        205, 3.0, 18),
    "zen":             ("AMD", "Ryzen 3 1200", "Zen", 2017, 65, 3.1, 4),
    "zen2":            ("AMD", "EPYC 7452", "Zen 2", 2019, 155, 2.35, 32),
    "zen3":            ("AMD", "Ryzen 5 5600X", "Zen 3", 2020, 65, 3.7, 6),
}

# Tables 3-8, in cycles; None is the paper's N/A.
TABLE3_COLUMNS = ("syscall", "sysret", "swap_cr3")
TABLE3 = {
    "broadwell": (49, 40, 206), "skylake_client": (42, 42, 191),
    "cascade_lake": (70, 43, None), "ice_lake_client": (21, 29, None),
    "ice_lake_server": (45, 32, None), "zen": (63, 53, None),
    "zen2": (53, 46, None), "zen3": (83, 55, None),
}
TABLE4 = {
    "broadwell": 610, "skylake_client": 518, "cascade_lake": 458,
    "ice_lake_client": None, "ice_lake_server": None,
    "zen": None, "zen2": None, "zen3": None,
}
#: Baseline indirect branch, then the extra cycles of each variant.
TABLE5_COLUMNS = ("baseline", "ibrs", "generic", "amd")
TABLE5 = {
    "broadwell": (16, 32, 28, None), "skylake_client": (11, 15, 19, None),
    "cascade_lake": (3, 0, 49, None), "ice_lake_client": (5, 0, 21, None),
    "ice_lake_server": (1, 1, 50, None), "zen": (30, None, 25, 28),
    "zen2": (3, 13, 14, 0), "zen3": (23, 19, 13, 18),
}
TABLE6 = {
    "broadwell": 5600, "skylake_client": 4500, "cascade_lake": 340,
    "ice_lake_client": 2500, "ice_lake_server": 840,
    "zen": 7400, "zen2": 1100, "zen3": 800,
}
TABLE7 = {
    "broadwell": 130, "skylake_client": 130, "cascade_lake": 120,
    "ice_lake_client": 40, "ice_lake_server": 69,
    "zen": 114, "zen2": 68, "zen3": 94,
}
TABLE8 = {
    "broadwell": 28, "skylake_client": 20, "cascade_lake": 15,
    "ice_lake_client": 8, "ice_lake_server": 13,
    "zen": 48, "zen2": 4, "zen3": 30,
}

#: Tables 9/10's columns, in ``core.probe.SCENARIOS`` order.
SPEC_COLUMNS = ("user-kernel-syscall", "user-user-syscall",
                "kernel-kernel-syscall", "user-user-direct",
                "kernel-kernel-direct")
#: Table 9 (IBRS disabled): True = check mark.
TABLE9 = {
    "broadwell":       (True, True, True, True, True),
    "skylake_client":  (True, True, True, True, True),
    "cascade_lake":    (False, True, True, True, True),
    "ice_lake_client": (False, True, True, True, True),
    "ice_lake_server": (False, True, True, True, True),
    "zen":             (True, True, True, True, True),
    "zen2":            (True, True, True, True, True),
    "zen3":            (False, False, False, False, False),
}
#: Table 10 (IBRS enabled); None = the N/A row of Zen, which has no IBRS.
TABLE10 = {
    "broadwell":       (False, False, False, False, False),
    "skylake_client":  (False, False, False, False, False),
    "cascade_lake":    (False, True, True, True, True),
    "ice_lake_client": (False, True, False, True, False),
    "ice_lake_server": (False, True, True, True, True),
    "zen":             None,
    "zen2":            (False, False, False, False, False),
    "zen3":            (False, False, False, False, False),
}


def table1_slug(mitigation: str) -> str:
    """Table 1's cell name for a row: its mitigation, in lower snake case."""
    return mitigation.lower().replace(" ", "_")


def _cells(table: str, columns, rows, predicate, **by_column):
    """One row per (CPU, column) cell, checked by ``predicate`` or the
    column's own in ``by_column``; a None value is the paper's N/A, and a
    None row N/A across."""
    for cpu, row in rows.items():
        for column, value in zip(columns, row or (None,) * len(columns)):
            yield Claim(f"{table}/{cpu}/{column}", value,
                        NA() if value is None
                        else by_column.get(column, predicate))


def _orders(prefix: str, cell: str, chain, paper: str):
    """``chain[0] > chain[1] > ...`` as one ordering row per step."""
    for higher, lower in zip(chain, chain[1:]):
        yield Claim(f"{prefix}/{higher}>{lower}/{cell}", paper,
                    Order(f"{prefix}/{higher}/{cell}",
                          f"{prefix}/{lower}/{cell}"))


def _one(rows):
    """A one-column table as ``_cells`` takes it."""
    return {cpu: (value,) for cpu, value in rows.items()}


_INTEL = CPU_ORDER[:5]
_AMD = CPU_ORDER[5:]
_EIBRS = ("cascade_lake", "ice_lake_client", "ice_lake_server")
_PARSEC = ("swaptions", "facesim", "bodytrack")

_ROWS = [
    *(Claim(f"table1/{cpu}/{table1_slug(mitigation)}", mark, Mark())
      for (_, mitigation), marks in TABLE1.items()
      for cpu, mark in zip(CPU_ORDER, marks)),
    *_cells("table2", TABLE2_COLUMNS, TABLE2, Exact()),
    *_cells("table3", TABLE3_COLUMNS, TABLE3, Exact(1), swap_cr3=Exact(2)),
    *_cells("table4", ("verw",), _one(TABLE4), Exact(1)),
    *_cells("table5", TABLE5_COLUMNS, TABLE5, Exact(1)),
    *_cells("table6", ("ibpb",), _one(TABLE6), Exact(5)),
    # "The cost of an IBPB has generally declined over time" (5.3); Ice
    # Lake Client bucks the trend against Cascade Lake.
    *_orders("table6", "ibpb", ("broadwell", "skylake_client",
                                "cascade_lake"), "declined over time"),
    *_orders("table6", "ibpb", ("zen", "zen2", "zen3"), "declined over time"),
    *_orders("table6", "ibpb", ("skylake_client", "ice_lake_client",
                                "cascade_lake"),
             "Ice Lake Client bucks the trend"),
    *_cells("table7", ("rsb_fill",), _one(TABLE7), Exact(1)),
    # RSB stuffing is "relatively minor compared to the total overhead of
    # doing a context switch": under a tenth of one.
    *(Claim(f"table7/{cpu}/share_of_context_switch",
            "relatively minor next to a context switch", Band(high=0.1))
      for cpu in CPU_ORDER),
    *_cells("table8", ("lfence",), _one(TABLE8), Exact(1)),
    *_orders("table8", "lfence", _INTEL[:3] + ("ice_lake_client",),
             "newer Intel parts fence faster"),
    *_cells("table9", SPEC_COLUMNS, TABLE9, Mark()),
    *_cells("table10", SPEC_COLUMNS, TABLE10, Mark()),

    # ----------------------------------------------------------------- #
    # Figure 2: LEBench overhead, default mitigations vs all off (%)
    # ----------------------------------------------------------------- #
    Claim("fig2/broadwell/total", "over 30%", Band(30)),
    Claim("fig2/skylake_client/total", "about 30%", Band(25)),
    *_orders("fig2", "total", ("broadwell", "cascade_lake", "ice_lake_server"),
             "Cascade Lake in between"),
    Claim("fig2/ice_lake_client/total", "under 3%", Band(high=5)),
    Claim("fig2/ice_lake_server/total", "about 3%", Band(high=5)),
    *(Claim(f"fig2/{cpu}/total", "AMD stays low", Band(high=10))
      for cpu in _AMD),
    # Broadwell's total over Ice Lake Server's.
    Claim("fig2/decline", "declined by as much as 10x", Band(8)),
    *(Claim(f"fig2/{cpu}/{knob}", "PTI and MDS dominate", Band(8))
      for cpu in ("broadwell", "skylake_client") for knob in ("pti", "mds")),
    Claim("fig2/broadwell/top_two", ("mds", "pti"), Exact()),
    Claim("fig2/broadwell/spectre_v1", "no measurable impact", Band(-2, 2)),
    Claim("fig2/zen3/pti", None, NA()),
    Claim("fig2/ice_lake_server/mds", None, NA()),

    # ----------------------------------------------------------------- #
    # Figure 3: Octane 2 slowdown, default mitigations vs all off (%)
    # ----------------------------------------------------------------- #
    *(Claim(f"fig3/{cpu}/{cell}", paper, band)
      for cpu in CPU_ORDER
      for cell, paper, band in (
          ("total", "15% to 25%", Band(13, 27)),
          ("js_index_masking", "about 4%", Band(2, 6)),
          ("js_object_guards", "about 6%", Band(4, 9)),
          ("ssbd", "the large OS-side component", Band(1.5)))),
    # The JS knobs' share of Cascade Lake's total.
    Claim("fig3/cascade_lake/js_share", "about half the overhead",
          Band(0.3, 0.8)),
    Claim("fig3/ice_lake_server/js_object_guards>js_index_masking",
          "about 6% against about 4%",
          Order("fig3/ice_lake_server/js_object_guards",
                "fig3/ice_lake_server/js_index_masking")),
    # Ice Lake Server's total over Broadwell's.
    Claim("fig3/no_relief", "no hardware generation fixed it", Band(0.6)),

    # ----------------------------------------------------------------- #
    # Figure 5: SSBD forced on vs default, PARSEC (%)
    # ----------------------------------------------------------------- #
    *(Claim(f"fig5/{cpu}/{workload}", "slower under SSBD",
            Band(5 if workload == "swaptions" else 0))
      for cpu in CPU_ORDER for workload in _PARSEC
      if (cpu, workload) != ("zen3", "swaptions")),
    Claim("fig5/zen3/swaptions", 34, Band(28, 40)),
    Claim("fig5/peak", "zen3/swaptions", Exact()),
    *(Claim(f"fig5/{cpu}/{higher}>{lower}", "the benchmarks differ",
            Order(f"fig5/{cpu}/{higher}", f"fig5/{cpu}/{lower}"))
      for cpu in CPU_ORDER
      for higher, lower in (("swaptions", "bodytrack"),
                            ("bodytrack", "facesim"))),
    *_orders("fig5", "swaptions", _INTEL[::-1], "trending worse over time"),
    *_orders("fig5", "swaptions", _AMD[::-1], "trending worse over time"),

    # ----------------------------------------------------------------- #
    # Section 4.4: host mitigations on vs off under a guest (%)
    # ----------------------------------------------------------------- #
    *(Claim(f"s4.4/{cpu}/vm_lebench", "within 3%", Band(-3, 3))
      for cpu in CPU_ORDER),
    *(Claim(f"s4.4/{cpu}/{workload}", "low", Band(high=4))
      for cpu in CPU_ORDER for workload in ("smallfile", "largefile")),
    Claim("s4.4/lfs_median", "median overhead under 2%", Band(high=2)),
    # Guest-side minus host-side cost of Broadwell's default mitigations
    # on guest LEBench (percentage points).
    Claim("s4.4/broadwell/guest_over_host", "full price inside the guest",
          Band(10)),
    Claim("s4.4/cascade_lake/cycles_per_exit", "tens of thousands of exits "
          "per second", Band(24_000, 240_000)),

    # ----------------------------------------------------------------- #
    # Section 4.5: PARSEC, default mitigations vs none (%)
    # ----------------------------------------------------------------- #
    *(Claim(f"s4.5/{cpu}/{workload}", "never differed by more than 2%",
            Band(-2, 2),
            xfail=("both arms simulate identical cycles (a PARSEC run never "
                   "reaches its first timer tick), so the cell is noise; "
                   "its off arm stopped at adaptive_measure's 5-sample "
                   "minimum with a +/-0.58% CI and reads -2.05%")
            if (cpu, workload) == ("zen2", "bodytrack") else None)
      for cpu in CPU_ORDER for workload in _PARSEC),
    # The share of cells within +/-0.5%.
    Claim("s4.5/within_half", "usually within 0.5%", Band(0.6, closed=True)),

    # ----------------------------------------------------------------- #
    # Section 6.2.2: kernel entry latencies on eIBRS parts
    # ----------------------------------------------------------------- #
    *(claim for cpu in _EIBRS for claim in (
        Claim(f"s6.2.2/{cpu}/modes", 2, Exact()),
        Claim(f"s6.2.2/{cpu}/scrub_extra", 210, Exact()),
        Claim(f"s6.2.2/{cpu}/entries_per_slow", "one in every 8 to 20",
              Band(8, 20, closed=True)),
        Claim(f"s6.2.2/{cpu}/modes_eibrs_off", 1, Exact()))),

    # ----------------------------------------------------------------- #
    # Section 8: the three answers, from the data
    # ----------------------------------------------------------------- #
    Claim("s8/lebench/top_two", ("mds", "pti"), Exact()),
    Claim("s8/octane2/top_two", ("js_object_guards", "ssbd"), Exact()),
    *(Claim(f"s8/{primitive}/improved", primitive == "ibpb", Exact())
      for primitive in ("swap_cr3", "verw", "ibpb", "generic_retpoline",
                        "lfence")),
    # Ice Lake Server's largest knob outside V2, SSBD and LazyFP.
    Claim("s8/ice_lake_server/remaining", "V2 and SSBD remain",
          Band(high=1.0, closed=True)),
    # Broadwell's total minus Ice Lake Server's, less Broadwell's largest
    # knob (percentage points).
    Claim("s8/broadwell/upgrade_over_best_knob",
          "replace older CPUs with newer models", Band(0)),
]

#: claim ID -> :class:`Claim`, in the order above.
CLAIMS: Dict[str, Claim] = {claim.id: claim for claim in _ROWS}
assert len(CLAIMS) == len(_ROWS), "duplicate claim IDs"

# Section 5.2: IBRS costs at most one cycle on eIBRS parts, which
# tightens Ice Lake Server's 1 +/- 1 to [0, 1].
CLAIMS["table5/ice_lake_server/ibrs"] = replace(
    CLAIMS["table5/ice_lake_server/ibrs"], predicate=Band(0, 1, closed=True))


def paper(claim_id: str) -> Any:
    """The paper's value for ``claim_id``."""
    return CLAIMS[claim_id].paper

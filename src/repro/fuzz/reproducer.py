"""Reproducer files: a violating program plus its cell, in one text file.

The format is the printable program form from
:mod:`repro.fuzz.generator` preceded by ``# key: value`` directives that
pin the violating cell, so ``spectresim fuzz --replay <file>`` can
re-run the exact (cpu, policy) pair with the exact derived seed and
confirm the violation still fires.  ``parse_program`` skips comment
lines, so a reproducer file is itself a valid program file.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from ..cpu import get_cpu
from ..errors import SegmentationFault
from .generator import Program, parse_program
from .harness import Violation, check_cell
from .minimize import minimize_program


def reproducer_text(program: Program, violation: Violation,
                    base_seed: int) -> str:
    lines = [
        "# spectresim fuzz reproducer",
        f"# oracle: {violation.oracle}",
        f"# cpu: {violation.cpu}",
        f"# policy: {violation.policy}",
        f"# base-seed: {base_seed}",
    ]
    if violation.scenario:
        lines.append(f"# scenario: {violation.scenario}")
    lines.append(f"# detail: {violation.detail}")
    lines.append("# replay: spectresim fuzz --replay <this file>")
    return "\n".join(lines) + "\n" + program.to_text()


def write_reproducer(out_dir: str, program: Program, violation: Violation,
                     base_seed: int) -> str:
    """Write one reproducer; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    name = (f"{program.name}__{violation.cpu}__{violation.policy}"
            f"__{violation.oracle}.prog")
    path = os.path.join(out_dir, name)
    with open(path, "w") as handle:
        handle.write(reproducer_text(program, violation, base_seed))
    return path


def load_reproducer(path: str) -> Tuple[Program, Dict[str, str]]:
    """Parse a reproducer file into (program, directives)."""
    with open(path) as handle:
        text = handle.read()
    directives: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line.startswith("#"):
            continue
        key, sep, value = line.lstrip("# ").partition(":")
        if sep:
            directives[key.strip()] = value.strip()
    return parse_program(text), directives


def replay_reproducer(path: str) -> List[Violation]:
    """Re-run a reproducer's cell; non-empty means it still violates."""
    program, directives = load_reproducer(path)
    cpu = get_cpu(directives["cpu"])
    policy = directives["policy"]
    base_seed = int(directives.get("base-seed", "1"))
    return check_cell(program, cpu, policy, base_seed)


def minimize_violation(program: Program, violation: Violation,
                       base_seed: int) -> Program:
    """Shrink ``program`` while its cell keeps violating the same oracle."""
    cpu = get_cpu(violation.cpu)

    def still_fails(candidate: Program) -> bool:
        try:
            found = check_cell(candidate, cpu, violation.policy, base_seed)
        except SegmentationFault:
            # Dropping a kernel-entry block can leave a kernel-address
            # load running in user mode; that candidate does not reproduce.
            return False
        return any(v.oracle == violation.oracle for v in found)

    return minimize_program(program, still_fails)

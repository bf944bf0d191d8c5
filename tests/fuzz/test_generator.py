"""Program generator: determinism, printable round-trip, legality."""

from repro.cpu import Machine, Mode, get_cpu
from repro.fuzz import FuzzInstr, generate_program, parse_program

SEEDS = range(40)


def test_same_seed_same_text():
    for seed in SEEDS:
        assert (generate_program(seed).to_text()
                == generate_program(seed).to_text())


def test_distinct_seeds_differ():
    texts = {generate_program(seed).to_text() for seed in SEEDS}
    assert len(texts) > len(SEEDS) // 2


def test_round_trip_is_byte_identical():
    for seed in SEEDS:
        text = generate_program(seed).to_text()
        assert parse_program(text).to_text() == text


def test_parse_skips_comment_lines():
    program = generate_program(5)
    commented = "# a directive: x\n" + program.to_text()
    assert parse_program(commented).to_text() == program.to_text()


def test_every_program_has_a_landing_block():
    for seed in SEEDS:
        program = generate_program(seed)
        assert any(block.landing for block in program.blocks)


def test_programs_run_repeatedly_and_end_in_user_mode():
    """End-of-program mode normalization: three back-to-back runs of the
    same stream must be legal (no syscall-from-kernel etc.)."""
    cpu = get_cpu("broadwell")
    for seed in SEEDS:
        program = generate_program(seed)
        machine = Machine(cpu, seed=1)
        program.install(machine)
        stream = program.instructions()
        for _ in range(3):
            machine.run(stream)
            assert machine.mode is Mode.USER


def test_data_addresses_are_user_space():
    for seed in SEEDS:
        for addr in generate_program(seed).data_addresses():
            assert addr < 0xC0_0000  # below the kernel-data pool


def test_instruction_count_matches_stream():
    for seed in SEEDS:
        program = generate_program(seed)
        assert program.instruction_count() == len(program.instructions())
        assert program.instruction_count() > 0


def test_a_program_materializes_once_per_retpoline_value():
    program = generate_program(7)
    for retpoline in (False, True):
        stream = program.instructions(retpoline)
        assert isinstance(stream, tuple)
        assert program.instructions(retpoline) is stream
    assert program.instructions(False) is not program.instructions(True)


def test_a_clone_edited_after_its_parent_ran_keeps_them_apart():
    parent = generate_program(7)
    stream = parent.instructions()
    machine = Machine(get_cpu("broadwell"), seed=1)
    parent.install(machine)
    pads = dict(machine.program)
    clone = parent.clone()
    clone.blocks[0].body.append(FuzzInstr("verw"))
    clone.blocks[0].landing = True
    assert len(clone.instructions()) == len(stream) + 1
    assert parent.instructions() is stream
    assert len(parent.instructions()) == parent.instruction_count()
    fresh = Machine(get_cpu("broadwell"), seed=1)
    parent.install(fresh)
    assert fresh.program == pads
    assert parse_program(parent.to_text()).to_text() == parent.to_text()

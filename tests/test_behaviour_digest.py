import re
import subprocess
import sys

import behaviour_digest


def test_digest_is_deterministic():
    # two fresh interpreters over the tiny corpus give the same digest in
    # every section; this checks determinism only, not any fixed value
    first, second = (behaviour_digest.records_of(behaviour_digest.ROOT, tiny=True)
                     for _ in range(2))
    assert first and {r[0] for r in first} == set(behaviour_digest.SECTIONS)
    assert behaviour_digest.digests(first) == behaviour_digest.digests(second)


def test_command_line_prints_every_section():
    # the tool as run from the shell: one "<section> <sha256>" line per
    # section, in order
    proc = subprocess.run([sys.executable, behaviour_digest.__file__, "--tiny"],
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [line[0] for line in lines] == list(behaviour_digest.SECTIONS)
    assert all(len(line) == 2 and re.fullmatch("[0-9a-f]{64}", line[1]) for line in lines)

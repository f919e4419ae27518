import behaviour_digest


def test_digest_is_deterministic():
    # two fresh interpreters over the tiny corpus give the same digest in
    # every section; this checks determinism only, not any fixed value
    first, second = (behaviour_digest.records_of(behaviour_digest.ROOT, tiny=True)
                     for _ in range(2))
    assert first and {r[0] for r in first} == set(behaviour_digest.SECTIONS)
    assert behaviour_digest.digests(first) == behaviour_digest.digests(second)

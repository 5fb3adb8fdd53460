"""The planted faults of tests/mutants.py still apply to the code as it stands."""

import re

import mutants


def test_every_mutant_edits_one_place_and_names_existing_tests():
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        text = (mutants.ROOT / mutants.PACKAGE / m.file).read_text()
        assert text.count(m.old) == 1 and m.new != m.old, m.name
        assert m.tests, m.name
        for node in m.tests:
            path, _, test = node.partition("::")
            source = (mutants.ROOT / path).read_text()
            assert re.search(rf"^def {re.escape(test.split('[')[0])}\(", source, re.M), \
                (m.name, node)

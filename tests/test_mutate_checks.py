"""The mutation sweep's accepted list against the checker as it stands.

tests/mutate_checks.py leaves this file out of its copies: the keys are
read off realize.py as written, which a mutant is not.
"""

import mutate_checks


def test_accepted_survivors_name_mutants_of_the_checker():
    """Each accepted survivor names a mutant of realize.py as it stands,
    so an edit to the checker cannot leave an accepted entry that matches
    nothing (keys only: no mutant is written or run)."""
    source = (mutate_checks.ROOT / mutate_checks.TARGET).read_text()
    keys = {key for key, _, _ in mutate_checks.mutants(source)}
    assert sorted(set(mutate_checks.ACCEPTED) - keys) == []

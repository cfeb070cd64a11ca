"""Every row of ``mutants.py`` still applies: a unique name, and old text
that occurs exactly once in its file, so that a stale row shows in
tier-1 rather than only when the slow script runs."""

import mutants


def test_each_row_is_named_once_and_its_old_text_occurs_once():
    names = [name for name, *_ in mutants.MUTANTS]
    assert sorted({n for n in names if names.count(n) > 1}) == []
    stale = [name for name, path, old, _ in mutants.MUTANTS
             if (mutants.ROOT / path).read_text().count(old) != 1]
    assert stale == []

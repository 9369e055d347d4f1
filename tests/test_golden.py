"""The golden outputs of ``golden.py``: no corpus member, hard member up to
order 100 or files instance moved from what golden.json records. A
change that moves one is named here; rewrite the file with
``python tests/golden.py --write`` and list the moved members in
CHANGES.md."""

import golden


def test_no_member_moved(corpus, capsys):
    recorded = golden.load()
    computed = golden.results(corpus)
    what, moved = golden.compare(recorded, computed)
    # shown without -s, so a run in another environment visibly compares
    # the portable table
    with capsys.disabled():
        print(f"\n[golden] compared the {what}")
    assert moved == []
    # the portable table, which other environments compare, holds here too
    assert golden.compare({**recorded, "environment": {}}, computed)[1] == []

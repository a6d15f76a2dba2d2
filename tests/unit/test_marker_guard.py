"""Guard: the ``Id(n)`` marker literal lives only in ``views/view.py``.

Extensions are Id-free; the only production code allowed to spell the
marker label is the legacy decoder (``parse_marker_label`` in
:mod:`repro.views.view`).  Any other
occurrence of the *quoted* literal ``"Id("`` / ``'Id('`` in ``src/``
means marker construction or label sniffing crept back in.

The match is on the quoted form on purpose: the bare text ``Id(`` also
appears in innocent prose ("the document node Id(s)"), while a quoted
occurrence is necessarily a string or f-string building or comparing
marker labels.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
ALLOWED = {Path("repro") / "views" / "view.py"}


def test_marker_literal_only_in_view_shim():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative in ALLOWED:
            continue
        text = path.read_text(encoding="utf-8")
        if '"Id(' in text or "'Id(" in text:
            offenders.append(str(relative))
    assert not offenders, (
        "quoted Id( marker literal found outside the views/view.py shim "
        f"in: {offenders}"
    )


def test_shim_actually_contains_the_literal():
    # Keeps the guard honest: if the shim moves, ALLOWED must follow it.
    text = (SRC / "repro" / "views" / "view.py").read_text(encoding="utf-8")
    assert '"Id(' in text or "'Id(" in text

"""The docs gate: stale backticked code paths and dangling source pointers fail it."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_doc_links.py"


def load_checker():
    spec = importlib.util.spec_from_file_location("check_doc_links", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stale_code_path_fails_and_good_one_passes(tmp_path, capsys):
    (tmp_path / "src" / "repro" / "rts").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "rts" / "primary.py").write_text("")
    (tmp_path / "README.md").write_text(
        "The write path is in `rts/primary.py`; the update protocol was in\n"
        "`rts/p2p/update.py`.\n")
    # History files may name what is gone.
    (tmp_path / "ROADMAP.md").write_text("Deleted `rts/p2p/invalidation.py`.\n")
    checker = load_checker()

    assert checker.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "README.md:2: stale code path -> rts/p2p/update.py" in out
    assert "rts/primary.py" not in out
    assert "invalidation.py" not in out

    (tmp_path / "README.md").write_text("The write path is in `rts/primary.py`.\n")
    assert checker.main([str(tmp_path)]) == 0


def test_source_pointer_to_a_missing_anchor_fails(tmp_path, capsys):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "ARCHITECTURE.md").write_text("# Architecture\n\n## The switch\n")
    (tmp_path / "src" / "repro" / "rts").mkdir(parents=True)
    module = tmp_path / "src" / "repro" / "rts" / "switch.py"
    module.write_text(
        '"""See docs/ARCHITECTURE.md#the-switch and\n'
        'docs/ARCHITECTURE.md#the-replay-numbers."""\n')
    checker = load_checker()

    assert checker.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert (
        "src/repro/rts/switch.py:2: missing anchor -> docs/ARCHITECTURE.md#the-replay-numbers"
        in out)
    assert "#the-switch" not in out

    module.write_text('"""See docs/ARCHITECTURE.md#the-switch."""\n')
    assert checker.main([str(tmp_path)]) == 0

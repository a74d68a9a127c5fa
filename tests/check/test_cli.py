"""The repro-check CLI: exit codes and output surfaces."""

import json
from pathlib import Path

from repro.check.cli import build_parser, main


def test_parser_lists_subcommands():
    parser = build_parser()
    text = parser.format_help()
    assert "run" in text and "fuzz" in text and "shrink" in text


def test_run_passes_on_clean_stack(capsys):
    code = main(
        [
            "run",
            "--sequential-ops", "25",
            "--ops", "60",
            "--config", "UCR-IB",
            "--config", "SDP/bin",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "linearizable" in out and "digest" in out
    assert "MISMATCH" not in out


def test_run_rejects_unknown_config():
    import pytest

    with pytest.raises(SystemExit):
        main(["run", "--config", "carrier-pigeon"])


def test_fuzz_detects_mutation_and_dumps_repro(tmp_path, capsys):
    code = main(
        [
            "fuzz",
            "--seed", "9",
            "--seeds", "1",
            "--ops", "60",
            "--parser-cases", "30",
            "--mutation", "delete-lies",
            "--config", "UCR-IB",
            "--out", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "MISMATCH" in out
    dumps = list(tmp_path.glob("mismatch-*.json"))
    assert len(dumps) == 1
    doc = json.loads(dumps[0].read_text())
    assert doc["mutation"] == "delete-lies"
    assert 1 <= len(doc["commands"]) <= 10  # shrunk before dumping


def test_fuzz_clean_exits_zero(tmp_path, capsys):
    code = main(
        [
            "fuzz",
            "--seed", "3",
            "--seeds", "2",
            "--ops", "30",
            "--parser-cases", "30",
            "--config", "UCR-IB",
            "--config", "SDP/text",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    assert not list(tmp_path.glob("*.json"))


def test_shrink_reminimizes_dump(tmp_path, capsys):
    main(
        [
            "fuzz",
            "--seed", "9",
            "--seeds", "1",
            "--ops", "80",
            "--parser-cases", "0",
            "--mutation", "incr-off-by-one",
            "--config", "UCR-IB",
            "--out", str(tmp_path),
        ]
    )
    capsys.readouterr()
    dump = next(tmp_path.glob("mismatch-*.json"))
    code = main(["shrink", str(dump)])
    out = capsys.readouterr().out
    assert code == 1  # still failing (the mutation is in the dump)
    assert "shrunk" in out
    assert dump.with_name(dump.stem + ".min.json").exists()


def test_fuzz_shrinks_a_cross_config_disagreement(tmp_path, capsys, monkeypatch):
    """Under pressure seed 202 makes UCR-IB and SDP/text disagree while
    each replay matches its own oracle: the pair is shrunk and dumped
    (both config names, the disagreeing index), and the dump reloads.

    The comparator excuses that pair (an incr's not-found against a
    CLIENT_ERROR is a presence flip), so the test puts back the rule
    that did not, to keep a real pair disagreement to shrink."""
    from repro.check import differential

    rule = differential._eviction_explains
    monkeypatch.setattr(differential, "_eviction_explains",
                        lambda op, a, b: rule("", a, b))
    code = main(
        [
            "fuzz",
            "--pressure",
            "--seed", "202",
            "--seeds", "1",
            "--ops", "120",
            "--parser-cases", "0",
            "--config", "UCR-IB",
            "--config", "SDP/text",
            "--out", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "MISMATCH on UCR-IB vs SDP/text" in out
    # The shrunk listing names each value's length and prefix; the
    # ~124 KB pressure values themselves stay in the dump.
    assert "value[124" in out and len(out) < 5000
    dump = tmp_path / "mismatch-seed202.json"
    doc = json.loads(dump.read_text())
    assert doc["configs"] == ["UCR-IB", "SDP/text"]
    assert doc["mismatches"] == []
    assert 0 <= doc["disagreement_index"] < len(doc["commands"]) < 120
    assert main(["shrink", str(dump)]) == 1
    assert dump.with_name(dump.stem + ".min.json").exists()


def test_shrink_reloads_a_single_config_dump(tmp_path, capsys):
    """Dumps that name one config and no pair still shrink."""
    witness = Path(__file__).parent / "data" / "lease-serve-stale-past-deadline.json"
    assert "configs" not in json.loads(witness.read_text())
    case = tmp_path / "case.json"
    case.write_text(witness.read_text())
    assert main(["shrink", str(case)]) == 1
    assert "shrunk 4 -> 4" in capsys.readouterr().out
    assert case.with_name("case.min.json").exists()

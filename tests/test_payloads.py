"""Every call of the golden payload corpus still gives its recorded exit code,
payload digest and stderr line (see tests/regen_payloads.py)."""

import sys

import pytest

import regen_payloads
from regen_payloads import CORPUS, corpus_lines, run_call


def test_payloads_match_the_golden_corpus():
    recorded = CORPUS.read_text(encoding="ascii").splitlines()
    assert corpus_lines() == recorded


def test_a_call_writing_two_stderr_lines_is_refused(monkeypatch, tmp_path):
    # the corpus holds one tab-separated line per call, so one stderr line at most
    def two_lines(args):
        print("warning: assumption: x\nerror: invalid-parameter: y", file=sys.stderr)
        return 1

    monkeypatch.setattr(regen_payloads, "main", two_lines)
    with pytest.raises(ValueError, match="'verify' wrote 2 stderr lines"):
        run_call(["verify"], tmp_path)

"""Every call of the golden payload corpus still gives its recorded exit code,
payload digest and stderr line (see tests/regen_payloads.py)."""

from regen_payloads import CORPUS, corpus_lines


def test_payloads_match_the_golden_corpus():
    recorded = CORPUS.read_text(encoding="ascii").splitlines()
    assert corpus_lines() == recorded

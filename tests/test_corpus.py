"""Corpus K as a failure ledger: the four spec commands on its first 40
specs, each failure counted by command and class, against the committed
counts of ``corpus_ledger.json``.

Spec s of corpus K draws from ``np.random.default_rng(700 + s)``: the block
size p in 1..3 and the order n in 2..6, then the Toeplitz spec and the
Hankel spec of that p and n from the same stream.  Every command runs with
``--seed s``.  A failure class is an exit code other than 0, or a check row
that fails, named by its tag and its name.

The counts must equal the ledger's.  A count that falls is a mend, and the
same change lowers the ledger; a count that rises loosens a check.
"""

import json
from collections import Counter
from pathlib import Path

import numpy as np

from snode_lab import cli, sampling

LEDGER = Path(__file__).with_name("corpus_ledger.json")
SPECS = 40


def _corpus_spec(s):
    """The Toeplitz and the Hankel spec of corpus K's spec s."""
    rng = np.random.default_rng(700 + s)
    p, n = int(rng.integers(1, 4)), int(rng.integers(2, 7))
    return sampling.random_toeplitz_spec(rng, p, n), sampling.random_hankel_spec(rng, p, n)


def _failures(command, spec, s, out):
    """The failure classes of one run of ``command`` on ``spec``."""
    out.mkdir()
    path = out / "spec.json"
    path.write_text(json.dumps(spec.to_json()))
    code = cli.main([command, "--spec", str(path), "--seed", str(s), "--out", str(out)])
    if code == 0:
        return []
    classes = [f"exit {code}"]
    if code == 1:
        report = json.loads((out / f"report_{command}.json").read_text())
        classes += [f"{c['tag']} ({c['name']})" for c in report["checks"] if not c["passed"]]
    return classes


def corpus_failures(tmp_path) -> dict:
    """{command: {failure class: count}} over the first ``SPECS`` specs."""
    counts = {command: Counter() for command in ("verify-toeplitz", "verify-hankel", "ball", "entropy")}
    for s in range(SPECS):
        toeplitz_spec, hankel_spec = _corpus_spec(s)
        for command, counter in counts.items():
            spec = toeplitz_spec if command == "verify-toeplitz" else hankel_spec
            counter.update(_failures(command, spec, s, tmp_path / f"{command}-{s}"))
    return {command: dict(sorted(counter.items())) for command, counter in counts.items()}


def test_corpus_failures_match_the_ledger(tmp_path, capsys):
    got = corpus_failures(tmp_path)
    capsys.readouterr()  # each run prints its verdict
    assert got == json.loads(LEDGER.read_text())

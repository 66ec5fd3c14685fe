#!/usr/bin/env python3
"""Regenerate the committed fixture corpus under tests/fixtures/.

Covers the named constructions at reference sizes, the covering-number-
dropping shift witness, the maximizing classes of the two-cover pairing
score, and the switching inputs that reach each stage of the exchange
pipeline, so regressions in any of those show up as fixture diffs.
"""
import json
from pathlib import Path

from kfam.constructions import _through_one, c3, t2
from kfam.covers import covering_number
from kfam.families import mask_of
from kfam.fileio import save_family
from kfam.search import find_tau_dropping_shift, lemmin_oracle
from kfam.shifting import shift_family

OUT = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

# name -> (n, k, the sets avoiding element 1); what switch_pipeline does on each
SWITCH_INPUTS = {
    # one (i,j)-shift, then converges
    "switch_shift_n12_k4": (12, 4, [
        [3, 5, 10, 12], [2, 6, 9, 12], [4, 9, 10, 11], [6, 7, 8, 10], [6, 8, 9, 10],
        [5, 9, 10, 12],
    ]),
    # six transversal exchanges, then converges
    "switch_transversal_n11_k5": (11, 5, [
        [2, 6, 7, 8, 11], [2, 5, 6, 7, 11], [2, 5, 7, 8, 11], [2, 3, 5, 8, 9],
        [3, 5, 6, 7, 9], [2, 5, 7, 10, 11], [3, 5, 6, 8, 11], [2, 3, 5, 8, 10],
        [3, 5, 7, 8, 9], [2, 3, 6, 7, 10],
    ]),
    # transversal stage, ends aborted:corollary-unavailable
    "switch_abort_n10_k5": (10, 5, [
        [2, 3, 4, 9, 10], [3, 5, 6, 9, 10], [2, 4, 8, 9, 10], [2, 3, 7, 8, 10],
        [2, 3, 4, 7, 9],
    ]),
    # a transversal exchange changes the family, then the first exchange of
    # the extended stage refuses: aborted:corollary-unavailable
    "switch_abort_changed_n11_k5": (11, 5, [
        [3, 4, 5, 9, 11], [5, 6, 7, 9, 10], [4, 5, 6, 7, 9], [3, 4, 5, 7, 10],
        [2, 3, 6, 8, 9], [2, 3, 5, 6, 11], [2, 3, 5, 6, 9],
    ]),
    # n < 2k: passes every other entry guard, outside the pipeline's domain
    "switch_small_n9_k5": (9, 5, [
        [3, 4, 6, 7, 9], [2, 3, 4, 6, 8], [2, 4, 5, 6, 8], [2, 4, 5, 7, 9],
        [3, 4, 6, 8, 9], [2, 6, 7, 8, 9],
    ]),
}


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "lemmin_argmax").mkdir(exist_ok=True)

    for k in (3, 4, 5, 6):
        save_family(t2(k), OUT / f"t2_k{k}.fam")
    for n, k in [(7, 3), (9, 4), (10, 4), (12, 5)]:
        save_family(c3(n, k), OUT / f"c3_n{n}_k{k}.fam")

    hit = find_tau_dropping_shift(7, 3)
    assert hit is not None, "expected a covering-number-dropping shift at n=7, k=3"
    fam, i, j = hit
    payload = {
        "n": fam.n,
        "members": [list(t) for t in fam.sets()],
        "i": i,
        "j": j,
        "tau_before": covering_number(fam).tau,
        "tau_after": covering_number(shift_family(fam, i, j)).tau,
    }
    (OUT / "shift_drop_witness.json").write_text(json.dumps(payload, indent=2) + "\n")

    for s, k in [(3, 4), (3, 5), (4, 4), (4, 5)]:
        for m in range(k + s, k + s + 3):
            best, classes = lemmin_oracle(m, s, k)
            assert len(classes) == 1
            save_family(classes[0], OUT / "lemmin_argmax" / f"free_m{m}_s{s}_k{k}.fam")
    for m in (8, 9, 10):
        best, classes = lemmin_oracle(m, 4, 4, intersecting_only=True)
        assert len(classes) == 1
        save_family(classes[0], OUT / "lemmin_argmax" / f"intersecting_m{m}_s4_k4.fam")
    for name, (n, k, avoiders) in SWITCH_INPUTS.items():
        fam = _through_one(n, k, [mask_of(a) for a in avoiders], "switching input")
        save_family(fam, OUT / f"{name}.fam")

    print(f"fixtures written under {OUT}")


if __name__ == "__main__":
    main()

"""Golden reports: the CLI's output on fixed commands, byte for byte.

Each case runs ``kfam.cli.run`` in a scratch directory holding copies of its
input fixtures, so the paths inside a report are the same on every run.  The
report is compared with its ``runtime_ms`` line taken out; each ``--trace``
file is compared whole.  After a change that is meant to alter a report,
regenerate the files under tests/fixtures/golden with

    PYTHONPATH=src python3 tests/test_golden.py
"""
import io
import os
import re
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from kfam.cli import run

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
RUNTIME_LINE = re.compile(r',\n  "runtime_ms": \d+\n}\n$')

C9 = {"c9.fam": "c3_n9_k4.fam"}
C10 = {"c3_n10_k4.fam": "c3_n10_k4.fam"}


def _fixture(name: str) -> dict:
    return {name: name}


# case -> (argv, input files as {name in the scratch dir: fixture}, exit status)
CASES = {
    # the README's command-line section, in order
    "readme_construct": ("construct c3 --n 9 --k 4 -o c9.fam", {}, 0),
    "readme_stats": ("stats c9.fam", C9, 0),
    "readme_tau": ("tau c9.fam", C9, 0),
    "readme_hitcount": ("hitcount c9.fam --t 2", C9, 0),
    "readme_minimal_tau2": ("minimal-tau2 c9.fam", C9, 0),
    "readme_shift": ("shift c9.fam --i 1 --j 3 -o out.fam", C9, 0),
    "readme_switch": ("switch c9.fam --trace trace.json", C9, 0),
    "readme_peel": ("peel c9.fam --trace peel.json", C9, 0),
    "readme_spread": ("spread c9.fam --r 1", C9, 0),
    "readme_verify_formula": ("verify formula --name c3 --n 9 --k 4", {}, 0),
    "readme_verify_grid": ("verify grid --name eqc3large", {}, 0),
    "readme_search_cnkt": ("search cnkt --n 7 --k 3 --t 3 --all", {}, 0),
    "readme_search_lemmin": ("search lemmin --m 9 --s 3 --k 4", {}, 0),
    # every construction
    "construct_c3": ("construct c3 --n 10 --k 4", {}, 0),
    "construct_t2": ("construct t2 --k 4 --n 9", {}, 0),
    "construct_t2prime": ("construct t2prime --s 3 --n 9", {}, 0),
    "construct_star": ("construct star --n 7 --k 3", {}, 0),
    "construct_hm": ("construct hm --n 9 --k 4", {}, 0),
    "construct_t2_canonical": ("construct t2 --k 4 --canonical", {}, 0),
    # family-file options and census/search modes the README leaves out
    "tau_expect_pass": ("tau c9.fam --expect 3", C9, 0),
    "tau_expect_fail": ("tau c9.fam --expect 2", C9, 1),
    "stats_canonical": ("stats c9.fam --canonical", C9, 0),
    "minimal_tau2_census": ("minimal-tau2 --m 6 --s 3", {}, 0),
    "minimal_tau2_census_intersecting": ("minimal-tau2 --m 6 --s 3 --intersecting-only", {}, 0),
    "search_cnkt_single": ("search cnkt --n 7 --k 3 --t 2", {}, 0),
    "search_lemmin_intersecting": ("search lemmin --m 9 --s 3 --k 4 --intersecting", {}, 0),
    # every branch of verify formula
    "formula_f2prime": ("verify formula --name f2prime --m 9 --s 3 --k 4", {}, 0),
    "formula_fz_z2": ("verify formula --name fz --m 9 --s 3 --k 4 --z 2", {}, 0),
    "formula_fz_z3": ("verify formula --name fz --m 9 --s 3 --k 4 --z 3", {}, 0),
    "formula_fz_z4": ("verify formula --name fz --m 10 --s 3 --k 4 --z 4", {}, 0),
    "formula_fprime3": ("verify formula --name fprime3 --m 10 --s 4 --k 4", {}, 0),
    "formula_hm": ("verify formula --name hm --n 9 --k 4", {}, 0),
    "formula_thm1": ("verify formula --name thm1 --n 9 --k 4", {}, 0),
    "formula_thm1_u": ("verify formula --name thm1 --n 9 --k 4 --u 3", {}, 0),
    "formula_kz": ("verify formula --name kz --n 10 --a 3 --b 4", {}, 0),
    "formula_kz_j": ("verify formula --name kz --n 10 --a 3 --b 4 --j 4", {}, 0),
    # the grid report's point filter, key order and skip reasons
    "grid_f3_fprime3": (
        'verify grid --name f3-fprime3 --ranges {"k":[4],"s":[2,3,4],"m":[8]}', {}, 0,
    ),
    "grid_f3_fprime3_full": (
        'verify grid --name f3-fprime3 --ranges {"k":[4],"s":[2,3,4],"m":[8]} --full', {}, 0,
    ),
    "grid_f_mono_full": ('verify grid --name f-mono --ranges {"k":[4,5]} --full', {}, 0),
    # the switching pipeline's stages and the peeling trace
    "switch_c3_n10_k4": ("switch c3_n10_k4.fam --trace trace.json", C10, 0),
    "peel_c3_n10_k4": ("peel c3_n10_k4.fam --trace peel.json", C10, 0),
    "switch_shift": (
        "switch switch_shift_n12_k4.fam --trace trace.json",
        _fixture("switch_shift_n12_k4.fam"), 0,
    ),
    "switch_transversal": (
        "switch switch_transversal_n11_k5.fam --trace trace.json",
        _fixture("switch_transversal_n11_k5.fam"), 0,
    ),
    "switch_abort": (
        "switch switch_abort_n10_k5.fam --trace trace.json",
        _fixture("switch_abort_n10_k5.fam"), 1,
    ),
    "switch_abort_changed": (
        "switch switch_abort_changed_n11_k5.fam --trace trace.json",
        _fixture("switch_abort_changed_n11_k5.fam"), 1,
    ),
}


def _outputs(case: str, workdir: Path) -> dict:
    """Run one case in workdir; return {golden file name: expected text}."""
    argv, inputs, status = CASES[case]
    argv = argv.split()
    for name, source in inputs.items():
        shutil.copy(FIXTURES / source, workdir / name)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out):
            code = run(argv)
    finally:
        os.chdir(cwd)
    assert code == status
    report, found = RUNTIME_LINE.subn("\n}\n", out.getvalue())
    assert found == 1, "report does not end with runtime_ms"
    files = {f"{case}.json": report}
    if "--trace" in argv:
        trace = argv[argv.index("--trace") + 1]
        files[f"{case}.{trace}"] = (workdir / trace).read_text()
    return files


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case, tmp_path):
    for name, text in _outputs(case, tmp_path).items():
        assert text == (GOLDEN / name).read_text(), name


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in _outputs(case, Path(tmp)).items():
                (GOLDEN / name).write_text(text)
    print(f"{len(CASES)} golden reports written under {GOLDEN}", file=sys.stderr)

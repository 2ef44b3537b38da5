"""Check that the tests kill a fixed list of mutants of the package.

Usage: ``python tests/golden/mutants.py [TREE] [--only NAME ...]``

Each mutant is a name, a file of ``src/linfty``, an exact text that must
occur once in it, the text that replaces it, and the pytest node ids that
must then fail. The script copies TREE's ``src/``, ``tests/`` and
``pyproject.toml`` (TREE defaults to this checkout) into a temporary
directory, with ``README.md`` and ``perfbench/`` read-only beside them (some
tests read them), and writes nothing inside TREE. The unmutated copy must pass the
selected tests first. Then each mutant in turn is written into the copy,
its tests run (``pytest -x``), and the file restored: the mutant is killed
when pytest's summary counts a failed test. A failing run without one (a
collection error, no test selected) counts as a broken entry, not as a
kill. It prints one line per mutant and exits 1 if any mutant survives or
is broken. A surviving mutant is a missing test: add the test, keep the
mutant.
"""
import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# (name, file, old text, new text, pytest node ids that must fail)
MUTANTS = [
    ("commutator second-pass sign", "superfield.py",
     "c = c1 * c2 * (-k if flip > p1 & p2 else k)", "c = c1 * c2 * k",
     ["tests/test_superfield.py"]),
    ("out-of-window pivot at column 0", "algebroid.py",
     "sum(1 for p in echelon.rows if p < 0)", "sum(1 for p in echelon.rows if p <= 0)",
     ["tests/test_cohomology.py"]),
    ("shuffle sign counts later letters", "signs.py",
     "for q in rest if q < p and odd[q])", "for q in rest if q > p and odd[q])",
     ["tests/test_signs.py::TestShuffles"]),
    ("candidate without its minus sign", "subalgebroid.py",
     "candidate = LInftyElement(-encode_deformation(setup, d).value, 0)\n    return mc_residual",
     "candidate = LInftyElement(encode_deformation(setup, d).value, 0)\n    return mc_residual",
     ["tests/test_subalgebroid.py::TestMCResidual"]),
    ("series cap one short", "valgebra.py",
     "        if n > cap:\n", "        if n >= cap:\n",
     ["tests/test_valgebra.py::TestMCResidual"]),
    ("PreconditionError exits 4", "cli.py",
     'print(f"precondition failed: {exc}", file=sys.stderr)\n        return EXIT_INPUT_ERROR',
     'print(f"precondition failed: {exc}", file=sys.stderr)\n        return EXIT_INTERNAL_ERROR',
     ["tests/test_cli.py::TestSplitPayloads::test_non_jacobi_block_is_named",
      "tests/test_cli.py::TestSplitPayloads::test_base_map_that_is_no_homomorphism_is_refused"]),
    ("e of sl2 taken as toral", "algebroid.py",  # frame index 1 of the sl2 preset, read as diagonal
     "                if k == y:\n", "                if k == y or x == 1:\n",
     ["tests/test_weight_block.py"]),
    ("off-diagonal brackets ignored", "algebroid.py",
     "tuple(w for x, w in weights.items() if x not in off_diagonal)", "tuple(weights.values())",
     ["tests/test_weight_block.py"]),
    ("weight test with -w_t", "algebroid.py",
     "== w.get(target, 0) for w in weights)", "== -w.get(target, 0) for w in weights)",
     ["tests/test_weight_block.py"]),
    ("Q = 0 returns |B_q|", "algebroid.py",
     "len(field_basis(chart, q - 1, 0))", "len(field_basis(chart, q, 0))",
     ["tests/test_weight_block.py"]),
    ("unknown term key accepted", "instances.py",
     '            _only(term, _TERM, "")', "            pass",
     ["tests/test_cli.py::TestStrictSchema::test_unknown_key_is_refused_at_its_path"]),
    ("simultaneous oracle reads the unperturbed structure", "cli.py",
     "classically_valid(summed.calculus)", "classically_valid(setup.calculus)",
     ["tests/test_cli.py::TestCommands::test_simultaneous_oracle_checks_the_summed_structure"]),
    ("foliation infinitesimal route ignored", "cli.py",
     "third_agrees = infinitesimal.agree", "third_agrees = True",
     ["tests/test_cli.py::TestCommands::test_a_disagreeing_oracle_exits_3"]),
    ("tangency route ignored", "cli.py",
     "third_agrees = tan.agree", "third_agrees = True",
     ["tests/test_cli.py::TestCommands::test_a_disagreeing_oracle_exits_3"]),
    ("homomorphism validate ignores the graph oracle", "cli.py",
     "graph_closure_oracle(setup, base).accepts", "True",
     ["tests/test_cli.py::TestCommands::test_a_disagreeing_oracle_exits_3"]),
    ("truncate flag read over a point", "cli.py",
     '"truncate": lambda command, inst: command == "cohomology" and not _over_a_point(inst),',
     '"truncate": lambda command, inst: command == "cohomology",',
     ["tests/test_cli.py::TestCommands::test_out_of_range_options_are_input_errors"]),
    ("options block admitted again", "instances.py",
     '| {"format_version", "kind"} for kind', '| {"format_version", "kind", "options"} for kind',
     ["tests/test_cli.py::TestStrictSchema::test_misspelt_or_misplaced_key_exits_2"]),
    ("Faddeev-LeVerrier coefficient sign", "applications.py",
     "scale(Fraction(-1, k))", "scale(Fraction(1, k))",
     ["tests/test_applications.py::TestFrameInverse::test_matches_the_adjugate_reference"]),
    ("anchor defect sign", "algebroid.py",
     "total = total - calc.anchor_apply(i,", "total = total + calc.anchor_apply(i,",
     ["tests/test_algebroid.py::TestClassicalRouteAgainstReference::test_anchor_defects_match"]),
]


def _pytest(copy: Path, selection: list[str], stop_first: bool) -> str:
    """'passed', 'failed' (the summary counts a failed test) or 'broken' (the run failed without one)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *(["-x"] if stop_first else []), *selection]
    proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return "passed"
    return "failed" if re.search(r"\b\d+ failed\b", proc.stdout) else "broken"


def run(tree: Path, mutants: list) -> int:
    package = tree / "src" / "linfty"
    for name, file, old, new, _ in mutants:
        count = (package / file).read_text().count(old)
        if count != 1:
            print(f"{name}: the old text occurs {count} times in {file}, not once")
            return 2
    with tempfile.TemporaryDirectory(prefix="linfty-mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(tree / part, copy / part, ignore=ignore)
        shutil.copy2(tree / "pyproject.toml", copy / "pyproject.toml")
        shutil.copy2(tree / "README.md", copy / "README.md")
        shutil.copytree(tree / "perfbench", copy / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
        for path in [copy / "README.md", *(copy / "perfbench").rglob("*")]:
            if path.is_file():
                path.chmod(0o444)
        selected = sorted({node for *_, selection in mutants for node in selection})
        outcome = _pytest(copy, selected, stop_first=False)
        if outcome != "passed":
            print(f"the unmutated copy fails the selected tests ({outcome})")
            return 2
        survivors = 0
        for name, file, old, new, selection in mutants:
            path = copy / "src" / "linfty" / file
            original = path.read_text()
            path.write_text(original.replace(old, new))
            start = time.perf_counter()
            try:
                outcome = _pytest(copy, selection, stop_first=True)
            finally:
                path.write_text(original)
            verdict = {"passed": "SURVIVED", "failed": "killed", "broken": "BROKEN"}[outcome]
            survivors += outcome != "failed"
            print(f"{verdict:10s} {name} ({time.perf_counter() - start:.1f} s)")
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree", type=Path, nargs="?", default=Path(__file__).resolve().parents[2])
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run only the mutants of these names")
    args = parser.parse_args(argv)
    mutants = [m for m in MUTANTS if not args.only or m[0] in args.only]
    if args.only and len(mutants) != len(set(args.only)):
        parser.error(f"unknown mutant among {args.only}; the names are {[m[0] for m in MUTANTS]}")
    return run(args.tree.resolve(), mutants)


if __name__ == "__main__":
    sys.exit(main())

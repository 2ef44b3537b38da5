"""Time a cold ``import linfty.instances`` of a source tree, and how much of it is compiling.

Usage: ``python tests/golden/cold_import.py TREE [--repeats N]``

TREE is a checkout (this one, or a second copy of another commit). The script
imports that tree's ``src/linfty`` once, so every standard-library module the
package uses stays loaded, as in the benchmark's ``ColdSetup``. Then, N times,
it drops every ``linfty`` module and imports ``linfty.instances`` again. Bytecode
is neither read from nor written to TREE, so each import compiles the sources
anew, as ``setup_s`` does. It prints the median import time, the median summed
``compile()`` time of the imported module sources, and the remainder: executing
module bodies, class creation and the import system itself. Sizing a set-up
change this way takes seconds instead of a full benchmark run::

    python tests/golden/cold_import.py OLD --repeats 30
    python tests/golden/cold_import.py NEW --repeats 30
"""
import argparse
import gc
import statistics
import sys
import time
from pathlib import Path


def _drop_linfty() -> None:
    for name in [n for n in sys.modules if n == "linfty" or n.startswith("linfty.")]:
        del sys.modules[name]


def _compile_s(modules: list) -> float:
    """Seconds to compile the sources of the given modules, one after another."""
    total = 0.0
    for module in modules:
        path = module.__file__
        source = Path(path).read_bytes()
        start = time.perf_counter()
        compile(source, path, "exec", dont_inherit=True)
        total += time.perf_counter() - start
    return total


def measure(tree: Path, repeats: int) -> dict[str, float]:
    sys.dont_write_bytecode = True  # leave the tree as it is
    sys.path.insert(0, str(tree / "src"))
    import linfty.instances  # noqa: F401  (loads the standard library it needs)

    source_dir = (tree / "src" / "linfty").resolve()
    imports, compiles = [], []
    for _ in range(repeats):
        _drop_linfty()
        gc.collect()
        start = time.perf_counter()
        import linfty.instances  # noqa: F401,F811
        imports.append(time.perf_counter() - start)
        loaded = [m for n, m in sorted(sys.modules.items()) if n == "linfty" or n.startswith("linfty.")]
        if any(Path(m.__file__).resolve().parent != source_dir for m in loaded):
            raise SystemExit(f"linfty was not imported from {source_dir}")
        compiles.append(_compile_s(loaded))
    imp, comp = statistics.median(imports), statistics.median(compiles)
    return {"import_ms": imp * 1e3, "compile_ms": comp * 1e3, "rest_ms": (imp - comp) * 1e3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree", type=Path)
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if not (args.tree / "src" / "linfty" / "__init__.py").is_file():
        parser.error(f"no src/linfty package under {args.tree}")
    m = measure(args.tree, args.repeats)
    print(f"{args.tree}: median of {args.repeats} cold imports of linfty.instances")
    print(f"  import   {m['import_ms']:7.1f} ms")
    print(f"  compile  {m['compile_ms']:7.1f} ms  (summed compile() of the module sources)")
    print(f"  rest     {m['rest_ms']:7.1f} ms  (module bodies, class creation, import machinery)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

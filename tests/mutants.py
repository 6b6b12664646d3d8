"""Mutation smoke test: the tests must catch a fixed list of one-line faults.

    python tests/mutants.py [--jobs N] [--only TEXT]

Each entry of `MUTANTS` names a source file under `src/afem`, one line of
it, the faulty line that replaces it, and the tests that must catch the
fault.  For every mutant the script copies `src/afem`, `tests/` and
`pyproject.toml` into a fresh temporary directory, applies the mutation
there and runs the named tests in that copy with pytest; at least one of
them must fail.  First the same tests must pass on an unmutated copy, so
a kill is never a broken test.  The repository tree is never written:
pytest runs inside the copies with its cache off, and hypothesis runs
with a fixed seed, so the verdicts repeat.  Exit status 0 means every
mutant was killed.  A mutant that survives needs a new test; the mutant
stays on the list.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CARRIED = "tests/test_fem.py::test_carried_arrays_match_fresh_computation"
SAMPLED_ONCE = "tests/test_driver.py::test_data_sampled_once_per_level"
EDGE_TABLE = "tests/test_mesh.py::test_carried_edge_table_matches_fresh_build"
GENERATIONS = "tests/test_algsolver.py::test_extended_generations_match_regrouping"
CONTRACTIONS = "tests/test_driver.py::test_level_table_contraction_columns"
OPERATOR = "tests/test_fem.py::test_gradient_operator_holds_the_hat_gradients"

# (name, file under src/afem, line as it is, line as mutated, tests)
MUTANTS = [
    # vertex generations
    ("smoothing children only", "algsolver.py",
     "members = np.concatenate((grp.smooth, kids, kid_parents.ravel()))",
     "members = np.concatenate((grp.smooth, kids))",
     [GENERATIONS, "tests/test_algsolver.py::test_preconditioner_is_symmetric_positive_definite"]),
    ("min for max in the generation rule", "algsolver.py",
     "new_gen = 1 + self.gen[new_parents].max(axis=1)",
     "new_gen = 1 + self.gen[new_parents].min(axis=1)",
     ["tests/test_algsolver.py::test_generation_groups_hold_no_parent_of_their_own"]),
    ("an unstable sort of the new vertices", "algsolver.py",
     'order = np.argsort(new_gen, kind="stable")',
     'order = np.argsort(new_gen, kind="quicksort")',
     [GENERATIONS]),
    ("halved Jacobi weights", "algsolver.py",
     "inv_diag = 1.0 / operator.diagonal()[dof]",
     "inv_diag = 0.5 / operator.diagonal()[dof]",
     ["tests/test_algsolver.py::test_vertex_space_apply_equals_csr_oracle"]),
    ("a generation that gains vertices keeps its stale smooth set", "algsolver.py",
     "smooth=smooth)",
     "smooth=grp.smooth)",
     [GENERATIONS]),
    ("a generation that gains no vertices keeps its stale Jacobi weights", "algsolver.py",
     "successor.weights = tuple(inv_diag[a:b] for a, b in zip(cuts, cuts[1:]))",
     "successor.weights = tuple(self.weights[g] if g < len(self.groups) and grp is "
     "self.groups[g] else inv_diag[a:b] for g, (grp, a, b) in "
     "enumerate(zip(groups, cuts, cuts[1:])))",
     [GENERATIONS]),
    ("Jacobi weights paired with the wrong generation", "algsolver.py",
     "cuts = np.cumsum([0] + [len(s) for s in smooth]).tolist()",
     "cuts = np.cumsum([0] + [len(s) for s in smooth[::-1]]).tolist()",
     [GENERATIONS]),
    # observed contraction columns
    ("pic_ratio over all steps", "driver.py",
     "if rec.alg_stop:",
     "if True:",
     [CONTRACTIONS]),
    ("alg_ratio across linearizations", "driver.py",
     "if prev.k == rec.k and prev.alg_inc > 0.0:",
     "if prev.alg_inc > 0.0:",
     [CONTRACTIONS]),
    # values carried for copied triangles
    ("shifted parent_of in the areas gather", "mesh.py",
     "areas = np.take(mesh.areas, parent_of)",
     "areas = np.take(mesh.areas, np.roll(parent_of, 1))",
     [CARRIED]),
    ("shifted parent_of in the hat gradients gather", "mesh.py",
     "planes = np.take(mesh.gradient_planes, parent_of, axis=1)",
     "planes = np.take(mesh.gradient_planes, np.roll(parent_of, 1), axis=1)",
     [CARRIED]),
    ("shifted parent_of in the samples gather", "fem.py",
     "out = tuple(np.take(a, mesh.parent_of, axis=0)",
     "out = tuple(np.take(a, np.roll(mesh.parent_of, 1), axis=0)",
     [CARRIED]),
    ("a copied mask that accepts every triangle", "mesh.py",
     "return np.bincount(parent_of)[parent_of] == 1",
     "return np.bincount(parent_of)[parent_of] >= 1",
     [CARRIED, SAMPLED_ONCE]),
    ("a driver that passes no previous samples", "driver.py",
     "samples = sample(mesh, problem.source, problem.neumann, samples)",
     "samples = sample(mesh, problem.source, problem.neumann, None)",
     [SAMPLED_ONCE]),
    # the carried edge table, boundary ids and Neumann samples
    ("shifted parent_of in the of_triangle gather", "mesh.py",
     "of_triangle = np.take(old_to_new, np.take(parent.of_triangle, parent_of, axis=0))",
     "of_triangle = np.take(old_to_new, np.take(parent.of_triangle, np.roll(parent_of, 1), "
     "axis=0))",
     [EDGE_TABLE]),
    ("swapped incident columns", "mesh.py",
     "return np.column_stack((first, last))",
     "return np.column_stack((last, first))",
     [EDGE_TABLE]),
    ("off-by-one merge insertion", "mesh.py",
     "at = np.searchsorted(kept_codes, added) + np.arange(len(added))",
     "at = np.searchsorted(kept_codes, added) + np.arange(1, len(added) + 1)",
     [EDGE_TABLE]),
    ("no check for an edge of three triangles", "mesh.py",
     "if 2 * n_edges - np.count_nonzero(single) != 3 * len(of_triangle):",
     "if False:",
     ["tests/test_mesh.py::test_carried_incidence_rejects_an_edge_of_three_triangles"]),
    ("shifted boundary edge ids", "mesh.py",
     "boundary_ids = np.searchsorted(codes, _pair_codes(bedges, len(vertices)))",
     "boundary_ids = np.roll(np.searchsorted(codes, _pair_codes(bedges, len(vertices))), 1)",
     [EDGE_TABLE]),
    ("shifted boundary-parent map in the Neumann carry", "fem.py",
     "from_parent = np.arange(len(edges)) - np.cumsum(second)",
     "from_parent = np.roll(np.arange(len(edges)) - np.cumsum(second), 1)",
     [CARRIED]),
    ("g on every Neumann edge, not only the split ones", "fem.py",
     "fresh = np.flatnonzero(second | (edges[:, 1] >= mesh.n_coarse_vertices))",
     "fresh = np.arange(len(edges))",
     [SAMPLED_ONCE]),
    ("g called on a level that split no Neumann edge", "fem.py",
     "elif fresh.size:",
     "else:",
     [SAMPLED_ONCE]),
    # the gradient operator
    ("the x plane in both blocks of the gradient operator", "mesh.py",
     "(self.gradient_planes.reshape(-1),",
     "(np.tile(self.gradient_planes[0].ravel(), 2),",
     [OPERATOR]),
]


def copy_tree(dest: Path) -> None:
    shutil.copytree(ROOT / "src" / "afem", dest / "src" / "afem",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", dest / "tests",
                    ignore=shutil.ignore_patterns("__pycache__", "mutants.py"))
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def mutate(dest: Path, file: str, old: str, new: str) -> None:
    path = dest / "src" / "afem" / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{file}: expected exactly one {old!r}, found {text.count(old)}; "
                         "update MUTANTS to the current source")
    path.write_text(text.replace(old, new))


def run_tests(dest: Path, tests: list) -> tuple:
    """(passed, last output lines) of pytest on ``tests`` inside ``dest``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(dest / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    proc = subprocess.run(cmd, cwd=dest, env=env, capture_output=True, text=True)
    return proc.returncode == 0, proc.stdout.strip().splitlines()[-3:]


def check(mutant) -> tuple:
    name, file, old, new, tests = mutant
    with tempfile.TemporaryDirectory(prefix="afem-mutant-") as tmp:
        dest = Path(tmp)
        copy_tree(dest)
        mutate(dest, file, old, new)
        passed, tail = run_tests(dest, tests)
    return name, not passed, tail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2, help="mutants run at once (default 2)")
    parser.add_argument("--only", default="", help="run the mutants whose name contains this")
    args = parser.parse_args(argv)
    mutants = [m for m in MUTANTS if args.only in m[0]]
    start = time.perf_counter()
    tests = sorted({t for m in mutants for t in m[4]})
    with tempfile.TemporaryDirectory(prefix="afem-unmutated-") as tmp:
        copy_tree(Path(tmp))
        for _, file, old, _, _ in mutants:  # every mutation must still apply
            mutate(Path(tmp), file, old, old)
        passed, tail = run_tests(Path(tmp), tests)
    if not passed:
        print("the named tests fail without any mutation:\n  " + "\n  ".join(tail))
        return 1
    print(f"unmutated: {len(tests)} tests pass")
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        results = list(pool.map(check, mutants))
    survivors = [name for name, killed, _ in results if not killed]
    for name, killed, tail in results:
        print(f"{'killed  ' if killed else 'SURVIVED'} {name}")
        if not killed:
            print("  " + "\n  ".join(tail))
    print(f"{len(results) - len(survivors)} of {len(results)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

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
HANDOVER = "tests/test_driver.py::test_solved_level_released_before_the_next"
SELECTION = "tests/test_estimator.py::test_doerfler_selection_equals_full_sort"
SORT_ORACLES = "tests/test_mesh.py::test_edge_table_and_dofmap_match_sort_oracles"
COMPACT = "tests/test_estimator.py::test_index_arrays_are_compact_and_shared"
WRAP = "tests/test_mesh.py::test_indices_a_32_bit_cast_would_wrap_are_rejected"
HIERARCHY = "tests/test_mesh.py::test_hierarchy_bookkeeping"
BOUNDARY = "tests/test_mesh.py::test_boundary_input_is_checked_at_construction"
WRONG_BOUNDARY = "tests/test_mesh.py::test_validate_rejects_a_wrong_boundary_list"
RHS_ORACLE = "tests/test_fem.py::test_assemble_rhs_matches_einsum_oracle"

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
    # the handover between levels
    ("a preconditioner that keeps the finest DofMap", "algsolver.py",
     "successor._free = fine_dofmap.free_vertices",
     "successor._free, successor.dofmap = fine_dofmap.free_vertices, fine_dofmap",
     [HANDOVER]),
    ("a solver state that survives into refine", "driver.py",
     "x = state.iterate",
     "x, log.state = state.iterate, state",
     [HANDOVER]),
    # Doerfler marking by selection
    ("the k-th largest value dropped from the candidates", "estimator.py",
     "top = np.sort(np.partition(sq, n - k)[n - k:])[::-1]",
     "top = np.sort(np.partition(sq, n - k)[n - k + 1:])[::-1]",
     [SELECTION]),
    ("ties at the last marked value taken from the highest index", "estimator.py",
     "marked[np.flatnonzero(sq == top[count - 1])[:count - np.count_nonzero(marked)]] = True",
     "marked[np.flatnonzero(sq == top[count - 1])[::-1][:count - np.count_nonzero(marked)]] "
     "= True",
     [SELECTION]),
    ("a target above the sorted total marks zero indicators", "estimator.py",
     "count = int(np.searchsorted(csum, min(target, csum[-1]))) + 1",
     "count = min(int(np.searchsorted(csum, target)) + 1, len(top))",
     [SELECTION, "tests/test_estimator.py::test_doerfler_frozen_examples"]),
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
     [EDGE_TABLE, SORT_ORACLES]),
    ("off-by-one merge insertion", "mesh.py",
     "at = np.searchsorted(kept_codes, added) + np.arange(len(added))",
     "at = np.searchsorted(kept_codes, added) + np.arange(1, len(added) + 1)",
     [EDGE_TABLE]),
    ("no check for an edge of three triangles", "mesh.py",
     "if 2 * n_edges - np.count_nonzero(single) != 3 * len(of_triangle):",
     "if False:",
     ["tests/test_mesh.py::test_carried_incidence_rejects_an_edge_of_three_triangles",
      "tests/test_mesh.py::test_edge_shared_by_three_triangles_is_rejected"]),
    ("a child mesh that rebuilds its edge table and boundary ids", "mesh.py",
     "edges=edges, boundary_ids=boundary_ids)",
     ")",
     [EDGE_TABLE]),
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
     "if g is not None and fresh.size:",
     "if g is not None:",
     [SAMPLED_ONCE]),
    ("the g integral of a split edge left as the parent's", "fem.py",
     'g_int[fresh] = length * np.einsum("q,nq->n", EDGE_QUAD_W, gq)',
     'g_int[fresh] = g_int[fresh] if previous is not None else '
     'length * np.einsum("q,nq->n", EDGE_QUAD_W, gq)',
     [CARRIED]),
    # the load vector scatters the sampled integrals
    ("the endpoint integrals of g scattered to swapped endpoints", "fem.py",
     "np.add.at(rhs_v, nm.edges[:, k], nm.g_phi[:, k])",
     "np.add.at(rhs_v, nm.edges[:, k], nm.g_phi[:, 1 - k])",
     [RHS_ORACLE]),
    # the gradient operator
    ("the x plane in both matrices of the gradient operator", "mesh.py",
     "for plane in self.gradient_planes)",
     "for plane in (self.gradient_planes[0],) * 2)",
     [OPERATOR]),
    ("the gradient operator's indices copied", "mesh.py",
     "(plane.reshape(-1), self.triangles.reshape(-1), indptr)",
     "(plane.reshape(-1), self.triangles.reshape(-1).astype(np.int64), indptr)",
     [OPERATOR, COMPACT]),
    # 32-bit connectivity and the per-step index arrays
    ("interior-edge triangle ids left strided", "estimator.py",
     'np.intp, order="C")',
     "np.intp)",
     [COMPACT]),
    ("no range check before the 32-bit cast", "mesh.py",
     "if a.size and (a.min() < 0 or a.max() >= bound):",
     "if False:",
     [WRAP]),
    # the mesh's lineage and its boundary input
    ("refines without the vertex-prefix compare", "mesh.py",
     "and np.array_equal(coarse.vertices, self.vertices[:coarse.n_vertices])",
     "and True",
     [HIERARCHY, "tests/test_fem.py::test_prolongation_preserves_function"]),
    ("n_coarse_vertices that ignores vertex_parents", "mesh.py",
     "return self.n_vertices - (0 if self.vertex_parents is None else len(self.vertex_parents))",
     "return self.n_vertices",
     [HIERARCHY]),
    ("vertex parents checked against all vertices, not the coarse ones", "mesh.py",
     "vertex_parents = _indices(vertex_parents, self.n_vertices - len(vertex_parents),",
     "vertex_parents = _indices(vertex_parents, self.n_vertices,",
     ["tests/test_mesh.py::test_vertex_parents_are_coarse_vertices"]),
    ("no range check on boundary vertex indices", "mesh.py",
     "self.boundary_edges = _indices(boundary_edges, self.n_vertices, \"boundary vertex\",",
     "self.boundary_edges = _indices(np.clip(boundary_edges, 0, self.n_vertices - 1), "
     "self.n_vertices, \"boundary vertex\",",
     [BOUNDARY]),
    ("no check of the boundary markers", "mesh.py",
     "if not ((self.boundary_markers == DIRICHLET) | (self.boundary_markers == NEUMANN)).all():",
     "if False:",
     [BOUNDARY]),
    ("a root mesh's boundary ids taken unchecked", "mesh.py",
     "self.boundary_ids = (_boundary_ids(self.edges, self.boundary_edges)",
     "self.boundary_ids = (np.flatnonzero(self.edges.is_boundary)",
     [WRONG_BOUNDARY]),
    # the CSV reader
    ("CSV rows of any cell count", "driver.py",
     "if len(row) != len(header):",
     "if False:",
     ["tests/test_driver.py::test_run_log_rejects_garbage",
      "tests/test_experiments.py::test_cli_rates_rejects_a_truncated_index"]),
    # the run configuration and the sweep specification
    ("a configuration that keeps the domain as spelled", "driver.py",
     'object.__setattr__(self, "domain", get_problem(self.domain).name)',
     "get_problem(self.domain)",
     ["tests/test_experiments.py::test_domain_spellings_are_one_problem"]),
    ("sweep blocks split on a bare double newline", "experiments.py",
     "groups = itertools.groupby(text.splitlines(), key=lambda line: not line.strip())",
     'groups = ((False, block.splitlines()) for block in text.split("\\n\\n"))',
     ["tests/test_experiments.py::test_parse_sweep_spec_splits_on_any_blank_line"]),
    ("a key that repeats within a block overwrites the first", "experiments.py",
     "if key in grid:",
     "if False:",
     ["tests/test_experiments.py::test_parse_sweep_spec_rejects_repeated_key"]),
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

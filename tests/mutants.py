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
FORMER_MERGE = "tests/test_mesh.py::test_carried_edge_table_matches_former_merge"
AT_BOUND = "tests/test_mesh.py::test_an_index_at_its_bound_or_negative_is_rejected"
GOLDEN_ZSHAPE = "tests/test_driver.py::test_step_log_matches_golden[zshape_diagnostics]"
READ_TEXT = "tests/test_mesh.py::test_read_text_rejects_malformed"
DECLARED = "tests/test_experiments.py::test_rows_hold_exactly_the_declared_columns"

# (name, file under src/afem, line as it is, line as mutated, tests)
MUTANTS = [
    # vertex generations
    ("smoothing children only", "algsolver.py",
     "members = np.concatenate((grp.smooth, kids, kid_parents.ravel()))",
     "members = np.concatenate((grp.smooth, kids))",
     [GENERATIONS, "tests/test_algsolver.py::test_preconditioner_is_symmetric_positive_definite"]),
    ("min for max in the generation rule", "algsolver.py",
     "new_gen = 1 + np.maximum.reduce(self.gen[new_parents], axis=1)",
     "new_gen = 1 + np.minimum.reduce(self.gen[new_parents], axis=1)",
     ["tests/test_algsolver.py::test_generation_groups_hold_no_parent_of_their_own"]),
    ("an unstable sort of the new vertices", "algsolver.py",
     'order = new_gen.argsort(kind="stable")',
     'order = new_gen.argsort(kind="quicksort")',
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
     "cuts = list(itertools.accumulate([len(s) for s in smooth], initial=0))",
     "cuts = list(itertools.accumulate([len(s) for s in smooth[::-1]], initial=0))",
     [GENERATIONS]),
    # the handover between levels
    ("a preconditioner that keeps the finest DofMap", "algsolver.py",
     "successor._free = fine_dofmap.free_vertices",
     "successor._free, successor.dofmap = fine_dofmap.free_vertices, fine_dofmap",
     [HANDOVER]),
    ("a solver state that survives into refine", "driver.py",
     "x = x + state.iterate",
     "x, log.state = x + state.iterate, state",
     [HANDOVER]),
    # the Picard update
    ("the estimator fed the update, not the new iterate", "driver.py",
     "vertex_values[dofmap.free_vertices] = x + state.iterate",
     "vertex_values[dofmap.free_vertices] = state.iterate",
     [GOLDEN_ZSHAPE]),
    ("no coarse correction", "algsolver.py",
     "y[self._coarse_free] = self._coarse_inverse @ r[self._coarse_free]",
     "y[self._coarse_free] = 0.0 * r[self._coarse_free]",
     ["tests/test_algsolver.py::test_vertex_space_apply_equals_csr_oracle"]),
    ("a Jacobi coarse solve, the inverse diagonal for the inverse", "algsolver.py",
     "return np.linalg.inv(operator.toarray())",
     "return np.diag(1.0 / operator.diagonal())",
     ["tests/test_algsolver.py::test_coarse_solve_matches_solve_exact"]),
    ("pic_inc read without the residual", "algsolver.py",
     "return float(np.sqrt(max(self.iterate @ (self.rhs - self.residual), 0.0)))",
     "return float(np.sqrt(max(self.iterate @ self.rhs, 0.0)))",
     ["tests/test_algsolver.py::test_pcg_increment_and_update_norm_accounting"]),
    # Doerfler marking by selection
    ("the k-th largest value dropped from the candidates", "estimator.py",
     "top = np.partition(sq, n - k)[n - k:]",
     "top = np.partition(sq, n - k)[n - k + 1:]",
     [SELECTION]),
    ("ties at the last marked value taken from the highest index", "estimator.py",
     "marked[(sq == top[count - 1]).nonzero()[0][:count - np.count_nonzero(marked)]] = True",
     "marked[(sq == top[count - 1]).nonzero()[0][::-1][:count - np.count_nonzero(marked)]] "
     "= True",
     [SELECTION]),
    ("a target above the sorted total marks zero indicators", "estimator.py",
     "count = int(csum.searchsorted(min(target, csum[-1]))) + 1",
     "count = min(int(csum.searchsorted(target)) + 1, len(top))",
     [SELECTION, "tests/test_estimator.py::test_doerfler_frozen_examples"]),
    # observed contraction columns
    ("pic_ratio over all steps", "driver.py",
     "if rec.alg_stop:",
     "if True:",
     [CONTRACTIONS]),
    ("alg_ratio across linearizations", "driver.py",
     "if prev is not None and prev.k == rec.k and prev.alg_inc > 0.0:",
     "if prev is not None and prev.alg_inc > 0.0:",
     [CONTRACTIONS]),
    # values carried for copied triangles
    ("shifted parent_of in the areas gather", "mesh.py",
     "areas = mesh.areas.take(parent_of)",
     "areas = mesh.areas.take(np.roll(parent_of, 1))",
     [CARRIED]),
    ("shifted parent_of in the hat gradients gather", "mesh.py",
     "planes = mesh.gradient_planes.take(parent_of, axis=1)",
     "planes = mesh.gradient_planes.take(np.roll(parent_of, 1), axis=1)",
     [CARRIED]),
    ("shifted parent_of in the samples gather of f_phi", "fem.py",
     "f_phi = previous.f_phi.take(mesh.parent_of, axis=0)",
     "f_phi = previous.f_phi.take(np.roll(mesh.parent_of, 1), axis=0)",
     [CARRIED]),
    ("shifted parent_of in the samples gather of volume_sq", "fem.py",
     "volume_sq = previous.volume_sq.take(mesh.parent_of)",
     "volume_sq = previous.volume_sq.take(np.roll(mesh.parent_of, 1))",
     [CARRIED]),
    ("a copied mask that accepts every triangle", "mesh.py",
     "return np.bincount(parent_of)[parent_of] == 1",
     "return np.bincount(parent_of)[parent_of] >= 1",
     [FORMER_MERGE]),
    ("every triangle of a refined mesh taken as new", "mesh.py",
     "new = em[:, 0].repeat(counts).nonzero()[0]  # the children of bisected triangles",
     "new = np.arange(len(parent_of))",
     [SAMPLED_ONCE]),
    ("the halves of a bisected triangle's first child swapped", "mesh.py",
     "_CHILDREN = np.array([(3, 2, 0), (4, 0, 3), (4, 3, 2), (3, 0, 1), (5, 1, 3), (5, 3, 0)])",
     "_CHILDREN = np.array([(3, 2, 0), (4, 3, 2), (4, 0, 3), (3, 0, 1), (5, 1, 3), (5, 3, 0)])",
     ["tests/test_mesh.py::test_refine_matches_case_table_oracle"]),
    ("a sum of the volume moments that starts at -0.0", "fem.py",
     "f_phi = np.zeros((len(fq), 3))",
     "f_phi = np.full((len(fq), 3), -0.0)",
     ["tests/test_fem.py::test_volume_moments_match_loop_oracle"]),
    ("a driver that passes no previous samples", "driver.py",
     "samples = sample(mesh, problem.source, problem.neumann, samples)",
     "samples = sample(mesh, problem.source, problem.neumann, None)",
     [SAMPLED_ONCE]),
    # the carried edge table, boundary ids and Neumann samples
    ("shifted parent_of in the of_triangle gather", "mesh.py",
     "of_triangle = old_to_new.take(of_triangle.take(parent_of, axis=0))",
     "of_triangle = old_to_new.take(of_triangle.take(np.roll(parent_of, 1), axis=0))",
     [EDGE_TABLE]),
    ("swapped incident columns", "mesh.py",
     "first, last = incident[:, 0], incident[:, 1]",
     "last, first = incident[:, 0], incident[:, 1]",
     [EDGE_TABLE, SORT_ORACLES]),
    ("off-by-one merge insertion", "mesh.py",
     "at = kept_codes.searchsorted(added) + np.arange(len(added))",
     "at = kept_codes.searchsorted(added) + np.arange(1, len(added) + 1)",
     [EDGE_TABLE]),
    ("surviving edge rows moved with lo and hi swapped", "mesh.py",
     "nodes.view(np.int64).reshape(-1)[is_kept] = kept.view(np.int64).reshape(-1)",
     "nodes[is_kept] = kept[:, ::-1]",
     [EDGE_TABLE]),
    ("no check for an edge of three triangles", "mesh.py",
     "if 2 * n_edges - np.count_nonzero(single) != 3 * len(of_triangle):",
     "if False:",
     ["tests/test_mesh.py::test_carried_incidence_rejects_an_edge_of_three_triangles",
      "tests/test_mesh.py::test_edge_shared_by_three_triangles_is_rejected"]),
    ("a child mesh that rebuilds its edge table and boundary ids", "mesh.py",
     "edges=edges, boundary_ids=boundary_ids, new_triangles=new)",
     "new_triangles=new)",
     [EDGE_TABLE]),
    ("shifted boundary edge ids", "mesh.py",
     "boundary_ids = codes.searchsorted(_pair_codes(bedges, len(vertices)))",
     "boundary_ids = np.roll(codes.searchsorted(_pair_codes(bedges, len(vertices))), 1)",
     [EDGE_TABLE]),
    ("shifted boundary-parent map in the Neumann carry", "fem.py",
     "from_parent = np.arange(len(edges)) - second.cumsum()",
     "from_parent = np.roll(np.arange(len(edges)) - second.cumsum(), 1)",
     [CARRIED]),
    ("g on every Neumann edge, not only the split ones", "fem.py",
     "fresh = (second | (edges[:, 1] >= n_coarse)).nonzero()[0]",
     "fresh = np.arange(len(edges))",
     [SAMPLED_ONCE]),
    ("g called on a level that split no Neumann edge", "fem.py",
     "if fresh.size:",
     "if True:",
     [SAMPLED_ONCE]),
    ("the g integrals of a split edge left as the parent's", "fem.py",
     "for a, computed in zip(rows, _edge_integrals(mesh, g, edges[fresh], owner[fresh])):",
     "for a, computed in zip(rows[:3], _edge_integrals(mesh, g, edges[fresh], owner[fresh])):",
     [CARRIED]),
    # the load vector scatters the sampled integrals
    ("the endpoint integrals of g scattered to swapped endpoints", "fem.py",
     "np.add.at(rhs_v, nm.edges[:, k], nm.g_phi[:, k])",
     "np.add.at(rhs_v, nm.edges[:, k], nm.g_phi[:, 1 - k])",
     [RHS_ORACLE]),
    # the gradient operator
    ("the x plane in both matrices of the gradient operator", "mesh.py",
     "gy.data = self.gradient_planes[1].reshape(-1)",
     "gy.data = self.gradient_planes[0].reshape(-1)",
     [OPERATOR]),
    ("the gradient operator's indices copied", "mesh.py",
     "gx = sp.csr_matrix((self.gradient_planes[0].reshape(-1), self.triangles.reshape(-1),",
     "gx = sp.csr_matrix((self.gradient_planes[0].reshape(-1), "
     "self.triangles.reshape(-1).astype(np.int64),",
     [OPERATOR, COMPACT]),
    # 32-bit connectivity and the per-step index arrays
    ("interior-edge triangle ids left strided", "estimator.py",
     'np.intp, order="C")',
     "np.intp)",
     [COMPACT]),
    ("no range check before the 32-bit cast", "mesh.py",
     "if a.size and (np.minimum.reduce(a, axis=None) < 0",
     "if False and (np.minimum.reduce(a, axis=None) < 0",
     [WRAP]),
    ("a range check that lets the bound through", "mesh.py",
     "or np.maximum.reduce(a, axis=None) >= bound):",
     "or np.maximum.reduce(a, axis=None) > bound):",
     [AT_BOUND]),
    ("a range check that lets -1 through", "mesh.py",
     "if a.size and (np.minimum.reduce(a, axis=None) < 0",
     "if a.size and (np.minimum.reduce(a, axis=None) < -1",
     [AT_BOUND]),
    ("no check that vertex coordinates are finite", "mesh.py",
     "if not np.logical_and.reduce(np.isfinite(self.vertices), axis=None):",
     "if False:",
     ["tests/test_mesh.py::test_non_finite_coordinates_are_rejected"]),
    ("flat triangles accepted", "mesh.py",
     "if not np.logical_and.reduce(areas > 0.0):",
     "if not np.logical_and.reduce(areas >= 0.0):",
     ["tests/test_mesh.py::test_clockwise_or_flat_triangles_are_rejected"]),
    ("infinite indicators accepted", "estimator.py",
     "if not np.logical_and.reduce((sq >= 0.0) & (sq < np.inf)):",
     "if not np.logical_and.reduce((sq >= 0.0) & (sq <= np.inf)):",
     ["tests/test_estimator.py::test_indicator_field_rejects_non_finite"]),
    ("no check that coefficients are finite", "fem.py",
     "if not np.logical_and.reduce(np.isfinite(self.coeffs)):",
     "if False:",
     ["tests/test_fem.py::test_fe_function_round_trip"]),
    # the mesh's lineage and its boundary input
    ("refines without the vertex-prefix compare", "mesh.py",
     "and np.logical_and.reduce(coarse.vertices == self.vertices[:n], axis=None)",
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
     "if not np.logical_and.reduce((self.boundary_markers == DIRICHLET)",
     "if False and np.logical_and.reduce((self.boundary_markers == DIRICHLET)",
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
    ("a subset total that reads a mask as indices", "estimator.py",
     "sq = field.squared if subset is None else "
     "field.squared[triangle_subset(field.mesh, subset)]",
     "sq = field.squared if subset is None else "
     "field.squared[triangle_subset(field.mesh, subset).astype(np.int64)]",
     ["tests/test_estimator.py::test_total_reads_a_subset_as_refine_does"]),
    ("a Picard contraction factor from alpha / L unsquared", "nonlinearity.py",
     "return math.sqrt(1.0 - ratio * ratio)",
     "return math.sqrt(1.0 - ratio)",
     ["tests/test_nonlinearity.py::test_derived_constants"]),
    ("the zshape uniform rate set to the lshape one", "problems.py",
     "uniform_rate=-ZSHAPE_BETA / 2.0, neumann=neumann, exact=exact)",
     "uniform_rate=-1.0 / 3.0, neumann=neumann, exact=exact)",
     ["tests/test_experiments.py::test_expected_rates"]),
    ("a negative section count read as no rows", "mesh.py",
     "if count < 0:",
     "if False:",
     [READ_TEXT]),
    ("a mesh of no triangles", "mesh.py",
     "if not self.n_triangles:",
     "if False:",
     ["tests/test_mesh.py::test_a_mesh_without_triangles_is_rejected"]),
    ("a mesh file read on past its end", "mesh.py",
     "if line is None:",
     "if False:",
     [READ_TEXT]),
    ("a mesh row of the wrong field count read in part", "mesh.py",
     "if len(fields) != len(kinds):",
     "if False:",
     [READ_TEXT]),
    ("a mesh field that does not read raised without its line", "mesh.py",
     "except ValueError as exc:",
     "except KeyError as exc:",
     [READ_TEXT]),
    ("a section count read without its line", "mesh.py",
     "[count] = parse(n, fields[1], f\"'{name}' count\", (int,))",
     "count = int(fields[1])",
     [READ_TEXT]),
    ("text after the boundary section ignored", "mesh.py",
     "if extra is not None:",
     "if False:",
     [READ_TEXT]),
    # one declaration per CSV table, one reader of configuration text
    ("a level-table key that is no column", "driver.py",
     "rows.append(dict(dict.fromkeys(LEVEL_TYPES), l=rec.l, nT=rec.nT,",
     "rows.append(dict(dict.fromkeys(LEVEL_TYPES), l=rec.l, nT=rec.nT, level=rec.l,",
     [DECLARED]),
    ("a runs.csv key that is no column", "experiments.py",
     "n_steps=len(self.log.records), nT=final.nT, eta=final.eta,",
     "n_steps=len(self.log.records), nT=final.nT, eta=final.eta, n_records=0,",
     [DECLARED]),
    ("an integer field that truncates a fraction", "experiments.py",
     "if float(text).is_integer():",
     "if True:",
     ["tests/test_experiments.py::test_parse_sweep_spec_rejects_garbage",
      "tests/test_experiments.py::test_cli_and_sweep_spec_read_the_same_text"]),
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

"""Adaptive solve loop: mesh refinement around linearization around PCG.

The algorithm nests three loops.  On each mesh a damped fixed-point
linearization of the quasilinear operator is iterated: the step from x is
x + e with A e = delta (load - N(x)), A the stiffness matrix.  Each such
system is solved inexactly for the update e, one preconditioned CG step at
a time from e = 0; the error estimator is recomputed at x + e after every
step and drives both stopping tests and the marking of elements for
refinement.  N and the estimator share one flux pass per iterate
(`fem.element_flux`).  The contraction factor of the linearization and of
the preconditioned solver are mesh independent, so total work stays
proportional to the cumulative number of elements.

A level samples the data, assembles, builds or extends the preconditioner,
is solved and is marked.  The handover (refine, DofMap, prolongation) holds
only the mesh, its dofmap, the solution, the samples, the preconditioner and
the marked set, so peak memory holds one level, not two.

Each executed solver step produces one StepRecord; a RunLog serializes to
CSV for the benchmark harness.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, get_type_hints

import numpy as np

from . import algsolver as alg
from .estimator import EstimatorData, IndicatorField, doerfler_mark
from .fem import (DofMap, FeFunction, apply_nonlinear, assemble_laplacian,
                  assemble_rhs, element_flux, prolongate, sample)
from .mesh import create_initial, refine
from .problems import ErrorData, get_problem

# safety valves: a level or a linearization this long means a stopping test
# that cannot be met, and raises RuntimeError
MAX_PICARD_PER_LEVEL = MAX_PCG_PER_LINEARIZATION = 10 ** 4


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the adaptive run.

    theta is the bulk marking parameter; theta = 1 marks every positive
    indicator, so it is full refinement.  lambda_alg and lambda_pic scale
    the algebraic and linearization stopping tests against the estimator.
    The run stops after solving on the first mesh with at least
    max_elements elements (or once the estimator drops to eta_tol); every
    other level refines at least one element, so max_elements also bounds
    the number of levels.  track_error adds a per-step energy error column
    when the exact solution is known; diagnostics additionally solves each
    linear system exactly to log the algebraic error and the combined
    quasi-error.  domain is stored by its canonical problem name
    (``z_shape`` reads as ``zshape``).  A wrong type or an out-of-range
    value raises ValueError at construction: domain is a str, the flags
    bools, theta, the lambdas and eta_tol real numbers but not bools, the
    lambdas finite (an infinite one would switch its stopping test off)
    and max_elements an integer.
    """

    domain: str = "zshape"
    theta: float = 0.5
    lambda_alg: float = 1e-2
    lambda_pic: float = 1e-2
    max_elements: int = 10 ** 5
    eta_tol: float = 0.0
    track_error: bool = False
    diagnostics: bool = False

    def __post_init__(self):
        kinds = [("domain", str), ("track_error", bool), ("diagnostics", bool)] + [
            (name, numbers.Real) for name in ("theta", "lambda_alg", "lambda_pic", "eta_tol")]
        for name, kind in kinds:
            value = getattr(self, name)
            if not isinstance(value, kind) or (kind is numbers.Real and isinstance(value, bool)):
                raise ValueError(f"{name} must be of type {kind.__name__}")
        # raises ValueError for an unknown domain
        object.__setattr__(self, "domain", get_problem(self.domain).name)
        checks = [(0.0 < self.theta <= 1.0, "theta must lie in (0, 1]"),
                  (0.0 < self.lambda_alg < math.inf, "lambda_alg must be positive and finite"),
                  (0.0 < self.lambda_pic < math.inf, "lambda_pic must be positive and finite"),
                  (self.eta_tol >= 0.0, "eta_tol must be nonnegative"),
                  (isinstance(self.max_elements, numbers.Integral)
                   and not isinstance(self.max_elements, bool) and self.max_elements >= 1,
                   "max_elements must be an integer of at least 1")]
        for ok, message in checks:
            if not ok:
                raise ValueError(message)


@dataclass
class StepRecord:
    """One executed solver step (level l, linearization k, solver step j)."""

    l: int
    k: int
    j: int
    step: int
    nT: int
    eta: float
    alg_inc: float
    pic_inc: float
    cumcost: int
    alg_stop: int
    pic_stop: int
    err: Optional[float] = None
    delta: Optional[float] = None
    alg_err: Optional[float] = None


def field_types(cls) -> dict:
    """Field name -> type of a dataclass; ``Optional[X]`` reads as X."""
    hints = get_type_hints(cls)
    return {f.name: getattr(hints[f.name], "__args__", (hints[f.name],))[0]
            for f in fields(cls)}


def write_csv(columns: Sequence[str], rows: Iterable, path=None) -> Optional[str]:
    """Write a header of ``columns``, then one line per row mapping.

    Floats are written as %.12g, bools as 0/1, None as an empty cell and
    anything else with str(); every line ends in \\n.  Returns the text
    when ``path`` is None.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["%.12g" % v if isinstance(v, float)
                         else int(v) if isinstance(v, bool) else v
                         for v in (row[c] for c in columns)])
    if path is None:
        return buf.getvalue()
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())
    return None


def read_csv(source, types: dict, required: Sequence[str]) -> List[dict]:
    """Rows of a `write_csv` file (a path or an open file) as dicts.

    Each cell is parsed by ``types[column]``, empty cells read as None.
    The header must start with ``required`` and name only columns in
    ``types``, each once; every row must have as many cells as the header.
    """
    text = source.read() if hasattr(source, "read") else Path(source).read_text()
    reader = csv.reader(text.splitlines())
    lines = [(reader.line_num, row) for row in reader if row]
    if not lines:
        raise ValueError("empty CSV file")
    header = lines[0][1]
    if set(header) - set(types) or header[:len(required)] != list(required):
        raise ValueError(f"unrecognized CSV header: {','.join(header)!r}")
    repeated = [name for name in header if header.count(name) > 1]
    if repeated:
        raise ValueError(f"CSV header names column {repeated[0]!r} twice")
    for number, row in lines[1:]:
        if len(row) != len(header):
            raise ValueError(f"CSV line {number} has {len(row)} cells, "
                             f"the header {len(header)}")
    return [{name: None if cell == "" else types[name](cell)
             for name, cell in zip(header, row)} for _, row in lines[1:]]


_STEP_TYPES = field_types(StepRecord)
_BASE_COLUMNS = [f.name for f in fields(StepRecord) if f.default is MISSING]
# the columns of `RunLog.level_table`, in CSV order, with the types they read as
LEVEL_TYPES = dict(l=int, nT=int, n_picard=int, n_steps=int, max_pcg=int, eta=float,
                   cumcost=int, err=float, alg_ratio=float, pic_ratio=float,
                   n_marked=int, closure_ratio=float)


@dataclass
class RunLog:
    """The step records of a run, why it ended, and the size of the marked
    set of each refinement (``n_marked``, one per refined level; the step
    CSV does not keep it)."""

    records: List[StepRecord] = field(default_factory=list)
    exit_reason: str = ""
    config: Optional[AdaptiveConfig] = None
    n_marked: List[int] = field(default_factory=list)

    def final(self) -> StepRecord:
        if not self.records:
            raise ValueError("empty run log")
        return self.records[-1]

    def level_table(self) -> List[dict]:
        """Per-level summary from the accepted (last) step of each level, one
        dict per level keyed by the `LEVEL_TYPES` columns.

        Two columns give the contraction observed on the level, or None
        where it has no pair to compare: ``alg_ratio``, the largest ratio of
        successive ``alg_inc`` within one linearization (PCG), and
        ``pic_ratio``, the largest ratio of successive accepted ``pic_inc``,
        those of the steps that passed the algebraic stop (Picard).  Two
        give the refinement that follows the level, None on the last level
        or without ``n_marked``: ``n_marked``, the size of the marked set,
        and ``closure_ratio``, the triangles it added per marked triangle.
        """
        rows = []
        for rec in self.records:
            if not rows or rows[-1]["l"] != rec.l:
                rows.append(dict(dict.fromkeys(LEVEL_TYPES), l=rec.l, nT=rec.nT,
                                 n_steps=0, max_pcg=0))
                prev = accepted = None
            row = rows[-1]
            row.update(n_picard=rec.k, n_steps=row["n_steps"] + 1, eta=rec.eta,
                       cumcost=rec.cumcost, err=rec.err, max_pcg=max(row["max_pcg"], rec.j))
            if prev is not None and prev.k == rec.k and prev.alg_inc > 0.0:
                row["alg_ratio"] = _larger(row["alg_ratio"], rec.alg_inc / prev.alg_inc)
            if rec.alg_stop:
                if accepted:
                    row["pic_ratio"] = _larger(row["pic_ratio"], rec.pic_inc / accepted)
                accepted = rec.pic_inc
            prev = rec
        for row, after, n_marked in zip(rows, rows[1:], self.n_marked):
            row.update(n_marked=n_marked, closure_ratio=(after["nT"] - row["nT"]) / n_marked)
        return rows

    def columns(self) -> List[str]:
        """The StepRecord fields, less optional ones that no record sets."""
        return [name for name in _STEP_TYPES if name in _BASE_COLUMNS
                or any(getattr(r, name) is not None for r in self.records)]

    def to_csv(self, path=None) -> Optional[str]:
        return write_csv(self.columns(), map(vars, self.records), path)

    @classmethod
    def from_csv(cls, source) -> "RunLog":
        rows = read_csv(source, _STEP_TYPES, _BASE_COLUMNS)
        return cls(records=[StepRecord(**row) for row in rows])


def _larger(old: Optional[float], new: float) -> float:
    return new if old is None else max(old, new)


def algebraic_stop(alg_inc: float, pic_inc: float, eta: float,
                   lambda_alg: float) -> bool:
    """Solver step accepted once its increment is estimator-small."""
    return alg_inc <= lambda_alg * (eta + pic_inc)


def picard_stop(pic_inc: float, eta: float, lambda_pic: float) -> bool:
    """Linearization accepted once its increment is estimator-small."""
    return pic_inc <= lambda_pic * eta


def quasi_error(record: StepRecord) -> float:
    """Combined error measure: true error + algebraic error + estimator."""
    return (record.err or 0.0) + (record.alg_err or 0.0) + record.eta


def run_adaptive(config: AdaptiveConfig) -> RunLog:
    problem = get_problem(config.domain)
    mesh = create_initial(problem.domain)
    dofmap = DofMap.from_mesh(mesh)
    u = FeFunction.zero(dofmap)
    log = RunLog(config=config)
    samples = pre = None
    for level in itertools.count():
        # f is evaluated only on the triangles new since the previous samples
        samples = sample(mesh, problem.source, problem.neumann, samples)
        pre, u, marked = _solve_level(config, problem, level, samples, u, pre, log)
        if marked is None:
            return log
        # the handover: the rest of the solved level died with `_solve_level`
        log.n_marked.append(len(marked))
        mesh = refine(mesh, marked)
        dofmap = DofMap.from_mesh(mesh)
        u = prolongate(u, dofmap)


def _solve_level(config: AdaptiveConfig, problem, level: int, samples, u: FeFunction,
                 pre, log: RunLog) -> tuple:
    """Assemble level ``level``, build (``pre`` None) or extend ``pre`` to
    it, iterate the damped linearization from ``u`` one PCG step and one
    StepRecord at a time, and mark.  Returns the preconditioner, the solution
    and the marked set, which is None when the run ends here (see
    ``log.exit_reason``).  All else of the level dies with this frame."""
    nl = problem.nonlinearity
    damping = nl.damping
    dofmap, mesh = u.dofmap, samples.mesh
    operator = assemble_laplacian(dofmap)
    pre = alg.MultilevelPreconditioner(dofmap, operator) if pre is None \
        else pre.extended(dofmap, operator)
    load = assemble_rhs(dofmap, samples)
    est = EstimatorData(samples)
    errdata = ErrorData(mesh, problem.exact) \
        if (config.track_error or config.diagnostics) and problem.exact is not None else None
    lu = alg.factorized(operator) if config.diagnostics else None
    step, cumcost = len(log.records), log.records[-1].cumcost if log.records else 0

    x = u.coeffs
    # the vertex values and flux of x, then of each x + e (an accepted one is the next x)
    vertex_values = u.vertex_values()
    flux = element_flux(nl, mesh, vertex_values)
    k = 0
    while True:
        k += 1
        if k > MAX_PICARD_PER_LEVEL:
            raise RuntimeError(f"linearization did not stop within "
                               f"{MAX_PICARD_PER_LEVEL} iterations")
        rhs = damping * (load - apply_nonlinear(dofmap, flux))
        estar = lu(rhs) if lu is not None else None
        state = alg.init_solver_state(operator, rhs)
        while True:
            if state.iterations >= MAX_PCG_PER_LINEARIZATION:
                raise RuntimeError(f"solver did not stop within "
                                   f"{MAX_PCG_PER_LINEARIZATION} steps")
            state = alg.pcg_step(state, pre)
            vertex_values[dofmap.free_vertices] = x + state.iterate
            flux = terms = None  # the previous step's die before this evaluation
            flux = element_flux(nl, mesh, vertex_values)
            terms = est.eval_squared(flux)
            eta = est.eta(terms)
            alg_inc = state.increment
            pic_inc = state.norm()
            stop_alg = algebraic_stop(alg_inc, pic_inc, eta, config.lambda_alg)
            stop_pic = stop_alg and picard_stop(pic_inc, eta, config.lambda_pic)
            step += 1
            cumcost += mesh.n_triangles
            rec = StepRecord(l=level, k=k, j=state.iterations, step=step,
                             nT=mesh.n_triangles, eta=eta, alg_inc=alg_inc,
                             pic_inc=pic_inc, cumcost=cumcost,
                             alg_stop=int(stop_alg), pic_stop=int(stop_pic))
            if errdata is not None:
                rec.err = errdata.error(vertex_values)
            if config.diagnostics:
                d = estar - state.iterate
                rec.alg_err = float(np.sqrt(max(d @ (operator @ d), 0.0)))
                rec.delta = quasi_error(rec)
            log.records.append(rec)
            if not np.isfinite(eta) or state.breakdown:
                log.exit_reason = "breakdown" if np.isfinite(eta) else "non_finite"
                return pre, u, None
            if stop_alg:
                break
        x = x + state.iterate
        if stop_pic:
            break
    u = FeFunction(dofmap, x)
    if eta <= config.eta_tol:
        log.exit_reason = "eta_zero" if eta == 0.0 else "eta_tol"
        return pre, u, None
    if mesh.n_triangles >= config.max_elements:
        log.exit_reason = "budget"
        return pre, u, None
    return pre, u, doerfler_mark(IndicatorField(mesh, est.scatter(terms)), config.theta)

"""Adaptive solve loop: mesh refinement around linearization around PCG.

The algorithm nests three loops.  On each mesh a damped fixed-point
linearization of the quasilinear operator is iterated; each linear system
is solved inexactly, one preconditioned CG step at a time; the error
estimator is recomputed after every step and drives both stopping tests
and the marking of elements for refinement.  The contraction factor of
the linearization and of the preconditioned solver are mesh independent,
so total work stays proportional to the cumulative number of elements.

Each executed solver step produces one StepRecord; a RunLog serializes to
CSV for the benchmark harness.
"""

from __future__ import annotations

import csv
import io
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, get_type_hints

import numpy as np

from . import algsolver as alg
from .estimator import EstimatorData, IndicatorField, doerfler_mark
from .fem import (DofMap, FeFunction, apply_nonlinear, assemble_laplacian,
                  assemble_rhs, prolongate, sample)
from .mesh import create_initial, refine
from .nonlinearity import derived_constants
from .problems import ErrorData, get_problem


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the adaptive run.

    theta is the bulk marking parameter; lambda_alg and lambda_pic scale
    the algebraic and linearization stopping tests against the estimator.
    The run stops after solving on the first mesh with at least
    max_elements elements (or once the estimator drops to eta_tol).
    uniform=True replaces marking by full refinement.  track_error adds a
    per-step energy error column when the exact solution is known;
    diagnostics additionally solves each linear system exactly to log the
    algebraic error and the combined quasi-error.  Out-of-range values
    raise ValueError at construction.
    """

    domain: str = "zshape"
    theta: float = 0.5
    lambda_alg: float = 1e-2
    lambda_pic: float = 1e-2
    max_elements: int = 10 ** 6
    eta_tol: float = 0.0
    uniform: bool = False
    track_error: bool = False
    diagnostics: bool = False
    # safety valve only; theta = 0.1 legitimately needs ~700 levels per 1e5 elements
    max_levels: int = 10 ** 4
    max_picard_per_level: int = 10 ** 4
    max_pcg_per_linearization: int = 10 ** 4

    def __post_init__(self):
        get_problem(self.domain)  # raises ValueError for an unknown domain
        checks = [(0.0 < self.theta <= 1.0, "theta must lie in (0, 1]"),
                  (self.lambda_alg > 0.0, "lambda_alg must be positive"),
                  (self.lambda_pic > 0.0, "lambda_pic must be positive"),
                  (self.eta_tol >= 0.0, "eta_tol must be nonnegative")]
        checks += [(getattr(self, name) >= 1, f"{name} must be at least 1")
                   for name in ("max_elements", "max_levels", "max_picard_per_level",
                                "max_pcg_per_linearization")]
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
    ``types``.
    """
    text = source.read() if hasattr(source, "read") else Path(source).read_text()
    lines = [row for row in csv.reader(text.splitlines()) if row]
    if not lines:
        raise ValueError("empty CSV file")
    header = lines[0]
    if set(header) - set(types) or header[:len(required)] != list(required):
        raise ValueError(f"unrecognized CSV header: {','.join(header)!r}")
    return [{name: None if cell == "" else types[name](cell)
             for name, cell in zip(header, row)} for row in lines[1:]]


_STEP_TYPES = field_types(StepRecord)
_BASE_COLUMNS = [f.name for f in fields(StepRecord) if f.default is MISSING]


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
        """Per-level summary from the accepted (last) step of each level.

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
                row = {"l": rec.l, "nT": rec.nT, "n_picard": rec.k, "n_steps": 1,
                       "eta": rec.eta, "cumcost": rec.cumcost, "err": rec.err,
                       "max_pcg": rec.j, "alg_ratio": None, "pic_ratio": None,
                       "n_marked": None, "closure_ratio": None}
                rows.append(row)
                prev = accepted = None
            else:
                row = rows[-1]
                row.update(n_picard=rec.k, n_steps=row["n_steps"] + 1,
                           eta=rec.eta, cumcost=rec.cumcost, err=rec.err,
                           max_pcg=max(row["max_pcg"], rec.j))
                if prev.k == rec.k and prev.alg_inc > 0.0:
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


def picard_rhs(nl, operator, load: np.ndarray, u: FeFunction,
               damping: float) -> np.ndarray:
    """Right-hand side of the damped fixed-point linear system at u."""
    return operator @ u.coeffs + damping * (load - apply_nonlinear(nl, u))


def quasi_error(record: StepRecord) -> float:
    """Combined error measure: true error + algebraic error + estimator."""
    return (record.err or 0.0) + (record.alg_err or 0.0) + record.eta


def run_adaptive(config: AdaptiveConfig) -> RunLog:
    problem = get_problem(config.domain)
    nl = problem.nonlinearity
    damping = derived_constants(nl).damping
    track = config.track_error or config.diagnostics

    mesh = create_initial(problem.domain)
    dofmap = DofMap.from_mesh(mesh)
    operator = assemble_laplacian(dofmap)
    u = FeFunction.zero(dofmap)
    pre = alg.MultilevelPreconditioner(dofmap, operator)

    log = RunLog(config=config)
    step = 0
    cumcost = 0
    samples = None
    for level in range(config.max_levels):
        # f is evaluated only on the triangles new since the previous samples
        samples = sample(mesh, problem.source, problem.neumann, samples)
        load = assemble_rhs(dofmap, samples)
        est = EstimatorData(samples)
        errdata = ErrorData(mesh, problem.exact) \
            if track and problem.exact is not None else None
        lu = alg.factorized(operator) if config.diagnostics else None

        x = u.coeffs
        vertex_values = np.zeros(mesh.n_vertices)
        squared = None
        k = 0
        while True:
            k += 1
            if k > config.max_picard_per_level:
                raise RuntimeError(f"linearization did not stop within "
                                   f"{config.max_picard_per_level} iterations")
            rhs = picard_rhs(nl, operator, load, FeFunction(dofmap, x), damping)
            xstar = lu(rhs) if lu is not None else None
            state = alg.init_solver_state(operator, rhs, x)
            while True:
                if state.iterations >= config.max_pcg_per_linearization:
                    raise RuntimeError(f"solver did not stop within "
                                       f"{config.max_pcg_per_linearization} steps")
                state = alg.pcg_step(state, pre)
                vertex_values[dofmap.free_vertices] = state.iterate
                squared = est.eval_squared(nl, vertex_values)
                eta = float(np.sqrt(squared.sum()))
                alg_inc = state.increment
                pic_inc = state.drift_norm()
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
                    d = xstar - state.iterate
                    rec.alg_err = float(np.sqrt(max(d @ (operator @ d), 0.0)))
                    rec.delta = quasi_error(rec)
                log.records.append(rec)
                if not np.isfinite(eta):
                    log.exit_reason = "non_finite"
                    return log
                if state.breakdown:
                    log.exit_reason = "breakdown"
                    return log
                if stop_alg:
                    break
            x = state.iterate
            if stop_pic:
                break
        u = FeFunction(dofmap, x)
        # drop what holds the mesh but the samples, which the next level's
        # `sample` reads and replaces; `refine` carries what the next mesh
        # needs (edge table, boundary edge ids, areas, gradient planes) into
        # it without keeping a reference, so this mesh is freed then
        del est, errdata

        eta_final = log.records[-1].eta
        if eta_final <= config.eta_tol:
            log.exit_reason = "eta_zero" if eta_final == 0.0 else "eta_tol"
            break
        if mesh.n_triangles >= config.max_elements:
            log.exit_reason = "budget"
            break
        if config.uniform:
            marked = np.arange(mesh.n_triangles)
        else:
            marked = doerfler_mark(IndicatorField(mesh, squared), config.theta)
        log.n_marked.append(len(marked))
        new_mesh = refine(mesh, marked)
        new_dofmap = DofMap.from_mesh(new_mesh)
        operator = assemble_laplacian(new_dofmap)
        pre = pre.extended(new_dofmap, operator)
        u = prolongate(u, new_dofmap)
        mesh, dofmap = new_mesh, new_dofmap
    else:
        log.exit_reason = "max_levels"
    return log

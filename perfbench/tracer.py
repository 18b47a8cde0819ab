"""Spans around calls into each sphereq module, recorded from outside.

The package's modules import each other's functions by name (``from
.harmonics import apply_laplacian``), so a call is only seen when the
binding in the *calling* module is replaced.  ``BINDINGS`` lists each
replaced binding with the layer metric name it records under; the module
that holds the binding is the call site.  Only public names are wrapped.
A binding that no longer exists is reported as absent, not an error, so
the benchmark keeps running when a later version deletes or moves one.

Spans are kept in memory as tuples and written once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
import statistics
from time import perf_counter

#: (module holding the binding, attribute, span name).
BINDINGS = (
    ("solver", "apply_laplacian", "harmonics.apply_laplacian"),
    ("problems", "apply_laplacian", "harmonics.apply_laplacian"),
    ("symmetry", "apply_laplacian", "harmonics.apply_laplacian"),
    ("solver", "sht_forward", "harmonics.sht_forward"),
    ("solver", "sht_inverse", "harmonics.sht_inverse"),
    ("harmonics", "sht_forward", "harmonics.sht_forward"),
    ("harmonics", "sht_inverse", "harmonics.sht_inverse"),
    ("harmonics", "make_operator", "harmonics.make_operator"),
    ("harmonics", "legendre_table", "harmonics.legendre_table"),
    ("solver", "newton_solve", "solver.newton_solve"),
    ("solver", "gmres", "solver.gmres"),
    ("solver", "residual", "problems.residual"),
    ("solver", "linearization_coefficients", "problems.linearization_coefficients"),
    ("symmetry", "residual", "problems.residual"),
    ("symmetry", "hadamard_coeffs", "problems.hadamard_coeffs"),
    ("symmetry", "theorem_audit", "symmetry.theorem_audit"),
    ("symmetry", "detect_axial_extrema", "symmetry.detect_axial_extrema"),
    ("symmetry", "check_leveled", "symmetry.check_leveled"),
    ("symmetry", "check_reflection", "symmetry.check_reflection"),
    ("symmetry", "check_midpoint", "symmetry.check_midpoint"),
    ("symmetry", "moving_arc_sweep", "symmetry.moving_arc_sweep"),
    ("symmetry", "linearized_annihilation", "symmetry.linearized_annihilation"),
    ("symmetry", "reflect_phi", "grid.reflect_phi"),
    ("symmetry", "interp_phi", "grid.interp_phi"),
    ("symmetry", "rotate_phi", "grid.rotate_phi"),
    ("symmetry", "oversample_phi", "grid.oversample_phi"),
    ("symmetry", "d_phi", "grid.d_phi"),
    ("grid", "make_grid", "grid.make_grid"),
    ("fieldio", "make_grid", "grid.make_grid"),
    ("fieldio", "read_field", "fieldio.read_field"),
    ("fieldio", "write_report_json", "fieldio.write_report_json"),
)

#: Per-(realization, grid) Laplacian timings reported by name; the cost is
#: not smooth in grid size, so each grid the workloads use gets its own.
LAPLACIAN_DETAILS = (
    "spectral.48x96",
    "spectral.96x192",
    "spectral.128x256",
)

# span tuple fields
NAME, SITE, DETAIL, START, END, PARENT, OP = range(7)


def _operator_detail(args):
    op = args[0] if args else None
    grid = getattr(op, "grid", None)
    return "%s.%sx%s" % (
        getattr(op, "realization", "?"),
        getattr(grid, "n_theta", "?"),
        getattr(grid, "n_phi", "?"),
    )


class Tracer:
    """Wraps the bindings in ``BINDINGS`` and records one span per call."""

    def __init__(self, modules):
        self.spans = []
        self.stack = []
        self.op = "setup"
        self.enabled = True
        self.absent = []
        self.stagnations = 0
        # line search mirror: best residual sup-norm per newton_solve span
        self._best = {}
        self.residual_evals = 0
        self.accepted_steps = 0
        for module_name, attr, name in BINDINGS:
            module = getattr(modules, module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append("sphereq.%s.%s" % (module_name, attr))
                continue
            setattr(module, attr, self._wrap(fn, name, module_name))

    def _wrap(self, fn, name, site):
        tracer = self
        detail = _operator_detail if name == "harmonics.apply_laplacian" else None
        on_result = {
            ("solver.gmres", "solver"): self._gmres_result,
            ("problems.residual", "solver"): self._residual_result,
        }.get((name, site))

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans = tracer.spans
            idx = len(spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            spans.append(None)
            tracer.stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                spans[idx] = (name, site, detail(args) if detail else "", start, end,
                              parent, tracer.op)
            if on_result is not None:
                on_result(parent, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _gmres_result(self, parent, result):
        if result[1] != 0:
            self.stagnations += 1

    def _residual_result(self, parent, result):
        """Mirror newton_solve's line search: a residual evaluation is an
        accepted step when it lowers the best sup-norm of its solve."""
        if self.op == "setup":
            return
        norm = result.sup_norm
        self.residual_evals += 1
        best = self._best.get(parent)
        if best is not None and norm < best:
            self.accepted_steps += 1
        if best is None or norm < best:
            self._best[parent] = norm

    def reset_counts(self):
        self.stagnations = 0
        self.residual_evals = 0
        self.accepted_steps = 0
        self._best.clear()

    def write(self, path):
        """Write every span as one JSON list per line (gzip)."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["name", "site", "detail", "start", "end", "parent", "op"]))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def _median_ms(durations):
    return 1e3 * statistics.median(durations) if durations else 0.0


def layer_metrics(tracer, op_walls, op_counters, import_s, scipy_loaded,
                  untraced_p50, traced_p50):
    """Per-layer metrics of the traced ops (op id >= 0) plus set-up spans.

    ``.calls`` is calls per op, ``.ms`` the median ms per call and
    ``.share`` self time (span minus direct child spans) over op wall time.
    """
    spans = tracer.spans
    n_ops = max(len(op_walls), 1)
    wall = sum(op_walls) or 1.0
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]

    durations, selfs, counts, sites = {}, {}, {}, {}
    setup_durations = {}
    for i, span in enumerate(spans):
        name = span[NAME]
        dur = span[END] - span[START]
        if span[OP] == "setup":
            setup_durations.setdefault(name, []).append(dur)
            continue
        durations.setdefault(name, []).append(dur)
        selfs[name] = selfs.get(name, 0.0) + dur - child[i]
        counts[name] = counts.get(name, 0) + 1
        key = (name, span[SITE])
        sites[key] = sites.get(key, 0) + 1
        if name == "harmonics.apply_laplacian":
            durations.setdefault((name, span[DETAIL]), []).append(dur)

    def calls(name):
        return counts.get(name, 0) / n_ops

    def ms(name):
        return _median_ms(durations.get(name, ()))

    def share(name):
        return selfs.get(name, 0.0) / wall

    def setup_ms(name):
        return _median_ms(setup_durations.get(name, ()))

    newton = counts.get("solver.newton_solve", 0)
    iters = sites.get(("problems.linearization_coefficients", "solver"), 0)
    matvecs = sites.get(("harmonics.apply_laplacian", "solver"), 0)
    read_bytes = sum(c.get("read_bytes", 0) for c in op_counters)
    read_s = sum(durations.get("fieldio.read_field", ()))

    m = {}
    m["harmonics.apply_laplacian.calls"] = (calls("harmonics.apply_laplacian"), "count")
    for detail in LAPLACIAN_DETAILS:
        m["harmonics.apply_laplacian.%s.ms" % detail] = (
            ms(("harmonics.apply_laplacian", detail)), "ms")
    m["harmonics.apply_laplacian.share"] = (share("harmonics.apply_laplacian"), "ratio")
    for name in ("harmonics.sht_forward", "harmonics.sht_inverse"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".ms"] = (ms(name), "ms")
    m["harmonics.make_operator.ms"] = (setup_ms("harmonics.make_operator"), "ms")
    m["harmonics.legendre_table.ms"] = (setup_ms("harmonics.legendre_table"), "ms")

    m["solver.newton_solve.calls"] = (calls("solver.newton_solve"), "count")
    m["solver.newton_solve.iters"] = (iters / newton if newton else 0.0, "count")
    m["solver.gmres.matvecs_per_iter"] = (matvecs / iters if iters else 0.0, "count")
    m["solver.precond.calls"] = (sites.get(("harmonics.sht_forward", "solver"), 0) / n_ops,
                                 "count")
    m["solver.gmres.calls"] = (calls("solver.gmres"), "count")
    m["solver.gmres.stagnations"] = (tracer.stagnations / n_ops, "count")
    # GMRES runs inside scipy; its self time is the solver layer's too
    m["solver.newton_solve.share"] = (
        share("solver.newton_solve") + share("solver.gmres"), "ratio")
    m["solver.line_search.accept_ratio"] = (
        tracer.accepted_steps / tracer.residual_evals if tracer.residual_evals else 0.0,
        "ratio")

    m["problems.residual.calls"] = (calls("problems.residual"), "count")
    m["problems.residual.ms"] = (ms("problems.residual"), "ms")
    m["problems.linearization_coefficients.ms"] = (
        ms("problems.linearization_coefficients"), "ms")
    m["problems.hadamard_coeffs.calls"] = (calls("problems.hadamard_coeffs"), "count")
    m["problems.hadamard_coeffs.ms"] = (ms("problems.hadamard_coeffs"), "ms")

    m["symmetry.detect_axial_extrema.ms"] = (ms("symmetry.detect_axial_extrema"), "ms")
    m["symmetry.moving_arc_sweep.calls"] = (calls("symmetry.moving_arc_sweep"), "count")
    m["symmetry.moving_arc_sweep.ms"] = (ms("symmetry.moving_arc_sweep"), "ms")
    m["symmetry.linearized_annihilation.calls"] = (
        calls("symmetry.linearized_annihilation"), "count")
    m["symmetry.linearized_annihilation.ms"] = (
        ms("symmetry.linearized_annihilation"), "ms")
    m["symmetry.check_leveled.ms"] = (ms("symmetry.check_leveled"), "ms")
    m["symmetry.check_reflection.ms"] = (ms("symmetry.check_reflection"), "ms")
    m["symmetry.theorem_audit.share"] = (share("symmetry.theorem_audit"), "ratio")

    for name in ("grid.reflect_phi", "grid.interp_phi"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".ms"] = (ms(name), "ms")
    m["grid.rotate_phi.calls"] = (calls("grid.rotate_phi"), "count")
    m["grid.oversample_phi.ms"] = (ms("grid.oversample_phi"), "ms")
    m["grid.d_phi.calls"] = (calls("grid.d_phi"), "count")
    m["grid.make_grid.ms"] = (setup_ms("grid.make_grid"), "ms")

    m["fieldio.read_field.ms"] = (ms("fieldio.read_field"), "ms")
    m["fieldio.read_field.mb_per_s"] = (
        read_bytes / 1e6 / read_s if read_s else 0.0, "MB/s")
    m["fieldio.write_report_json.ms"] = (ms("fieldio.write_report_json"), "ms")

    m["import.sphereq.s"] = (import_s, "s")
    m["import.scipy_sparse_linalg.loaded"] = (1.0 if scipy_loaded else 0.0, "count")

    m["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
    m["trace.spans_per_op"] = (sum(counts.values()) / n_ops, "count")
    m["trace.absent_bindings"] = (float(len(tracer.absent)), "count")
    return m
